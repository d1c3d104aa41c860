//! Differential property: a sampler driven through its gate (`gate` →
//! retire `quiet` ticks unseen → `skipped` → deliver) takes the same
//! samples at the same events, charges the same overhead and counts the
//! same events as one shown every event.

use numa_machine::{AccessLevel, CpuId, DomainId};
use numa_sampling::{MechanismConfig, MechanismKind, Sample, Sampler};
use numa_sim::MemoryEvent;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Step {
    Access(MemoryEvent),
    Compute(u64),
}

fn access(addr: u64, is_store: bool, level: AccessLevel, latency: u32) -> Step {
    Step::Access(MemoryEvent {
        tid: 0,
        cpu: CpuId(0),
        thread_domain: DomainId(0),
        addr,
        size: 8,
        is_store,
        level,
        home_domain: DomainId(1),
        latency,
        line: 0,
        first_touch_page: false,
        clock: 0,
    })
}

/// What a run of a sampler over a stream amounts to.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(step index, sample)` per memory sample.
    samples: Vec<(usize, Sample)>,
    /// `(step index, fires)` per compute block that fired.
    instruction_samples: Vec<(usize, u64)>,
    overhead: u64,
    events: u64,
}

struct Run {
    sampler: Sampler,
    out: Outcome,
}

impl Run {
    fn new(sampler: Sampler) -> Self {
        Run {
            sampler,
            out: Outcome {
                samples: Vec::new(),
                instruction_samples: Vec::new(),
                overhead: 0,
                events: 0,
            },
        }
    }

    fn deliver(&mut self, i: usize, step: &Step) {
        match step {
            Step::Access(ev) => {
                let o = self.sampler.on_access(ev);
                self.out.overhead += o.overhead;
                if let Some(s) = o.sample {
                    self.out.samples.push((i, s));
                }
            }
            Step::Compute(n) => {
                let o = self.sampler.on_compute(*n);
                self.out.overhead += o.overhead;
                if o.instruction_samples > 0 {
                    self.out
                        .instruction_samples
                        .push((i, o.instruction_samples));
                }
            }
        }
    }

    fn finish(mut self) -> Outcome {
        self.out.events = self.sampler.event_count();
        self.out
    }
}

fn every_event(sampler: Sampler, steps: &[Step]) -> Outcome {
    let mut run = Run::new(sampler);
    for (i, step) in steps.iter().enumerate() {
        run.deliver(i, step);
    }
    run.finish()
}

/// The engine's side of the gate protocol (`ThreadCtx::access` /
/// `ThreadCtx::compute`), restated over a step list.
fn gated(sampler: Sampler, steps: &[Step]) -> Outcome {
    let mut run = Run::new(sampler);
    let mut gate = run.sampler.gate();
    let mut unseen_ticks = 0;
    for (i, step) in steps.iter().enumerate() {
        let ticks = match step {
            Step::Access(ev) => gate.ticks(ev.is_store, ev.level, ev.latency) as u64,
            Step::Compute(n) => *n * gate.compute_ticks as u64,
        };
        if ticks <= gate.quiet {
            gate.quiet -= ticks;
            unseen_ticks += ticks;
            if matches!(step, Step::Access(_)) {
                run.out.overhead += gate.stub_cost;
            }
            continue;
        }
        run.sampler.skipped(unseen_ticks);
        unseen_ticks = 0;
        run.deliver(i, step);
        gate = run.sampler.gate();
    }
    run.sampler.skipped(unseen_ticks);
    run.finish()
}

proptest! {
    #[test]
    fn gated_sampler_equals_every_event_sampler(
        kind in prop::sample::select(MechanismKind::ALL.to_vec()),
        knobs in (any::<bool>(), 1u64..200, 1u64..40, 0u32..300),
        raw in prop::collection::vec((0u32..100, 0u32..400, 0u64..1000, any::<u64>()), 0..600)
    ) {
        let (jitter, period, dilution, latency_threshold) = knobs;
        let cfg = MechanismConfig {
            kind,
            period,
            dilution,
            latency_threshold,
            per_sample_cost: 1000,
            per_event_cost: 12,
            correction_cost: 500,
            refill_factor: 1.5,
            jitter,
        };
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(pick, latency, n, addr)| match pick {
                // Compute blocks far smaller and far larger than the period.
                0..=9 => Step::Compute(1 + n % 8),
                10..=14 => Step::Compute(1 + n),
                _ => access(
                    addr,
                    n % 2 == 0,
                    AccessLevel::ALL[(pick % 6) as usize],
                    latency,
                ),
            })
            .collect();
        // Both sides must draw one jitter stream: clone, never build twice.
        let sampler = cfg.build(0);
        let expected = every_event(sampler.clone(), &steps);
        prop_assert_eq!(gated(sampler, &steps), expected, "{:?}", cfg);
    }
}
