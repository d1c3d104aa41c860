//! The one sampling engine: a [`Sampler`] interprets its mechanism's row of
//! [`MECHANISMS`](crate::mechanism::MECHANISMS) with the periods,
//! thresholds and overhead constants of a [`MechanismConfig`].

use crate::config::MechanismConfig;
use crate::mechanism::{
    AccessOutcome, Capabilities, ComputeOutcome, MechanismKind, MechanismSpec, PeriodCounter,
    Qualifier, SEED_BASE,
};
use crate::sample::Sample;
use numa_machine::AccessLevel;
use numa_sim::{MemoryEvent, SampleGate};

/// A per-thread sampling engine. Samplers are stateful (period counters)
/// and owned one-per-thread, mirroring per-CPU PMU state.
///
/// The engine need not show a sampler every event: [`Sampler::gate`] says
/// how many qualifying events cannot fire, and [`Sampler::skipped`] stands
/// in for feeding them to [`Sampler::on_access`] / [`Sampler::on_compute`]
/// one by one.
#[derive(Clone)]
pub struct Sampler {
    spec: &'static MechanismSpec,
    caps: Capabilities,
    /// Marking stage in front of the period counter (MRK).
    dilution: Option<PeriodCounter>,
    period: PeriodCounter,
    /// Which accesses qualify and what every access pays, sampled or not
    /// (`quiet` is filled in by [`Sampler::gate`]).
    gate: SampleGate,
    /// Cycles per delivered memory sample, before the refill term.
    sample_cost: u64,
    /// Cycles per counter fire on a non-memory instruction; `None` when
    /// such instructions do not tick the counter.
    compute_fire_cost: Option<u64>,
    refill: f64,
    events: u64,
}

impl MechanismConfig {
    /// Instantiate thread `tid`'s sampling engine. Its `n` counters (the
    /// marking stage, if any, then the period counter) draw their jitter
    /// streams from seeds `0x9e37 + tid·n` onwards, so a profiled run
    /// is a pure function of its inputs.
    pub fn build(&self, tid: usize) -> Sampler {
        let spec = self.kind.spec();
        let n = 1 + spec.dilution.is_some() as u64;
        let seed = SEED_BASE + tid as u64 * n;
        let dilution = spec
            .dilution
            .map(|_| PeriodCounter::with_jitter(self.dilution.max(1), self.jitter, seed));
        let period = PeriodCounter::with_jitter(self.period, self.jitter, seed + n - 1);
        let sample_cost =
            self.per_sample_cost + spec.correction_cost.map_or(0, |_| self.correction_cost);
        let compute_fire_cost = spec.compute_fire_divisor.map(|d| sample_cost / d);
        // One `quiet` describes one counter: compute instructions tick the
        // period counter, so they cannot coexist with a marking stage.
        assert!(
            dilution.is_none() || compute_fire_cost.is_none(),
            "{}: a diluted mechanism cannot sample non-memory instructions",
            spec.name
        );
        let (loads_only, min_level, min_latency) = match spec.qualifier {
            Qualifier::EveryAccess => (false, AccessLevel::L1, 0),
            Qualifier::LoadBeyondLocalL3 => (true, AccessLevel::L3Remote, 0),
            Qualifier::LoadAtOrAboveThreshold(_) => (true, AccessLevel::L1, self.latency_threshold),
        };
        Sampler {
            spec,
            caps: Capabilities::for_kind(self.kind),
            dilution,
            period,
            gate: SampleGate {
                loads_only,
                min_level,
                min_latency,
                compute_ticks: compute_fire_cost.is_some(),
                stub_cost: spec.per_event_cost.map_or(0, |_| self.per_event_cost),
                quiet: 0,
            },
            sample_cost,
            compute_fire_cost,
            refill: self.refill_factor,
            events: 0,
        }
    }
}

impl Sampler {
    pub fn kind(&self) -> MechanismKind {
        self.spec.kind
    }

    /// Observe `n` non-memory instructions retiring. Fires carry no address
    /// but still cost handler time and count toward `I^s`.
    pub fn on_compute(&mut self, n: u64) -> ComputeOutcome {
        let Some(cost) = self.compute_fire_cost else {
            return ComputeOutcome::default();
        };
        let fires = self.period.add(n);
        ComputeOutcome {
            instruction_samples: fires,
            overhead: fires * cost,
        }
    }

    /// Observe one memory access (which also retires one instruction).
    pub fn on_access(&mut self, ev: &MemoryEvent) -> AccessOutcome {
        let mut out = AccessOutcome {
            sample: None,
            overhead: self.gate.stub_cost,
        };
        if !self.gate.ticks(ev.is_store, ev.level, ev.latency) {
            return out;
        }
        if self.spec.counts_events {
            self.events += 1;
        }
        if self.dilution.as_mut().is_none_or(PeriodCounter::tick) && self.period.tick() {
            out.sample = Some(Sample::from_event(ev, self.caps));
            // Cache-refill pollution term, see `MechanismConfig::refill_factor`.
            out.overhead += self.sample_cost + (self.refill * ev.latency as f64) as u64;
        }
        out
    }

    /// What the engine may retire without showing it to this sampler:
    /// `quiet` qualifying events — compute instructions among them if
    /// `compute_ticks` — cannot fire the first-stage counter.
    pub fn gate(&self) -> SampleGate {
        SampleGate {
            quiet: self.dilution.as_ref().unwrap_or(&self.period).quiet(),
            ..self.gate
        }
    }

    /// `ticks` qualifying events, at most the `quiet` of the last
    /// [`Sampler::gate`], were retired unseen. Leaves the sampler as that
    /// many `on_access` / `on_compute(1)` calls would have.
    pub fn skipped(&mut self, ticks: u64) {
        if self.spec.counts_events {
            self.events += ticks;
        }
        self.dilution
            .as_mut()
            .unwrap_or(&mut self.period)
            .skip(ticks);
    }

    /// Value of the mechanism's hardware event counter: the *absolute*
    /// number of qualifying events observed (sampled or not), as a PMU
    /// counter would report. PEBS-LL's `E_NUMA` in Eq. 3 comes from here.
    /// Mechanisms without such a counter report 0.
    pub fn event_count(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{CpuId, DomainId};

    fn ev(level: AccessLevel, latency: u32, is_store: bool) -> MemoryEvent {
        MemoryEvent {
            tid: 0,
            cpu: CpuId(0),
            thread_domain: DomainId(0),
            addr: 0x1000,
            size: 8,
            is_store,
            level,
            home_domain: DomainId(1),
            latency,
            line: 0,
            first_touch_page: false,
            clock: 0,
        }
    }

    fn drive(m: &mut Sampler, events: &[MemoryEvent]) -> (u64, u64) {
        let mut samples = 0;
        let mut overhead = 0;
        for e in events {
            let o = m.on_access(e);
            samples += o.sample.is_some() as u64;
            overhead += o.overhead;
        }
        (samples, overhead)
    }

    #[test]
    fn ibs_samples_at_period_across_both_streams() {
        let cfg = MechanismConfig::for_tests_exact(MechanismKind::Ibs, 10);
        let mut ibs = cfg.build(0);
        // 95 compute instructions + 5 accesses = 100 instructions → 10 samples.
        let c = ibs.on_compute(95);
        let events: Vec<_> = (0..5).map(|_| ev(AccessLevel::L1, 4, false)).collect();
        let (mem_samples, _) = drive(&mut ibs, &events);
        assert_eq!(c.instruction_samples + mem_samples, 10);
    }

    #[test]
    fn ibs_memory_samples_carry_latency_and_source() {
        let cfg = MechanismConfig::for_tests(MechanismKind::Ibs, 1);
        let mut ibs = cfg.build(0);
        let o = ibs.on_access(&ev(AccessLevel::MemRemote, 300, false));
        let s = o.sample.unwrap();
        assert_eq!(s.latency, Some(300));
        assert_eq!(s.level, Some(AccessLevel::MemRemote));
        assert!(s.precise_ip);
    }

    #[test]
    fn mrk_only_samples_l3_miss_traffic() {
        let cfg = MechanismConfig::for_tests(MechanismKind::Mrk, 1);
        let mut mrk = cfg.build(0);
        assert!(mrk
            .on_access(&ev(AccessLevel::L1, 4, false))
            .sample
            .is_none());
        assert!(mrk
            .on_access(&ev(AccessLevel::L3Local, 40, false))
            .sample
            .is_none());
        let s = mrk.on_access(&ev(AccessLevel::MemRemote, 300, false));
        assert!(s.sample.is_some());
        // MRK has no latency capability (§4.2).
        assert_eq!(s.sample.unwrap().latency, None);
    }

    #[test]
    fn pebs_ip_is_imprecise_and_costly() {
        let mut cfg = MechanismConfig::for_tests(MechanismKind::Pebs, 1);
        cfg.correction_cost = 500;
        cfg.per_sample_cost = 100;
        let mut pebs = cfg.build(0);
        let o = pebs.on_access(&ev(AccessLevel::L2, 12, true));
        assert_eq!(o.overhead, 600);
        let s = o.sample.unwrap();
        assert!(!s.precise_ip);
        assert_eq!(s.latency, None);
        assert_eq!(s.level, None);
    }

    #[test]
    fn dear_filters_stores_and_fast_loads() {
        let mut cfg = MechanismConfig::for_tests(MechanismKind::Dear, 1);
        cfg.latency_threshold = 8;
        let mut dear = cfg.build(0);
        assert!(dear
            .on_access(&ev(AccessLevel::L1, 4, false))
            .sample
            .is_none());
        assert!(dear
            .on_access(&ev(AccessLevel::MemLocal, 150, true))
            .sample
            .is_none());
        let s = dear.on_access(&ev(AccessLevel::MemLocal, 150, false));
        assert!(s.sample.is_some());
        // No NUMA events on DEAR (§10).
        assert_eq!(s.sample.unwrap().level, None);
    }

    #[test]
    fn pebs_ll_thresholded_with_latency() {
        let mut cfg = MechanismConfig::for_tests(MechanismKind::PebsLl, 1);
        cfg.latency_threshold = 32;
        let mut ll = cfg.build(0);
        assert!(ll
            .on_access(&ev(AccessLevel::L2, 12, false))
            .sample
            .is_none());
        let s = ll
            .on_access(&ev(AccessLevel::MemRemote, 400, false))
            .sample
            .unwrap();
        assert_eq!(s.latency, Some(400));
        assert_eq!(s.level, Some(AccessLevel::MemRemote));
    }

    #[test]
    fn soft_ibs_charges_every_access() {
        let mut cfg = MechanismConfig::for_tests_exact(MechanismKind::SoftIbs, 4);
        cfg.per_event_cost = 10;
        cfg.per_sample_cost = 100;
        let mut soft = cfg.build(0);
        let events: Vec<_> = (0..8).map(|_| ev(AccessLevel::L1, 4, false)).collect();
        let (samples, overhead) = drive(&mut soft, &events);
        assert_eq!(samples, 2);
        assert_eq!(overhead, 8 * 10 + 2 * 100);
    }

    #[test]
    fn sampling_rate_is_unbiased_over_long_streams() {
        // §3 requires uniform sampling of memory accesses; a period counter
        // fires exactly count/period times regardless of phase.
        let cfg = MechanismConfig::for_tests_exact(MechanismKind::SoftIbs, 1000);
        let mut soft = cfg.build(0);
        let events: Vec<_> = (0..100_000)
            .map(|_| ev(AccessLevel::L1, 4, false))
            .collect();
        let (samples, _) = drive(&mut soft, &events);
        assert_eq!(samples, 100);
    }
}
