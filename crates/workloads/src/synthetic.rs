//! Synthetic access-pattern kernels.
//!
//! Small parameterized workloads producing each of the canonical
//! address-centric shapes the analyzer classifies. Used by the pattern
//! examples, the ablation benches, and tests — and handy as minimal
//! reproducers when exploring the profiler.

use crate::harness::{timed_phase, Workload, WorkloadOutput};
use crate::lulesh::block;
use numa_machine::PlacementPolicy;
use numa_sim::Program;

/// Which canonical shape the kernel produces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyntheticPattern {
    /// Disjoint ascending per-thread blocks.
    Blocked,
    /// Ascending windows with heavy overlap.
    StaggeredOverlap,
    /// Every thread sweeps the whole variable.
    FullRange,
    /// Pseudo-random windows uncorrelated with thread id.
    Irregular,
}

impl SyntheticPattern {
    pub const ALL: [SyntheticPattern; 4] = [
        SyntheticPattern::Blocked,
        SyntheticPattern::StaggeredOverlap,
        SyntheticPattern::FullRange,
        SyntheticPattern::Irregular,
    ];
}

/// A single-array kernel: master-allocated variable (`data`), swept by all
/// threads with the chosen pattern for `iterations` rounds.
#[derive(Clone, Debug)]
pub struct Synthetic {
    pub bytes: u64,
    pub iterations: usize,
    pub pattern: SyntheticPattern,
    pub policy: PlacementPolicy,
    /// Compute instructions interleaved per access (0 = pure memory).
    pub compute_per_access: u64,
}

impl Synthetic {
    pub fn new(bytes: u64, pattern: SyntheticPattern) -> Self {
        Synthetic {
            bytes,
            iterations: 1,
            pattern,
            policy: PlacementPolicy::FirstTouch,
            compute_per_access: 0,
        }
    }

    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    pub fn with_compute(mut self, per_access: u64) -> Self {
        self.compute_per_access = per_access;
        self
    }
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn execute(&self, program: &mut Program) -> WorkloadOutput {
        let mut out = WorkloadOutput::default();
        let bytes = self.bytes;
        let mut base = 0;
        program.serial("main", |ctx| {
            base = ctx.alloc("data", bytes, self.policy.clone());
            // Master init (the first-touch binder for FirstTouch policy).
            ctx.store_range(base, bytes / 64, 64);
        });
        let pattern = self.pattern;
        let compute = self.compute_per_access;
        timed_phase(program, &mut out, "sweep", |p| {
            let threads = p.num_threads() as u64;
            for _ in 0..self.iterations {
                p.parallel("sweep._omp", |tid, ctx| {
                    let tid = tid as u64;
                    match pattern {
                        SyntheticPattern::Blocked => {
                            let (lo, hi) = block(bytes / 64, threads, tid);
                            for line in lo..hi {
                                ctx.load(base + line * 64, 8);
                                ctx.compute(compute);
                            }
                        }
                        SyntheticPattern::StaggeredOverlap => {
                            let start = tid * bytes / (threads * 8);
                            let len = bytes * 3 / 5;
                            let start = start.min(bytes - len);
                            for off in (0..len).step_by(256) {
                                ctx.load(base + start + off, 8);
                                ctx.compute(compute);
                            }
                        }
                        SyntheticPattern::FullRange => {
                            let phase = (tid * 64) % 1024;
                            for off in (phase..bytes).step_by(1024) {
                                ctx.load(base + off, 8);
                                ctx.compute(compute);
                            }
                        }
                        SyntheticPattern::Irregular => {
                            let mut x = mix(tid + 1);
                            let window = bytes / (threads * 2);
                            for _ in 0..3 {
                                x = mix(x);
                                let start = x % (bytes - window);
                                for off in (0..window).step_by(256) {
                                    ctx.load(base + start + off, 8);
                                    ctx.compute(compute);
                                }
                            }
                        }
                    }
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_profiled;
    use numa_analysis::{classify, AccessPattern, Analyzer};
    use numa_machine::{Machine, MachinePreset};
    use numa_profiler::{ProfilerConfig, RangeScope};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::ExecMode;

    fn classify_pattern(p: SyntheticPattern) -> AccessPattern {
        let app = Synthetic::new(8 << 20, p);
        let cfg =
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 4)).with_bins(64);
        let (_, _, profile) = run_profiled(
            &app,
            Machine::from_preset(MachinePreset::AmdMagnyCours),
            16,
            ExecMode::Sequential,
            cfg,
        );
        let a = Analyzer::new(profile);
        let var = a.profile().var_by_name("data").unwrap().id;
        classify(&a.thread_ranges(var, RangeScope::Program))
    }

    #[test]
    fn each_synthetic_pattern_classifies_as_intended() {
        assert_eq!(
            classify_pattern(SyntheticPattern::Blocked),
            AccessPattern::Blocked
        );
        assert_eq!(
            classify_pattern(SyntheticPattern::StaggeredOverlap),
            AccessPattern::StaggeredOverlap
        );
        assert_eq!(
            classify_pattern(SyntheticPattern::FullRange),
            AccessPattern::FullRange
        );
        assert_eq!(
            classify_pattern(SyntheticPattern::Irregular),
            AccessPattern::Irregular
        );
    }

    #[test]
    fn policies_compose_with_patterns() {
        let app = Synthetic::new(4 << 20, SyntheticPattern::Blocked)
            .with_policy(PlacementPolicy::interleave_all(8))
            .with_iterations(2)
            .with_compute(4);
        let m = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let (_, _, profile) = run_profiled(
            &app,
            m.clone(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16)),
        );
        let hist = m
            .page_map()
            .binding_histogram(profile.var_by_name("data").unwrap().addr)
            .unwrap();
        let max = *hist.iter().max().unwrap();
        let min = *hist.iter().min().unwrap();
        assert!(max - min <= 1, "interleave even: {hist:?}");
    }
}
