//! UMT2013 mini-app (§8.4).
//!
//! Deterministic radiation transport: the paper profiles it on POWER7 with
//! MRK (32 threads, 4 domains), sampling L3-miss events. The hot variable
//! is `STime`, a three-dimensional array `STime(ig, c, Angle)` — the inner
//! loops of Figure 10 sweep groups and corners for a fixed angle, and
//! two-dimensional angle *planes* are assigned to threads round-robin.
//!
//! Because the master thread allocates and initializes `STime`, every
//! plane lands in domain 0; each thread then reads planes scattered across
//! the whole array (a staggered pattern like Blackscholes' buffer). The
//! fix parallelizes the initialization so each thread first-touches
//! exactly the planes it later sweeps — a 7% end-to-end win in the paper.

use crate::harness::{timed_phase, Workload, WorkloadOutput};
use numa_machine::PlacementPolicy;
use numa_sim::Program;
use serde::Serialize;

/// Variants of the UMT2013 case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum UmtVariant {
    /// Master-thread initialization of `STime`.
    Baseline,
    /// Parallel initialization: each thread first-touches its own
    /// round-robin angle planes.
    ParallelFirstTouch,
}

/// UMT2013 mini-app parameters.
#[derive(Clone, Debug)]
pub struct Umt2013 {
    pub groups: u64,
    pub corners: u64,
    pub angles: u64,
    /// Transport sweeps.
    pub iterations: usize,
    pub variant: UmtVariant,
}

const W: u64 = 8;

impl Umt2013 {
    pub fn new(
        groups: u64,
        corners: u64,
        angles: u64,
        iterations: usize,
        variant: UmtVariant,
    ) -> Self {
        assert!(groups * corners >= 64, "planes must span multiple lines");
        Umt2013 {
            groups,
            corners,
            angles,
            iterations,
            variant,
        }
    }

    pub fn tiny(variant: UmtVariant) -> Self {
        // 16 groups × 64 corners × 64 angles ≈ 0.5 MiB of STime.
        Umt2013::new(16, 64, 64, 2, variant)
    }

    fn plane_elems(&self) -> u64 {
        self.groups * self.corners
    }

    fn stime_bytes(&self) -> u64 {
        self.plane_elems() * self.angles * W
    }
}

impl Workload for Umt2013 {
    fn name(&self) -> &'static str {
        "UMT2013"
    }

    fn execute(&self, program: &mut Program) -> WorkloadOutput {
        let mut out = WorkloadOutput::default();
        let plane = self.plane_elems();
        let angles = self.angles;
        let stime_bytes = self.stime_bytes();
        let stotal_bytes = plane * W;

        let mut stime = 0;
        let mut psi = 0;
        let mut stotal = 0;
        let mut source = 0;
        program.serial("main", |ctx| {
            ctx.call("Teton::allocate", |ctx| {
                stime = ctx.alloc("STime", stime_bytes, PlacementPolicy::FirstTouch);
                // The angular flux: same shape as STime but swept in
                // contiguous angle blocks (different loops use different
                // decompositions in UMT).
                psi = ctx.alloc("Psi", stime_bytes, PlacementPolicy::FirstTouch);
                stotal = ctx.alloc("STotal", stotal_bytes, PlacementPolicy::FirstTouch);
                source = ctx.alloc("source", stotal_bytes, PlacementPolicy::FirstTouch);
            });
        });

        timed_phase(program, &mut out, "init", |p| {
            // Psi and the plane-sized arrays are always master-initialized:
            // the paper's fix targets STime's initialization loop only.
            p.serial("main", |ctx| {
                ctx.call("Teton::initialize", |ctx| {
                    ctx.store_range(psi, plane * angles, W as u32);
                    ctx.store_range(stotal, plane, W as u32);
                    ctx.store_range(source, plane, W as u32);
                });
            });
            match self.variant {
                UmtVariant::Baseline => {
                    p.serial("main", |ctx| {
                        ctx.call("Teton::initialize", |ctx| {
                            ctx.store_range(stime, plane * angles, W as u32);
                        });
                    });
                }
                UmtVariant::ParallelFirstTouch => {
                    p.parallel("Teton::initialize._omp", |tid, ctx| {
                        let n = ctx.num_threads() as u64;
                        // Each thread initializes exactly the planes it
                        // will sweep (round-robin by angle).
                        let mut a = tid as u64;
                        while a < angles {
                            ctx.store_range(stime + a * plane * W, plane, W as u32);
                            a += n;
                        }
                    });
                }
            }
        });

        timed_phase(program, &mut out, "sweep", |p| {
            for _ in 0..self.iterations {
                p.parallel("snflwxyz._omp", |tid, ctx| {
                    let n = ctx.num_threads() as u64;
                    let corners = self.corners;
                    let groups = self.groups;
                    ctx.loop_scope("angle_loop", |ctx| {
                        let mut angle = tid as u64;
                        // Figure 10's kernel: source = STotal(ig,c) +
                        // STime(ig,c,Angle), angles round-robin to threads.
                        while angle < angles {
                            ctx.at_line(612);
                            for c in 0..corners {
                                for ig in 0..groups {
                                    let idx = (c * groups + ig) + angle * plane;
                                    ctx.load(stotal + (c * groups + ig) * W, 8);
                                    ctx.load(stime + idx * W, 8);
                                    ctx.compute(6);
                                    ctx.store(source + (c * groups + ig) * W, 8);
                                }
                            }
                            angle += n;
                        }
                        ctx.at_line(0);
                    });
                    // The flux update sweeps Psi in contiguous angle
                    // blocks (a different decomposition than STime's
                    // round-robin).
                    ctx.loop_scope("flux_update", |ctx| {
                        ctx.at_line(701);
                        let per = angles.div_ceil(n);
                        let lo = (tid as u64 * per).min(angles);
                        let hi = ((tid as u64 + 1) * per).min(angles);
                        for angle in lo..hi {
                            for e in 0..plane {
                                let idx = e + angle * plane;
                                ctx.load(psi + idx * W, 8);
                                ctx.compute(4);
                                ctx.store(psi + idx * W, 8);
                            }
                        }
                        ctx.at_line(0);
                    });
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_profiled, run_unmonitored};
    use numa_analysis::{classify, AccessPattern, Analyzer};
    use numa_machine::{Machine, MachinePreset};
    use numa_profiler::{ProfilerConfig, RangeScope};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::ExecMode;

    fn machine() -> Machine {
        Machine::from_preset(MachinePreset::IbmPower7)
    }

    fn analyzer(variant: UmtVariant, period: u64) -> Analyzer {
        let app = Umt2013::tiny(variant);
        let (_, _, profile) = run_profiled(
            &app,
            machine(),
            32,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Mrk, period)),
        );
        Analyzer::new(profile)
    }

    #[test]
    fn stime_remote_fraction_is_high_at_baseline() {
        let a = analyzer(UmtVariant::Baseline, 1);
        let program = a.program();
        // Paper: 86% of L3 misses access remote memory. With 4 domains and
        // threads spread evenly, ≈3/4 of requests to domain-0 data are
        // remote.
        assert!(
            program.remote_fraction > 0.6,
            "remote fraction {:.2}",
            program.remote_fraction
        );
        let hot = a.hot_variables();
        assert!(
            hot.iter().take(2).any(|v| v.name == "STime"),
            "STime is among the hottest remote variables: {:?}",
            hot.iter().map(|v| &v.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stime_pattern_is_staggered_across_threads() {
        let a = analyzer(UmtVariant::Baseline, 1);
        let stime = a.profile().var_by_name("STime").unwrap().id;
        let pattern = classify(&a.thread_ranges(stime, RangeScope::Program));
        // Round-robin planes: every thread's [min,max] covers almost the
        // whole array with slightly ascending starts — the paper likens it
        // to Blackscholes' buffer (staggered/overlapping; at full overlap
        // the classifier may call it full-range, both are "shared" shapes).
        assert!(
            matches!(
                pattern,
                AccessPattern::StaggeredOverlap | AccessPattern::FullRange
            ),
            "got {pattern:?}"
        );
    }

    #[test]
    fn parallel_first_touch_colocates_planes() {
        let m = machine();
        let app = Umt2013::tiny(UmtVariant::ParallelFirstTouch);
        let (_, _, profile) = run_profiled(
            &app,
            m.clone(),
            32,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Mrk, 1)),
        );
        let stime = profile.var_by_name("STime").unwrap();
        let hist = m.page_map().binding_histogram(stime.addr).unwrap();
        let populated = hist.iter().filter(|&&c| c > 0).count();
        assert_eq!(
            populated, 4,
            "planes spread over all four domains: {hist:?}"
        );
    }

    #[test]
    fn parallel_first_touch_reduces_remote_accesses_and_time() {
        // "This optimization eliminates most remote accesses to STime."
        let stime_remote = |a: &Analyzer| {
            let id = a.profile().var_by_name("STime").unwrap().id;
            a.var_metrics(id).m_remote
        };
        let a_base = analyzer(UmtVariant::Baseline, 1);
        let a_opt = analyzer(UmtVariant::ParallelFirstTouch, 1);
        let base_remote = stime_remote(&a_base);
        let opt_remote = stime_remote(&a_opt);
        assert!(
            (opt_remote as f64) < base_remote as f64 * 0.2,
            "remote STime events drop: {base_remote} → {opt_remote}"
        );
        let (base, _) = run_unmonitored(
            &Umt2013::tiny(UmtVariant::Baseline),
            machine(),
            32,
            ExecMode::Sequential,
        );
        let (opt, _) = run_unmonitored(
            &Umt2013::tiny(UmtVariant::ParallelFirstTouch),
            machine(),
            32,
            ExecMode::Sequential,
        );
        assert!(opt.elapsed_cycles < base.elapsed_cycles);
    }

    #[test]
    fn first_touch_site_points_to_initialize() {
        let a = analyzer(UmtVariant::Baseline, 1);
        let stime = a.profile().var_by_name("STime").unwrap().id;
        let sites = a.first_touch_sites(stime);
        assert_eq!(sites.len(), 1);
        assert!(
            sites[0].2.contains("Teton::initialize"),
            "first touch path: {}",
            sites[0].2
        );
    }
}
