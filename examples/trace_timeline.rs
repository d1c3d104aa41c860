//! Trace-based (time-varying) NUMA measurement — the paper's future-work
//! item #3 — on a program with three distinct phases.
//!
//! ```text
//! cargo run --release --example trace_timeline
//! ```
//!
//! Phase 1: master initializes (local stores only, workers idle).
//! Phase 2: workers read remote data homed in domain 0 (remote plateau).
//! Phase 3: data is re-distributed block-wise; workers turn local again.
//! The per-thread timeline makes the phase structure visible at a glance —
//! something an aggregate profile cannot show.

use hpctoolkit_numa::analysis::{render_trace_timelines, Analyzer};
use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{finish_profile, NumaProfiler, ProfilerConfig};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::Program;
use std::rc::Rc;

const SIZE: u64 = 16 << 20;
const THREADS: usize = 8;

fn main() {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config =
        ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8)).with_trace(50_000);
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine.clone(), THREADS, profiler.clone());

    // Phase 1: the classic bug — master first-touches everything.
    let mut a = 0;
    p.serial("main", |ctx| {
        a = ctx.alloc("data", SIZE, PlacementPolicy::FirstTouch);
        ctx.call("init", |ctx| ctx.store_range(a, SIZE / 64, 64));
    });

    // Phase 2: workers process their blocks — all remote to domain 0.
    let mut b = 0;
    p.parallel("process_v1._omp", |tid, ctx| {
        let chunk = SIZE / THREADS as u64;
        for off in (0..chunk).step_by(64) {
            ctx.load(a + tid as u64 * chunk + off, 8);
        }
        let _ = tid;
    });

    // Phase 3: the fixed version — a block-wise re-allocation (as the
    // optimized code would do), workers now local.
    p.serial("main", |ctx| {
        b = ctx.alloc("data_fixed", SIZE, machine.blockwise_for_threads(THREADS));
        let _ = b;
    });
    p.parallel("process_v2._omp", |tid, ctx| {
        let chunk = SIZE / THREADS as u64;
        for off in (0..chunk).step_by(64) {
            ctx.load(b + tid as u64 * chunk + off, 8);
        }
    });

    let analyzer = Analyzer::new(finish_profile(p, profiler));
    print!("{}", render_trace_timelines(&analyzer, 72));
    println!(
        "\nEach row is one thread's run, left to right in time. Workers go from a\n\
         remote plateau (processing master-initialized data) to local (block-wise\n\
         redistribution) — the time-varying pattern the paper's future work asks for."
    );
}
