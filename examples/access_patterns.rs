//! The four canonical access patterns of the case studies, rendered as
//! address-centric views and auto-classified.
//!
//! ```text
//! cargo run --release --example access_patterns
//! ```
//!
//! * blocked staircase — LULESH's `z` → block-wise distribution;
//! * staggered overlapping — Blackscholes' `buffer` → regroup + parallel
//!   first touch;
//! * full-range — AMG's `u` in matvec → interleave;
//! * irregular — no whole-program structure → drill into regions.

use hpctoolkit_numa::analysis::{classify, recommend, render_ranges, Analyzer};
use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{finish_profile, NumaProfiler, ProfilerConfig, RangeScope};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::{Program, ThreadCtx};
use std::rc::Rc;

const SIZE: u64 = 8 << 20;
const THREADS: usize = 16;

/// One synthetic kernel per pattern: `body(tid, ctx, base)` issues the
/// accesses.
fn demo(name: &str, body: impl Fn(usize, &mut ThreadCtx<'_>, u64) + Sync) {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config =
        ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8)).with_bins(64);
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine, THREADS, profiler.clone());
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("var", SIZE, PlacementPolicy::interleave_all(8));
    });
    p.parallel("kernel._omp", |tid, ctx| body(tid, ctx, base));
    let analyzer = Analyzer::new(finish_profile(p, profiler));
    let var = analyzer.profile().var_by_name("var").unwrap().id;
    let ranges = analyzer.thread_ranges(var, RangeScope::Program);
    print!("{}", render_ranges(&ranges, name));
    let pattern = classify(&ranges);
    println!(
        "classified: {}  ⇒  {}\n",
        pattern.name(),
        recommend(pattern).describe()
    );
}

fn main() {
    let chunk = SIZE / THREADS as u64;

    demo("blocked staircase", |tid, ctx, base| {
        let lo = base + tid as u64 * chunk;
        for off in (0..chunk).step_by(256) {
            ctx.load(lo + off, 8);
        }
    });

    demo("staggered overlapping windows", |tid, ctx, base| {
        // Each thread's window starts a little later but spans 60% of the
        // variable (Blackscholes' five-section layout collapses to this).
        let start = (tid as u64 * SIZE / (THREADS as u64 * 8)).min(SIZE * 2 / 5);
        let len = SIZE * 3 / 5;
        for off in (0..len).step_by(512) {
            ctx.load(base + start + off, 8);
        }
    });

    demo("full range per thread", |tid, ctx, base| {
        // Every thread sweeps everything, phase-shifted.
        let phase = (tid as u64 * 64) % 4096;
        for off in (phase..SIZE).step_by(4096) {
            ctx.load(base + off, 8);
        }
    });

    demo("irregular", |tid, ctx, base| {
        // Pseudo-random windows, uncorrelated with thread id.
        let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(tid as u64 + 17);
        for _ in 0..3 {
            x ^= x >> 31;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            let start = x % (SIZE - chunk);
            for off in (0..chunk / 2).step_by(256) {
                ctx.load(base + start + off, 8);
            }
        }
    });
}
