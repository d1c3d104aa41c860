//! Quickstart: profile a small multithreaded program on a simulated NUMA
//! machine and print the full NUMA analysis report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The program below has the classic first-touch bug: the master thread
//! initializes a large array (binding every page to NUMA domain 0), then
//! all threads process disjoint blocks of it. The profiler pinpoints the
//! bug, quantifies it with the paper's metrics, and recommends the fix.

use hpctoolkit_numa::analysis::{analyze, full_text_report, Analyzer};
use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{finish_profile, NumaProfiler, ProfilerConfig};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::Program;
use std::rc::Rc;

const ARRAY: u64 = 32 << 20;
const THREADS: usize = 8;

fn main() {
    // 1. A simulated 48-core, 8-domain AMD machine (Table 1's IBS system).
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);

    // 2. The profiler, configured for IBS address sampling (period scaled
    //    for a short run).
    let config = ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));

    // 3. The monitored program: allocate, master-init, parallel process.
    let mut program = Program::new(machine, THREADS, profiler.clone());
    let mut data = 0;
    program.serial("main", |ctx| {
        data = ctx.alloc("data", ARRAY, PlacementPolicy::FirstTouch);
        // First touch by the master: every page lands in domain 0.
        ctx.call("init_data", |ctx| {
            ctx.store_range(data, ARRAY / 64, 64);
        });
    });
    for _ in 0..2 {
        program.parallel("process._omp", |tid, ctx| {
            let chunk = ARRAY / THREADS as u64;
            let base = data + tid as u64 * chunk;
            // Each thread streams its own block.
            for off in (0..chunk).step_by(64) {
                ctx.load(base + off, 8);
                ctx.compute(12);
            }
        });
    }

    // 4. Offline analysis: merge thread profiles, compute derived metrics,
    //    classify access patterns, emit guidance.
    let profile = finish_profile(program, profiler);
    let analyzer = Analyzer::new(profile);
    println!("{}", full_text_report(&analyzer));

    // Programmatic access to the same answers:
    let report = analyze(&analyzer);
    let advice = &report.advice[0];
    println!(
        "summary: '{}' causes {:.0}% of remote cost; pattern {:?}; fix: {}",
        advice.name,
        advice.summary.remote_share * 100.0,
        advice.pattern,
        advice.recommendation.describe()
    );
}
