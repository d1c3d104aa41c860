//! Demonstrates the **§4.1 bias**: a thread that pulls remotely-homed data
//! into its private cache and then hammers it accumulates a huge `M_r`
//! (because `move_pages` reports the page's home domain) with almost no
//! actual NUMA latency. The `lpi_NUMA` metric (§4.2) eliminates the bias.

use numa_analysis::Analyzer;
use numa_bench::{amd, print_comparison, Row};
use numa_machine::{DomainId, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfiler, ProfilerConfig, LPI_THRESHOLD};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use std::rc::Rc;

fn main() {
    println!("§4.1 bias demo: cached remote data inflates M_r but not lpi_NUMA\n");

    let machine = amd();
    let config = ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 2));
    let mut p = Program::new(machine, 2, profiler.clone());

    let mut base = 0;
    p.serial("main", |ctx| {
        // A small variable homed in domain 0 (fits in one thread's L1).
        base = ctx.alloc("hot_small", 16 * 1024, PlacementPolicy::Bind(DomainId(0)));
    });
    p.parallel("hammer._omp", |tid, ctx| {
        if tid == 1 {
            // Thread 1 (domain 1) loads the variable once (cold, remote),
            // then hammers it from its private cache a million times.
            for _ in 0..400 {
                for off in (0..16 * 1024).step_by(64) {
                    ctx.load(base + off as u64, 8);
                }
            }
        }
    });
    let profile = finish_profile(p, profiler);
    let a = Analyzer::new(profile);
    let var = a.profile().var_by_name("hot_small").unwrap().id;
    let m = a.var_metrics(var);
    let program = a.program();

    print_comparison(
        "bias demo — the naive metric vs the derived metric",
        &[
            Row::new(
                "M_r (remote-homed samples)",
                "large",
                format!("{}", m.m_remote),
            ),
            Row::new("M_l", "~0", format!("{}", m.m_local)),
            Row::new(
                "M_r / (M_l+M_r) — looks like a severe problem",
                "~100%",
                format!("{:.1}%", m.remote_fraction() * 100.0),
            ),
            Row::new(
                "lpi_NUMA — the actual NUMA cost",
                format!("≪ {LPI_THRESHOLD}"),
                format!("{:.4}", program.lpi_numa.unwrap_or(0.0)),
            ),
            Row::new(
                "verdict",
                "do NOT optimize",
                if program.warrants_optimization() {
                    "optimize (WRONG)"
                } else {
                    "do NOT optimize"
                },
            ),
        ],
    );
    println!(
        "\n\"if a thread loads a variable … into its private cache and touches it \
         frequently, though no further remote accesses occur, the M_r caused by this \
         thread is high\" (§4.1)."
    );
}
