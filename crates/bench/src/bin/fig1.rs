//! Regenerates **Figure 1**: the three data distributions on a NUMA
//! machine and their latency/contention consequences.
//!
//! A synthetic kernel allocates one large array and sweeps it with every
//! thread reading its own block, under the figure's three distributions:
//!
//! 1. all data in NUMA domain 1 (here: domain 0) — locality *and*
//!    bandwidth problems;
//! 2. interleaved across domains — contention avoided, locality still poor;
//! 3. co-located (block-wise) with the computation — local, uncontended.

use numa_bench::{amd, print_comparison, speedup_pct, Row};
use numa_machine::{DomainId, PlacementPolicy};
use numa_sim::Program;

const ARRAY_BYTES: u64 = 256 << 20; // larger than the aggregate L3
const THREADS: usize = 48;

enum Dist {
    SingleDomain,
    Interleaved,
    CoLocated,
}

fn run(dist: Dist, label: &str) -> (u64, f64, String) {
    let machine = amd();
    let policy = match dist {
        Dist::SingleDomain => PlacementPolicy::Bind(DomainId(0)),
        Dist::Interleaved => PlacementPolicy::interleave_all(8),
        Dist::CoLocated => machine.blockwise_for_threads(THREADS),
    };
    let mut p = Program::unmonitored(machine, THREADS);
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("data", ARRAY_BYTES, policy);
    });
    p.parallel("sweep._omp", |tid, ctx| {
        let chunk = ARRAY_BYTES / THREADS as u64;
        let lo = base + tid as u64 * chunk;
        // One access per cache line: a pure bandwidth/latency probe.
        for off in (0..chunk).step_by(64) {
            ctx.load(lo + off, 8);
        }
    });
    let stats = p.finish();
    let hist = &stats.dram_requests;
    let total: u64 = hist.iter().sum::<u64>().max(1);
    let max_share = *hist.iter().max().unwrap() as f64 / total as f64;
    (
        stats.elapsed_cycles,
        max_share * hist.len() as f64,
        label.to_string(),
    )
}

fn main() {
    println!("Figure 1: three data distributions (synthetic sweep, {THREADS} threads, 8 domains)");

    let (t1, imb1, _) = run(Dist::SingleDomain, "single-domain");
    let (t2, imb2, _) = run(Dist::Interleaved, "interleaved");
    let (t3, imb3, _) = run(Dist::CoLocated, "co-located (block-wise)");

    println!(
        "\n{:<28} {:>16} {:>20} {:>18}",
        "distribution", "cycles", "vs single-domain", "DRAM imbalance ×"
    );
    println!("{}", "-".repeat(86));
    for (label, t, imb) in [
        ("1: all in one domain", t1, imb1),
        ("2: interleaved", t2, imb2),
        ("3: co-located", t3, imb3),
    ] {
        println!(
            "{:<28} {:>16} {:>19.1}% {:>18.2}",
            label,
            t,
            speedup_pct(t1, t),
            imb
        );
    }

    print_comparison(
        "Figure 1 — qualitative claims",
        &[
            Row::new(
                "single-domain suffers locality AND bandwidth",
                "slowest",
                if t1 > t2 && t1 > t3 {
                    "slowest"
                } else {
                    "NOT slowest"
                },
            ),
            Row::new(
                "interleaving avoids centralized contention",
                "middle",
                if t2 < t1 && t2 > t3 {
                    "middle"
                } else {
                    "check"
                },
            ),
            Row::new(
                "co-location is the most powerful optimization",
                "fastest",
                if t3 < t2 && t3 < t1 {
                    "fastest"
                } else {
                    "NOT fastest"
                },
            ),
        ],
    );
}
