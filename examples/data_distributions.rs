//! The three data distributions of the paper's Figure 1, measured.
//!
//! ```text
//! cargo run --release --example data_distributions
//! ```
//!
//! One array, three placements — all in one domain / interleaved /
//! co-located block-wise — swept by 48 threads. Prints elapsed cycles and
//! the per-domain DRAM request histogram for each.

use hpctoolkit_numa::machine::{DomainId, Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::sim::Program;

const ARRAY: u64 = 128 << 20;
const THREADS: usize = 48;

fn run(label: &str, make_policy: impl Fn(&Machine) -> PlacementPolicy) {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let policy = make_policy(&machine);
    let mut p = Program::unmonitored(machine, THREADS);
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("data", ARRAY, policy);
    });
    p.parallel("sweep._omp", |tid, ctx| {
        let chunk = ARRAY / THREADS as u64;
        for off in (0..chunk).step_by(64) {
            ctx.load(base + tid as u64 * chunk + off, 8);
        }
    });
    let stats = p.finish();
    println!(
        "{label:<26} {:>12} cycles   DRAM requests/domain: {:?}",
        stats.elapsed_cycles, stats.dram_requests
    );
}

fn main() {
    println!("Figure 1's three distributions ({THREADS} threads, 8 NUMA domains):\n");
    run("1: all in domain 0", |_| PlacementPolicy::Bind(DomainId(0)));
    run("2: interleaved", |_| PlacementPolicy::interleave_all(8));
    run("3: co-located block-wise", |m| {
        m.blockwise_for_threads(THREADS)
    });
    println!(
        "\nCo-location wins: local latency AND balanced controllers.\n\
         Interleaving only fixes the balance; the single-domain layout has\n\
         both the latency and the bandwidth problem (§2)."
    );
}
