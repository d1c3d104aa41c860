//! Regenerates the three **ablation** sweeps: simulated quantities only,
//! so the output is deterministic and guarded like every other
//! `results/*.txt`.
//!
//! * bin count (§5.2) — the paper defaults to five bins per large variable;
//!   few bins blur per-thread blocks into overlapping ranges, many bins
//!   cost profile space.
//! * sampling period — shorter periods give denser address samples at
//!   higher monitoring overhead, while the sampled remote fraction stays
//!   put (§3's unbiasedness).
//! * contention slope — how much of Figure 1's single-domain vs co-located
//!   gap is distance (slope 0) and how much is queueing (§2).

use numa_analysis::{classify, Analyzer};
use numa_bench::{amd, MODE};
use numa_machine::{DomainId, LatencyModel, Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{ProfilerConfig, RangeScope};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::{Program, ProgramStats};
use numa_workloads::{run_profiled, Lulesh, LuleshVariant};

fn lulesh(config: ProfilerConfig) -> (ProgramStats, Analyzer) {
    let (stats, _, profile) = run_profiled(
        &Lulesh::new(24, 1, LuleshVariant::Baseline),
        amd(),
        8,
        MODE,
        config,
    );
    (stats, Analyzer::new(profile))
}

fn sweep(slope: f64, colocated: bool) -> u64 {
    let topo = MachinePreset::AmdMagnyCours.topology();
    let mut lat = LatencyModel::default_for(&topo);
    lat.contention_slope = slope;
    let machine = Machine::with_latency(topo, lat);
    let threads = 48;
    let bytes: u64 = 64 << 20;
    let policy = if colocated {
        machine.blockwise_for_threads(threads)
    } else {
        PlacementPolicy::Bind(DomainId(0))
    };
    let mut p = Program::unmonitored(machine, threads, MODE);
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("data", bytes, policy);
    });
    p.parallel("sweep", |tid, ctx| {
        let chunk = bytes / threads as u64;
        for off in (0..chunk).step_by(64) {
            ctx.load(base + tid as u64 * chunk + off, 8);
        }
    });
    p.finish().elapsed_cycles
}

fn main() {
    println!("Ablations (LULESH edge 24, 8 threads, AMD Magny-Cours; simulated quantities)");

    println!("\nAddress-centric bin count (IBS, period 16)");
    for bins in [1u16, 2, 5, 16, 64] {
        let config =
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16)).with_bins(bins);
        let (_, a) = lulesh(config);
        let ranges: usize = a.profile().threads.iter().map(|t| t.ranges.len()).sum();
        let z = a.profile().var_by_name("z").expect("LULESH allocates z").id;
        let pattern = classify(&a.thread_ranges(z, RangeScope::Program));
        println!(
            "bins={bins}: {ranges} range records, z pattern = {}",
            pattern.name()
        );
    }

    println!("\nSampling period (IBS, fixed 1400-cycle handler)");
    for period in [16u64, 64, 256, 1024, 4096] {
        let mut cfg = MechanismConfig::paper(MechanismKind::Ibs);
        cfg.period = period;
        cfg.per_sample_cost = 1400;
        let (stats, a) = lulesh(ProfilerConfig::new(cfg));
        println!(
            "period={period}: {} samples, remote fraction {:.3}, overhead {:+.1}%",
            a.totals().samples_mem,
            a.program().remote_fraction,
            stats.overhead_fraction() * 100.0
        );
    }

    println!("\nContention slope (Figure 1 sweep, 48 threads, 64 MiB)");
    for slope in [0.0, 0.3, 0.6, 1.2] {
        let single = sweep(slope, false);
        let coloc = sweep(slope, true);
        println!(
            "slope={slope}: single-domain/co-located = {:.2}×",
            single as f64 / coloc as f64
        );
    }
}
