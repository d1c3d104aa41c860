//! Shared plumbing for the table/figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! and prints the paper's value next to the measured one. Absolute numbers
//! are not expected to match (the substrate is a simulator, not the
//! authors' testbeds); the *shape* — who wins, by roughly what factor,
//! where crossovers fall — is the reproduction target. `EXPERIMENTS.md`
//! records the outcomes.

use numa_machine::{Machine, MachinePreset};
use numa_profiler::ProfilerConfig;
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;
use numa_workloads::{
    run_profiled, run_unmonitored, Amg2006, AmgVariant, Blackscholes, BlackscholesVariant, Lulesh,
    LuleshVariant, Umt2013, UmtVariant, Workload,
};

/// One paper-vs-measured comparison row.
pub struct Row {
    pub label: String,
    pub paper: String,
    pub measured: String,
}

impl Row {
    pub fn new(
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
    ) -> Self {
        Row {
            label: label.into(),
            paper: paper.into(),
            measured: measured.into(),
        }
    }
}

/// Print a titled paper-vs-measured table.
pub fn print_comparison(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!("{}", "=".repeat(title.len().max(40)));
    println!("{:<52} {:>16} {:>16}", "quantity", "paper", "measured");
    println!("{}", "-".repeat(86));
    for r in rows {
        println!("{:<52} {:>16} {:>16}", r.label, r.paper, r.measured);
    }
}

/// Percent speedup of `optimized` over `baseline` (positive = faster).
pub fn speedup_pct(baseline_cycles: u64, optimized_cycles: u64) -> f64 {
    (baseline_cycles as f64 - optimized_cycles as f64) / baseline_cycles as f64 * 100.0
}

pub fn fmt_pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Period-scaling factor used by all regenerators: the paper's periods
/// target native runs several orders of magnitude longer than the
/// simulated ones.
pub const SCALE: u64 = 64;

/// The AMD Magny-Cours machine most case studies use (48 threads, 8
/// domains).
pub fn amd() -> Machine {
    Machine::from_preset(MachinePreset::AmdMagnyCours)
}

/// The POWER7 machine of the MRK case studies (128 threads, 4 domains).
pub fn power7() -> Machine {
    Machine::from_preset(MachinePreset::IbmPower7)
}

/// Benchmark-scale workloads (larger than unit-test sizes, bounded so each
/// regenerator finishes interactively).
pub fn lulesh_bench(variant: LuleshVariant) -> Lulesh {
    // Edge 88 → ~70 MB of nodal+connectivity data: the per-domain working
    // set exceeds one L3, so the solve phase stays DRAM-bound every
    // iteration, as on the paper's testbed.
    Lulesh::new(88, 3, variant)
}

pub fn amg_bench(variant: AmgVariant) -> Amg2006 {
    Amg2006::new(192 * 1024, 3, variant)
}

pub fn blackscholes_bench(variant: BlackscholesVariant) -> Blackscholes {
    Blackscholes::new(1024, 30, variant)
}

pub fn umt_bench(variant: UmtVariant) -> Umt2013 {
    Umt2013::new(16, 128, 128, 2, variant)
}

/// Run a workload profiled with `kind` at the standard scale.
pub fn profile_workload(
    w: &dyn Workload,
    machine: Machine,
    threads: usize,
    kind: MechanismKind,
) -> (
    numa_sim::ProgramStats,
    numa_workloads::WorkloadOutput,
    numa_profiler::NumaProfile,
) {
    // Finer-than-default binning (the paper's HPCTOOLKIT_NUMA_BINS knob):
    // with 48-thread blocks, 64 bins let the hot-bin filter isolate each
    // thread's block from stray neighbour-gather samples.
    let config = ProfilerConfig::new(MechanismConfig::scaled(kind, SCALE)).with_bins(64);
    run_profiled(w, machine, threads, ExecMode::Sequential, config)
}

/// Run a workload unmonitored.
pub fn bare_workload(
    w: &dyn Workload,
    machine: Machine,
    threads: usize,
) -> (numa_sim::ProgramStats, numa_workloads::WorkloadOutput) {
    run_unmonitored(w, machine, threads, ExecMode::Sequential)
}
