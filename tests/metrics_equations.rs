//! Focused tests for the paper's derived-metric equations (§4.2).

use hpctoolkit_numa::analysis::Analyzer;
use hpctoolkit_numa::machine::{DomainId, Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{finish_profile, NumaProfiler, ProfilerConfig};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::Program;
use std::rc::Rc;

const SIZE: u64 = 16 << 20;
const THREADS: usize = 8;

fn run(config: ProfilerConfig) -> (Analyzer, u64) {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine, THREADS, profiler.clone());
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("hot", SIZE, PlacementPolicy::Bind(DomainId(0)));
    });
    p.parallel("work._omp", |tid, ctx| {
        let chunk = SIZE / THREADS as u64;
        // One access per line: every access is a cold DRAM access, remote
        // for 7 of 8 threads.
        for off in (0..chunk).step_by(64) {
            ctx.load(base + tid as u64 * chunk + off, 8);
        }
        ctx.compute(chunk / 64 * 3);
    });
    let instructions = p.stats().instructions;
    (Analyzer::new(finish_profile(p, profiler)), instructions)
}

/// Eq. 2: `lpi ≈ l^s_NUMA / I^s` must track the ground-truth remote
/// latency per instruction, independent of the sampling period.
#[test]
fn eq2_estimate_is_period_independent() {
    let lpis: Vec<f64> = [4u64, 16, 64]
        .iter()
        .map(|&period| {
            let cfg = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, period));
            run(cfg).0.program().lpi_numa.unwrap()
        })
        .collect();
    for w in lpis.windows(2) {
        let rel = (w[0] - w[1]).abs() / w[0];
        assert!(
            rel < 0.15,
            "Eq. 2 estimates should agree across periods: {lpis:?}"
        );
    }
}

/// Eq. 3 (PEBS-LL): avg remote latency per sampled event × E_NUMA / I.
/// With a sparse event sample and hardware counters, the estimate must
/// land near the IBS (Eq. 2) estimate for the same workload.
#[test]
fn eq3_agrees_with_eq2() {
    let ibs = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let (a_ibs, _) = run(ibs);
    let lpi2 = a_ibs.program().lpi_numa.unwrap();

    let mut pebs_ll = MechanismConfig::for_tests(MechanismKind::PebsLl, 16);
    pebs_ll.latency_threshold = 32;
    let (a_ll, _) = run(ProfilerConfig::new(pebs_ll));
    let lpi3 = a_ll.program().lpi_numa.unwrap();

    let rel = (lpi2 - lpi3).abs() / lpi2;
    assert!(
        rel < 0.30,
        "Eq. 3 ({lpi3:.3}) should approximate Eq. 2 ({lpi2:.3})"
    );
}

/// The E_NUMA hardware counter counts *all* eligible events, not just the
/// sampled ones.
#[test]
fn event_counter_exceeds_sample_count() {
    let mut cfg = MechanismConfig::for_tests(MechanismKind::PebsLl, 32);
    cfg.latency_threshold = 32;
    let (a, _) = run(ProfilerConfig::new(cfg));
    let events: u64 = a.profile().threads.iter().map(|t| t.numa_events).sum();
    let samples = a.totals().samples_mem;
    assert!(
        events > samples * 16,
        "E_NUMA {events} vs samples {samples}"
    );
}

/// Ground truth cross-check: the true remote DRAM latency per instruction
/// is computable analytically for this kernel; Eq. 2 must be in its
/// neighbourhood.
#[test]
fn eq2_tracks_ground_truth() {
    let cfg = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let (a, instructions) = run(cfg);
    let lpi = a.program().lpi_numa.unwrap();
    // Ground truth: remote sampled latency scaled by period over sampled
    // instructions approximates total remote latency over instructions.
    // Reconstruct total remote latency from the profile itself:
    let sampled_remote: u64 = a.totals().latency_remote;
    let sampled_instr: u64 = a.profile().total_instruction_samples();
    let scale = instructions as f64 / sampled_instr as f64;
    let reconstructed = sampled_remote as f64 * scale / instructions as f64;
    assert!(
        (lpi - reconstructed).abs() / lpi < 1e-9,
        "Eq. 2 is exactly the sampled ratio"
    );
    assert!(lpi > 1.0, "this kernel is severely remote-bound: {lpi}");
}
