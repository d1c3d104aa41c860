//! Integration tests for the viewer extensions: the merged code-centric
//! CCT pane and trace-based (time-varying) measurements — the paper's
//! future-work items #3 and #4.

use hpctoolkit_numa::analysis::{render_cct, render_trace_timelines, Analyzer};
use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{finish_profile, NodeKey, NumaProfiler, ProfilerConfig};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::Program;
use std::rc::Rc;

const SIZE: u64 = 8 << 20;
const THREADS: usize = 8;

fn run(config: ProfilerConfig) -> Analyzer {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine, THREADS, profiler.clone());
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("data", SIZE, PlacementPolicy::FirstTouch);
        ctx.call("initialize", |ctx| {
            ctx.store_range(base, SIZE / 64, 64);
        });
    });
    p.parallel("solve._omp", |tid, ctx| {
        let chunk = SIZE / THREADS as u64;
        ctx.call("kernel", |ctx| {
            ctx.at_line(1502);
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
            ctx.at_line(0);
        });
    });
    Analyzer::new(finish_profile(p, profiler))
}

fn default_config() -> ProfilerConfig {
    ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8))
}

#[test]
fn merged_cct_accumulates_across_threads() {
    let a = run(default_config());
    let cct = a.merged_cct();
    // The merged tree contains the solve region once, with all workers'
    // samples accumulated under it.
    let total_merged: u64 = cct.nodes().iter().map(|n| n.metrics.samples_mem).sum();
    let total_threads: u64 = a
        .profile()
        .threads
        .iter()
        .map(|t| t.totals.samples_mem)
        .sum();
    assert_eq!(total_merged, total_threads, "no samples lost or duplicated");
}

#[test]
fn statement_level_attribution_survives_merging() {
    // The at_line(1502) marker must appear as a Line node carrying the
    // kernel's samples (HPCToolkit's statement scopes).
    let a = run(default_config());
    let cct = a.merged_cct();
    let line_samples: u64 = cct
        .nodes()
        .iter()
        .filter(|n| n.key == NodeKey::Line(1502))
        .map(|n| n.metrics.samples_mem)
        .sum();
    assert!(line_samples > 0, "line 1502 received samples");
}

#[test]
fn rendered_cct_shows_hot_path_with_shares() {
    let a = run(default_config());
    let text = render_cct(&a, 0.01);
    assert!(text.contains("<program>"), "{text}");
    assert!(text.contains("solve._omp"), "{text}");
    assert!(text.contains("kernel"), "{text}");
    assert!(text.contains("line 1502"), "{text}");
    assert!(
        text.contains("100.0%"),
        "root carries the whole program: {text}"
    );
}

#[test]
fn cct_view_elides_cold_subtrees() {
    let a = run(default_config());
    let verbose = render_cct(&a, 0.0);
    let pruned = render_cct(&a, 0.5);
    assert!(verbose.lines().count() > pruned.lines().count());
    // The serial initialization is local-only, so it disappears under a
    // remote-cost threshold.
    assert!(verbose.contains("initialize"));
    assert!(!pruned.contains("initialize"));
}

#[test]
fn traces_capture_phase_transition() {
    // With tracing on, worker threads' remote fraction is high during the
    // solve phase (all data homed in domain 0).
    let a = run(default_config().with_trace(5_000));
    let worker = &a.profile().threads[1];
    assert!(
        worker.trace.len() >= 2,
        "trace recorded points: {}",
        worker.trace.len()
    );
    let series = worker.trace.remote_fraction_series();
    let avg: f64 = series.iter().map(|(_, f)| f).sum::<f64>() / series.len() as f64;
    assert!(avg > 0.9, "worker 1 is remote almost always: {avg:.2}");
    let text = render_trace_timelines(&a, 32);
    assert!(text.contains("t1"), "{text}");
}

#[test]
fn tracing_disabled_by_default() {
    let a = run(default_config());
    assert!(a.profile().threads.iter().all(|t| t.trace.is_empty()));
    let text = render_trace_timelines(&a, 32);
    assert!(text.contains("no trace data"));
}

#[test]
fn traces_roundtrip_through_the_codec() {
    let a = run(default_config().with_trace(10_000));
    let file = numa_store::codec::encode_profile(a.profile());
    let back = numa_store::codec::decode_profile(&file).unwrap();
    assert_eq!(
        back.threads[1].trace.len(),
        a.profile().threads[1].trace.len()
    );
}
