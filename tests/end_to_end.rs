//! End-to-end integration: workload → engine → profiler → analyzer →
//! report, across all six sampling mechanisms.

use hpctoolkit_numa::analysis::{analyze, Analyzer};
use hpctoolkit_numa::machine::{Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::Program;
use std::rc::Rc;

const SIZE: u64 = 8 << 20;
const THREADS: usize = 8;

/// The canonical first-touch bottleneck, profiled with `kind`.
fn run(kind: MechanismKind, period: u64) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(kind, period));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine, THREADS, profiler.clone());
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("hot", SIZE, PlacementPolicy::FirstTouch);
        ctx.store_range(base, SIZE / 64, 64);
    });
    for _ in 0..2 {
        p.parallel("work._omp", |tid, ctx| {
            let chunk = SIZE / THREADS as u64;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
            ctx.compute(4000);
        });
    }
    finish_profile(p, profiler)
}

#[test]
fn every_mechanism_identifies_the_hot_variable() {
    // §8: "HPCToolkit-NUMA can provide similar analysis results using any
    // sampling method."
    for kind in MechanismKind::ALL {
        let profile = run(kind, 8);
        let a = Analyzer::new(profile);
        let hot = a.hot_variables();
        assert_eq!(hot.len(), 1, "{kind:?}");
        assert_eq!(hot[0].name, "hot", "{kind:?}");
        assert!(
            hot[0].metrics.m_remote > hot[0].metrics.m_local,
            "{kind:?}: M_r must dominate for remote-homed data"
        );
    }
}

#[test]
fn latency_capability_gates_lpi() {
    for kind in MechanismKind::ALL {
        let profile = run(kind, 16);
        let caps = profile.capabilities;
        let a = Analyzer::new(profile);
        let program = a.program();
        match kind {
            MechanismKind::Ibs | MechanismKind::PebsLl => {
                assert!(caps.latency);
                assert!(program.lpi_numa.is_some(), "{kind:?} computes lpi_NUMA");
            }
            _ => {
                assert!(!caps.latency);
                assert_eq!(program.lpi_numa, None, "{kind:?} has no latency");
            }
        }
    }
}

#[test]
fn reports_are_renderable_and_serializable_for_all_mechanisms() {
    for kind in MechanismKind::ALL {
        let profile = run(kind, 32);
        let a = Analyzer::new(profile);
        let report = analyze(&a);
        let text = report.render();
        assert!(text.contains("hot [heap]"), "{kind:?}: {text}");
        let json = report.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["advice"][0]["name"], "hot", "{kind:?}");
    }
}

#[test]
fn profile_json_roundtrip_preserves_analysis() {
    let profile = run(MechanismKind::Ibs, 16);
    let a1 = Analyzer::new(profile.clone());
    let file = numa_store::codec::encode_profile(&profile);
    let back = numa_store::codec::decode_profile(&file).unwrap();
    let a2 = Analyzer::new(back);
    assert_eq!(a1.totals().samples_mem, a2.totals().samples_mem);
    assert_eq!(a1.totals().m_remote, a2.totals().m_remote);
    assert_eq!(a1.program().remote_fraction, a2.program().remote_fraction);
}

#[test]
fn first_touch_pinpointing_works_under_every_mechanism() {
    // First-touch trapping is page-protection based (§6) and independent
    // of the sampling mechanism.
    for kind in MechanismKind::ALL {
        let profile = run(kind, 64);
        assert_eq!(profile.first_touches.len(), 1, "{kind:?}");
        let ft = &profile.first_touches[0];
        assert_eq!(ft.tid, 0);
    }
}

#[test]
fn instruction_counts_are_mechanism_independent() {
    // The monitored program does the same work regardless of who watches.
    let counts: Vec<u64> = MechanismKind::ALL
        .iter()
        .map(|&k| run(k, 16).total_instructions())
        .collect();
    for w in counts.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn master_initialized_data_is_hot_and_homed_only_in_domain_zero() {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::SoftIbs, 4));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, THREADS));
    let mut p = Program::new(machine, THREADS, profiler.clone());
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("hot", SIZE, PlacementPolicy::FirstTouch);
        ctx.store_range(base, SIZE / 64, 64);
    });
    p.parallel("work._omp", |tid, ctx| {
        let chunk = SIZE / THREADS as u64;
        ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
    });
    let profile = finish_profile(p, profiler);
    let a = Analyzer::new(profile);
    let hot = a.hot_variables();
    assert_eq!(hot[0].name, "hot");
    // Workers (threads outside domain 0) see all requests homed in
    // domain 0.
    assert!(a.totals().per_domain[0] > 0);
    assert_eq!(a.totals().per_domain[1..].iter().sum::<u64>(), 0);
}
