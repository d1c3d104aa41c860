//! Profile file round-trips: `decode(encode(p))` — what reading back a
//! file `hpcrun-sim --out` wrote does — must preserve every
//! analysis-relevant field — metric totals, per-variable metrics,
//! address ranges, and CCT paths — and a corrupted file must fail with
//! an error, never a panic.

use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;
use numa_store::codec::{decode_profile, encode_profile};
use numa_workloads::{run_profiled, Blackscholes, BlackscholesVariant, Lulesh, LuleshVariant};

fn profile(mechanism: MechanismKind) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let w = Blackscholes::new(128, 4, BlackscholesVariant::Baseline);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(mechanism, 16));
    let (_, _, p) = run_profiled(&w, machine, 8, ExecMode::Sequential, config);
    p
}

#[test]
fn a_profiled_run_is_a_pure_function_of_its_inputs() {
    // Every sampling counter is seeded by its thread and slot, not by how
    // many counters the process built before it: a second run in the
    // same process writes the same bytes as the first.
    for mechanism in MechanismKind::ALL {
        let first = encode_profile(&profile(mechanism));
        let second = encode_profile(&profile(mechanism));
        assert!(first == second, "{mechanism:?}: the rerun differs");
    }
}

#[test]
fn round_trip_is_byte_identical() {
    for mechanism in [
        MechanismKind::Ibs,
        MechanismKind::Mrk,
        MechanismKind::PebsLl,
    ] {
        let p = profile(mechanism);
        let bytes = encode_profile(&p);
        let q = decode_profile(&bytes).expect("round-trip decodes");
        assert!(
            encode_profile(&q) == bytes,
            "canonical encoding must be stable under a round-trip ({mechanism:?})"
        );
    }
}

#[test]
fn round_trip_preserves_analysis_inputs() {
    let p = profile(MechanismKind::Ibs);
    let q = decode_profile(&encode_profile(&p)).unwrap();

    // Metric totals.
    assert_eq!(q.threads.len(), p.threads.len());
    for (a, b) in p.threads.iter().zip(&q.threads) {
        assert_eq!(a.totals.m_local, b.totals.m_local);
        assert_eq!(a.totals.m_remote, b.totals.m_remote);
        assert_eq!(a.totals.latency_total, b.totals.latency_total);
        assert_eq!(a.totals.latency_samples, b.totals.latency_samples);
        assert_eq!(a.totals.per_domain, b.totals.per_domain);
        // Per-variable metrics.
        assert_eq!(a.var_metrics.len(), b.var_metrics.len());
        for ((va, ma), (vb, mb)) in a.var_metrics.iter().zip(&b.var_metrics) {
            assert_eq!(va, vb);
            assert_eq!(ma.m_remote, mb.m_remote);
            assert_eq!(ma.latency_remote, mb.latency_remote);
        }
        // Address ranges ([min,max] per variable/bin/scope).
        assert_eq!(a.ranges.len(), b.ranges.len());
        for ((ka, sa), (kb, sb)) in a.ranges.iter().zip(&b.ranges) {
            assert_eq!(ka, kb);
            assert_eq!(
                (sa.min_addr, sa.max_addr, sa.count),
                (sb.min_addr, sb.max_addr, sb.count)
            );
        }
    }

    // Variable table and first touches.
    assert_eq!(q.vars.len(), p.vars.len());
    for (a, b) in p.vars.iter().zip(&q.vars) {
        assert_eq!(
            (a.id, &a.name, a.addr, a.bytes),
            (b.id, &b.name, b.addr, b.bytes)
        );
    }
    assert_eq!(q.first_touches.len(), p.first_touches.len());

    // CCT paths resolve identically (the index is rebuilt on load).
    for (a, b) in p.threads.iter().zip(&q.threads) {
        assert_eq!(a.cct.len(), b.cct.len());
        for id in 0..a.cct.len() as u32 {
            assert_eq!(a.cct.path_to(id), b.cct.path_to(id));
            assert_eq!(a.cct.node(id).key, b.cct.node(id).key);
        }
    }
}

#[test]
fn round_trip_survives_the_analyzer() {
    // A profile that went to disk and back must analyze identically.
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let w = Lulesh::new(10, 2, LuleshVariant::Baseline);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16));
    let (_, _, p) = run_profiled(&w, machine, 8, ExecMode::Sequential, config);
    let q = decode_profile(&encode_profile(&p)).unwrap();
    let ra = numa_analysis::analyze(&numa_analysis::Analyzer::new(p)).to_json();
    let rb = numa_analysis::analyze(&numa_analysis::Analyzer::new(q)).to_json();
    assert_eq!(ra, rb);
}

#[test]
fn corrupted_input_errors_instead_of_panicking() {
    let good = encode_profile(&profile(MechanismKind::Ibs));
    let mut bad_magic = good.clone();
    bad_magic[0] = b'{';
    let mut bad_version = good.clone();
    bad_version[5] = 0xEE;
    let cases: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"not a profile at all".to_vec(),
        br#"{"mechanism":"Ibs"}"#.to_vec(),
        good[..good.len() / 2].to_vec(),
        good[..good.len() - 1].to_vec(),
        bad_magic,
        bad_version,
    ];
    for (i, bad) in cases.iter().enumerate() {
        assert!(
            decode_profile(bad).is_err(),
            "corrupted case #{i} unexpectedly decoded"
        );
    }
}
