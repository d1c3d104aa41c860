//! Every JSON output keeps its bytes. The tools print JSON in four
//! places — the analysis report (`hpcprof-sim --format json`, and the
//! store's `Query::ReportJson` behind `hpcd-client --cmd report --format
//! json`), the diff (`hpcdiff-sim --format json`), the address-view
//! export (`hpcviewer-sim --format json`) and `NumaProfile::to_json` —
//! and each one is pinned here by its FNV-1a hash and its length.
//!
//! The profiles are the ones `hpcrun-sim --size small` writes: the AMD
//! preset, every hardware thread, the mechanism's paper period divided
//! by `--scale` (64 unless stated). A mismatch prints the whole table of
//! what was produced, in the form of `PINNED`. Each output must also
//! parse and print again to its own bytes.

use numa_analysis::{analyze, diff, export_address_view, Analyzer};
use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig, RangeScope};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;
use numa_store::codec::encode_profile;
use numa_store::{fnv1a, ProfileStore, Query};
use numa_workloads::{
    run_profiled, Amg2006, AmgVariant, Blackscholes, BlackscholesVariant, Lulesh, LuleshVariant,
    Umt2013, UmtVariant, Workload,
};

/// `hpcrun-sim --workload W [--variant V] --size small --mechanism K
/// --scale S [--trace T]`, in process.
fn run(w: &dyn Workload, kind: MechanismKind, scale: u64, trace: Option<u64>) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let threads = machine.topology().total_cpus();
    let mut config = ProfilerConfig::new(MechanismConfig::scaled(kind, scale));
    if let Some(cycles) = trace {
        config = config.with_trace(cycles);
    }
    run_profiled(w, machine, threads, ExecMode::Sequential, config).2
}

/// A workload's name, its baseline and its optimized variant.
type Variants = (&'static str, Box<dyn Workload>, Box<dyn Workload>);

/// The four workloads at `--size small`.
fn workloads() -> Vec<Variants> {
    vec![
        (
            "lulesh",
            Box::new(Lulesh::new(20, 3, LuleshVariant::Baseline)),
            Box::new(Lulesh::new(20, 3, LuleshVariant::BlockWise)),
        ),
        (
            "amg2006",
            Box::new(Amg2006::new(32 * 1024, 2, AmgVariant::Baseline)),
            Box::new(Amg2006::new(32 * 1024, 2, AmgVariant::Guided)),
        ),
        (
            "blackscholes",
            Box::new(Blackscholes::new(256, 20, BlackscholesVariant::Baseline)),
            Box::new(Blackscholes::new(256, 20, BlackscholesVariant::Regrouped)),
        ),
        (
            "umt2013",
            Box::new(Umt2013::new(16, 64, 64, 2, UmtVariant::Baseline)),
            Box::new(Umt2013::new(16, 64, 64, 2, UmtVariant::ParallelFirstTouch)),
        ),
    ]
}

/// (output, FNV-1a of its bytes, its length in bytes).
const PINNED: &[(&str, u64, usize)] = &[
    ("lulesh.report", 0x1515e1de6fe7c78b, 9006),
    ("lulesh.diff", 0x598d89e49da1f310, 2885),
    ("lulesh.view", 0x79602dfc972e59ba, 3480),
    ("amg2006.report", 0xa37ac91800be6f82, 9983),
    ("amg2006.diff", 0xc1988a09e518222c, 2922),
    ("amg2006.view", 0xcaeb6e7fc16a8770, 6436),
    ("blackscholes.report", 0x624c0e2d6d898fed, 2907),
    ("blackscholes.diff", 0x4b6b95747bb1f6f0, 1648),
    ("blackscholes.view", 0x121d0ff448b6f0d0, 6539),
    ("umt2013.report", 0x656217ced4712d18, 5273),
    ("umt2013.diff", 0x71cbcb75366b1a67, 2156),
    ("umt2013.view", 0x72c353c5b24ca4fa, 4889),
    ("profile.Ibs", 0x415348937f03fb8c, 124607),
    ("profile.Mrk", 0xa45c78c08d5de5a3, 96953),
    ("profile.Pebs", 0x0cbb4defc86a15dc, 64439),
    ("profile.Dear", 0xeceeb88ac6dfd95f, 33175),
    ("profile.PebsLl", 0x7308bf2dde187a49, 33271),
    ("profile.SoftIbs", 0x06c6c8bdcbe80a8a, 33178),
    ("traced.profile", 0x4f18450fc517668d, 154391),
    ("traced.report", 0xd0260ad658fa770f, 8427),
];

/// Parsed and printed again, an output reproduces its own bytes — in
/// its own mode (the report, diff and view are pretty, the profile
/// compact), and after a trip through the other mode too.
fn assert_reprints(name: &str, json: &str) {
    let pretty = json.contains('\n');
    let print = |v: &serde_json::Value, pretty: bool| {
        if pretty {
            serde_json::to_string_pretty(v).unwrap()
        } else {
            serde_json::to_string(v).unwrap()
        }
    };
    let v = serde_json::from_str(json).unwrap();
    assert!(print(&v, pretty) == json, "{name} does not reprint");
    let other = serde_json::from_str(&print(&v, !pretty)).unwrap();
    assert!(
        print(&other, pretty) == json,
        "{name} does not survive the other mode"
    );
}

/// Compare each produced output with its pin; report every mismatch.
fn check(got: &[(String, String)]) {
    for (name, json) in got {
        assert_reprints(name, json);
    }
    let rows: Vec<(&str, u64, usize)> = got
        .iter()
        .map(|(name, json)| (name.as_str(), fnv1a(json.as_bytes()), json.len()))
        .collect();
    let wrong: Vec<&str> = rows
        .iter()
        .filter(|row| !PINNED.contains(row))
        .map(|row| row.0)
        .collect();
    let table: String = rows
        .iter()
        .map(|(name, hash, len)| format!("    ({name:?}, {hash:#018x}, {len}),\n"))
        .collect();
    assert!(wrong.is_empty(), "changed: {wrong:?}\nproduced:\n{table}");
}

#[test]
fn report_diff_view_and_store_json_keep_their_bytes() {
    let mut got = Vec::new();
    for (name, base, opt) in workloads() {
        let base = run(base.as_ref(), MechanismKind::Ibs, 64, None);
        let opt = run(opt.as_ref(), MechanismKind::Ibs, 64, None);
        let bytes = encode_profile(&base);
        let (base, opt) = (Analyzer::new(base), Analyzer::new(opt));

        let report = analyze(&base).to_json();
        let store = ProfileStore::new();
        let (id, _) = store.ingest_binary(name, &bytes).unwrap();
        let served = store.query(Query::ReportJson(id)).unwrap().text();
        assert_eq!(served, report, "{name}: the store serves the report");

        let top = base.hot_variables()[0].var;
        got.push((format!("{name}.report"), report));
        got.push((format!("{name}.diff"), diff(&base, &opt).to_json()));
        got.push((
            format!("{name}.view"),
            export_address_view(&base, top, RangeScope::Program),
        ));
    }
    check(&got);
}

#[test]
fn profile_json_keeps_its_bytes_for_every_mechanism() {
    let w = Blackscholes::new(256, 20, BlackscholesVariant::Baseline);
    let got: Vec<(String, String)> = MechanismKind::ALL
        .into_iter()
        .map(|kind| {
            (
                format!("profile.{kind:?}"),
                run(&w, kind, 8, None).to_json(),
            )
        })
        .collect();
    check(&got);
}

#[test]
fn a_traced_run_keeps_its_bytes() {
    // `--mechanism ibs --scale 8 --trace 100000`: trace points and
    // first-touch records are non-empty.
    let w = Lulesh::new(20, 3, LuleshVariant::Baseline);
    let profile = run(&w, MechanismKind::Ibs, 8, Some(100_000));
    assert!(profile.threads.iter().any(|t| !t.trace.points().is_empty()));
    assert!(!profile.first_touches.is_empty());
    let profile_json = profile.to_json();
    let report = analyze(&Analyzer::new(profile)).to_json();
    check(&[
        ("traced.profile".to_string(), profile_json),
        ("traced.report".to_string(), report),
    ]);
}
