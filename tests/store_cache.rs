//! End-to-end contract of the multi-profile store: batched ingestion
//! dedups by content, pooled queries see every run, the memo cache's
//! hit/miss/eviction counters track exactly what was computed, and the
//! report each stored profile keeps answers as a fresh analysis does.

use numa_analysis::{analyze, full_text_report, Analyzer};
use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;
use numa_store::{ProfileId, ProfileStore, Query};
use numa_workloads::{
    run_profiled, Amg2006, AmgVariant, Blackscholes, BlackscholesVariant, Lulesh, LuleshVariant,
    Umt2013, UmtVariant, Workload,
};
use std::sync::Arc;

/// One small profiled run; the option count varies content across runs.
fn run(options: u64) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let w = Blackscholes::new(options, 4, BlackscholesVariant::Baseline);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 16));
    let (_, _, profile) = run_profiled(&w, machine, 8, ExecMode::Sequential, config);
    profile
}

fn corpus(n: usize) -> Vec<(String, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let bytes = numa_store::codec::encode_profile(&run(64 + 16 * i as u64));
            (format!("run-{i}"), bytes)
        })
        .collect()
}

#[test]
fn batched_ingestion_dedups_and_pools() {
    let store = ProfileStore::new();
    let inputs = corpus(4);
    let report = store.ingest_batch(&inputs);
    assert_eq!(report.added.len(), 4);
    assert_eq!(report.deduplicated, 0);
    assert!(report.rejected.is_empty());

    // Re-ingesting the same corpus adds nothing.
    let again = store.ingest_batch(&inputs);
    assert!(again.added.is_empty());
    assert_eq!(again.deduplicated, 4);
    assert_eq!(store.len(), 4);

    let artifact = store.aggregate().expect("aggregate over 4 runs");
    let agg = artifact.as_aggregate().unwrap();
    assert_eq!(agg.runs, 4);
    assert!(agg.vars.iter().any(|v| v.runs_seen == 4));
}

#[test]
fn cache_counters_track_cold_and_warm_queries() {
    let store = ProfileStore::new();
    for (label, bytes) in corpus(2) {
        store.ingest_binary(&label, &bytes).unwrap();
    }
    let ids = store.ids();

    // Cold: every distinct query is a miss + insertion.
    store.query(Query::TextReport(ids[0])).unwrap();
    store.query(Query::TextReport(ids[1])).unwrap();
    store.query(Query::Aggregate).unwrap();
    let s = store.cache_stats();
    assert_eq!(s.hits, 0, "cold pass must not hit: {s:?}");
    assert_eq!(s.misses, 3);
    assert_eq!(s.insertions, 3);

    // Warm: the same queries are pure hits — no recomputation.
    store.query(Query::TextReport(ids[0])).unwrap();
    store.query(Query::TextReport(ids[1])).unwrap();
    store.query(Query::Aggregate).unwrap();
    let s = store.cache_stats();
    assert_eq!(s.hits, 3, "warm pass must hit: {s:?}");
    assert_eq!(s.misses, 3, "warm pass must not miss: {s:?}");
    assert_eq!(s.insertions, 3);
}

#[test]
fn tiny_cache_evicts_under_pressure() {
    let store = ProfileStore::with_cache_capacity(1);
    for (label, bytes) in corpus(2) {
        store.ingest_binary(&label, &bytes).unwrap();
    }
    let ids = store.ids();
    // Far more distinct queries than the cache can hold.
    for n in 1..=8 {
        store.query(Query::TopVariables(n)).unwrap();
        for &id in &ids {
            store
                .query(Query::CodeView {
                    profile: id,
                    min_share_permille: n as u16,
                })
                .unwrap();
        }
    }
    let s = store.cache_stats();
    assert!(s.evictions > 0, "expected evictions: {s:?}");
    // Nothing was cleared, so what is resident is what was inserted
    // and not evicted.
    assert!(s.insertions - s.evictions <= 8, "cache kept growing: {s:?}");
}

/// The four mini-apps as `hpcrun-sim --workload W --size small` runs
/// them: the AMD preset, every hardware thread, IBS at scale 64.
fn mini_apps() -> Vec<(&'static str, NumaProfile)> {
    let apps: [(&str, Box<dyn Workload>); 4] = [
        (
            "lulesh",
            Box::new(Lulesh::new(20, 3, LuleshVariant::Baseline)),
        ),
        (
            "amg2006",
            Box::new(Amg2006::new(32 * 1024, 2, AmgVariant::Baseline)),
        ),
        (
            "blackscholes",
            Box::new(Blackscholes::new(256, 20, BlackscholesVariant::Baseline)),
        ),
        (
            "umt2013",
            Box::new(Umt2013::new(16, 64, 64, 2, UmtVariant::Baseline)),
        ),
    ];
    apps.into_iter()
        .map(|(name, w)| {
            let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
            let threads = machine.topology().total_cpus();
            let config = ProfilerConfig::new(MechanismConfig::scaled(MechanismKind::Ibs, 64));
            let (_, _, profile) =
                run_profiled(w.as_ref(), machine, threads, ExecMode::Sequential, config);
            (name, profile)
        })
        .collect()
}

/// The text and JSON reports of a fresh analysis of `p`.
fn recomputed(p: &NumaProfile) -> (String, String) {
    let a = Analyzer::new(p.clone());
    (full_text_report(&a), analyze(&a).to_json())
}

/// The store's answers to the two report queries about `id`.
fn served(store: &ProfileStore, id: ProfileId) -> (String, String) {
    let text = store.query(Query::TextReport(id)).unwrap().text();
    let json = store.query(Query::ReportJson(id)).unwrap().text();
    (text, json)
}

/// Ingest the mini-apps; their ids beside what a fresh analysis prints.
fn stored_mini_apps(store: &ProfileStore) -> Vec<(&'static str, ProfileId, (String, String))> {
    mini_apps()
        .into_iter()
        .map(|(name, p)| {
            let want = recomputed(&p);
            let (id, added) = store.ingest_profile(name, p).unwrap();
            assert!(added);
            (name, id, want)
        })
        .collect()
}

#[test]
fn report_memo_answers_as_a_fresh_analysis() {
    let store = ProfileStore::new();
    let apps = stored_mini_apps(&store);
    for pass in ["first query", "after clear_cache"] {
        for (name, id, want) in &apps {
            assert!(served(&store, *id) == *want, "{name}: {pass}");
        }
        store.clear_cache();
    }
    // One report per stored profile, shared by every rendering.
    for (name, id, _) in &apps {
        let sp = store.get(*id).unwrap();
        assert!(Arc::ptr_eq(&sp.report(), &sp.report()), "{name}");
    }
}

#[test]
fn racing_first_report_queries_answer_as_a_fresh_analysis() {
    let store = ProfileStore::new();
    let apps = stored_mini_apps(&store);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (store, apps) = (&store, &apps);
            s.spawn(move || {
                // Each thread starts at a different profile, so first
                // queries of both kinds race on every one of them.
                for k in 0..apps.len() {
                    let (name, id, want) = &apps[(t + k) % apps.len()];
                    assert!(served(store, *id) == *want, "{name}: thread {t}");
                }
            });
        }
    });
}
