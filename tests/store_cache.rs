//! End-to-end contract of the multi-profile store: batched ingestion
//! dedups by content, pooled queries see every run, and the memo
//! cache's hit/miss/eviction counters track exactly what was computed.

use numa_machine::{Machine, MachinePreset};
use numa_profiler::{NumaProfile, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::ExecMode;
use numa_store::{ProfileStore, Query};
use numa_workloads::{run_profiled, Blackscholes, BlackscholesVariant};

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
