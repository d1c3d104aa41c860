//! Integration tests: ingestion, dedup, cross-run merging, and the memo
//! cache contract.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use numa_store::codec::encode_profile;
use numa_store::{ProfileStore, Query, StoreError};
use std::rc::Rc;
use std::sync::Arc;

/// A small deterministic profile; `rounds` varies the content (and thus
/// the content hash) between "runs".
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 8));
    let mut p = Program::new(machine, 8, profiler.clone());
    let size = 1u64 << 20;
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("z", size, PlacementPolicy::FirstTouch);
        ctx.store_range(base, size / 64, 64);
    });
    for _ in 0..rounds {
        p.parallel("compute._omp", |tid, ctx| {
            let chunk = size / 8;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
    }
    finish_profile(p, profiler)
}

#[test]
fn ingest_dedups_by_content() {
    let store = ProfileStore::new();
    let p = profile(2);
    let (id1, added1) = store.ingest_profile("run-a", p.clone()).unwrap();
    let (id2, added2) = store.ingest_profile("run-a-again", p).unwrap();
    assert!(added1);
    assert!(!added2, "identical content must dedup");
    assert_eq!(id1, id2);
    assert_eq!(store.len(), 1);
    assert_eq!(store.stats().deduplicated, 1);
}

#[test]
fn batch_ingest_reports_rejects_without_aborting() {
    let store = ProfileStore::new();
    let inputs = vec![
        ("good-1".to_string(), encode_profile(&profile(1))),
        ("bad".to_string(), b"NPCB\0\x01".to_vec()),
        ("good-2".to_string(), encode_profile(&profile(2))),
    ];
    let report = store.ingest_batch(&inputs);
    assert_eq!(report.added.len(), 2);
    assert_eq!(report.rejected.len(), 1);
    assert_eq!(report.rejected[0].0, "bad");
    assert_eq!(store.len(), 2);
    assert_eq!(store.stats().parse_failures, 1);
}

#[test]
fn set_hash_ignores_ingestion_order() {
    let a = encode_profile(&profile(1));
    let b = encode_profile(&profile(2));
    let s1 = ProfileStore::new();
    s1.ingest_batch(&[("a".into(), a.clone()), ("b".into(), b.clone())]);
    let s2 = ProfileStore::new();
    s2.ingest_batch(&[("b".into(), b), ("a".into(), a)]);
    assert_eq!(s1.set_hash(), s2.set_hash());
}

#[test]
fn aggregate_pools_metrics_across_runs() {
    let store = ProfileStore::new();
    let p1 = profile(1);
    let p2 = profile(3);
    let expected_remote: u64 = [&p1, &p2]
        .iter()
        .flat_map(|p| p.threads.iter())
        .map(|t| t.totals.m_remote)
        .sum();
    store.ingest_profile("r1", p1).unwrap();
    store.ingest_profile("r2", p2).unwrap();
    let artifact = store.aggregate().unwrap();
    let agg = artifact.as_aggregate().unwrap();
    assert_eq!(agg.runs, 2);
    assert_eq!(agg.totals.m_remote, expected_remote);
    // Both runs sampled the same variable name.
    let z = agg.vars.iter().find(|v| v.name == "z").unwrap();
    assert_eq!(z.runs_seen, 2);
    // The 8 threads sweep the whole variable, so pooled normalized
    // coverage spans ~[0, 1].
    let (lo, hi) = z.coverage.unwrap();
    assert!(lo < 0.05, "coverage starts at {lo}");
    assert!(hi > 0.9, "coverage ends at {hi}");
    // Pooled lpi is defined: IBS captures latency.
    assert!(agg.lpi_numa.is_some());
}

#[test]
fn aggregate_render_lists_variables() {
    let store = ProfileStore::new();
    store.ingest_profile("r1", profile(2)).unwrap();
    let text = store.aggregate().unwrap().text();
    assert!(text.contains("cross-run aggregate"));
    assert!(text.contains('z'));
}

#[test]
fn queries_memoize_and_count() {
    let store = ProfileStore::new();
    let (id, _) = store.ingest_profile("r1", profile(2)).unwrap();

    let cold = store.query(Query::TextReport(id)).unwrap();
    let s = store.cache_stats();
    assert_eq!((s.hits, s.misses, s.insertions), (0, 1, 1));

    let warm = store.query(Query::TextReport(id)).unwrap();
    let s = store.cache_stats();
    assert_eq!((s.hits, s.misses), (1, 1));
    assert!(
        Arc::ptr_eq(&cold, &warm),
        "warm hit must share the artifact"
    );
}

#[test]
fn ingestion_invalidates_pooled_queries() {
    let store = ProfileStore::new();
    store.ingest_profile("r1", profile(1)).unwrap();
    let before = store.aggregate().unwrap();
    assert_eq!(before.as_aggregate().unwrap().runs, 1);
    store.ingest_profile("r2", profile(2)).unwrap();
    // New set hash → new scope → miss, not a stale hit.
    let after = store.aggregate().unwrap();
    assert_eq!(after.as_aggregate().unwrap().runs, 2);
    let s = store.cache_stats();
    assert_eq!(s.hits, 0);
    assert_eq!(s.misses, 2);
}

#[test]
fn pooled_lookups_count_one_outcome_each() {
    // A pooled query probes under the live set hash and only a miss
    // goes on to snapshot and insert; whichever way it ends, it is one
    // hit or one miss — never a miss for the probe plus one for the
    // insert, never a silent hit.
    let store = ProfileStore::new();
    store.ingest_profile("r1", profile(1)).unwrap();
    let first = store.aggregate().unwrap(); // miss
    let again = store.aggregate().unwrap(); // hit
    assert!(Arc::ptr_eq(&first, &again));
    store.ingest_profile("r2", profile(2)).unwrap();
    let grown = store.aggregate().unwrap(); // miss: the set changed
    assert_eq!(grown.as_aggregate().unwrap().runs, 2);
    let top = store.query(Query::TopVariables(3)).unwrap(); // miss
    let top_again = store.query(Query::TopVariables(3)).unwrap(); // hit
    assert!(Arc::ptr_eq(&top, &top_again));
    let s = store.cache_stats();
    assert_eq!((s.hits, s.misses, s.insertions), (2, 3, 3));
}

#[test]
fn unknown_references_error_cleanly() {
    let store = ProfileStore::new();
    assert_eq!(store.aggregate().unwrap_err(), StoreError::EmptyStore);
    let (id, _) = store.ingest_profile("r1", profile(1)).unwrap();
    let bogus = numa_store::ProfileId(id.0 ^ 1);
    assert_eq!(
        store.query(Query::TextReport(bogus)).unwrap_err(),
        StoreError::UnknownProfile(bogus)
    );
    let missing_var = store.query(Query::AddressView {
        profile: id,
        var: "no_such_var".into(),
    });
    assert_eq!(
        missing_var.unwrap_err(),
        StoreError::UnknownVariable("no_such_var".into())
    );
}

#[test]
fn address_view_and_diff_render() {
    let store = ProfileStore::new();
    let (a, _) = store.ingest_profile("r1", profile(1)).unwrap();
    let (b, _) = store.ingest_profile("r2", profile(3)).unwrap();
    let view = store
        .query(Query::AddressView {
            profile: a,
            var: "z".into(),
        })
        .unwrap();
    assert!(view.text().contains("\"variable\": \"z\""));
    let diff = store
        .query(Query::Diff {
            before: a,
            after: b,
        })
        .unwrap();
    assert!(!diff.text().is_empty());
    let code = store
        .query(Query::CodeView {
            profile: a,
            min_share_permille: 10,
        })
        .unwrap();
    assert!(code.text().contains("calling context"));
}

/// Every directory entry is read as a profile file, whatever its name:
/// a container is added, a JSON file is a typed parse rejection under
/// its own name (never transcoded), and a subdirectory is an I/O error.
#[test]
fn ingest_dir_loads_profile_files() {
    let dir = std::env::temp_dir().join(format!("numa-store-test-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("nested")).unwrap();
    std::fs::write(dir.join("a.hpcrun"), encode_profile(&profile(1))).unwrap();
    std::fs::write(dir.join("old.json"), r#"{"mechanism":"Ibs","domains":8}"#).unwrap();
    let store = Arc::new(ProfileStore::new());
    let registry = numa_obs::Registry::new();
    store.register_metrics(&registry);
    let report = store.ingest_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.added.len(), 1, "{report:?}");
    assert!(matches!(
        report.rejected.as_slice(),
        [(name, StoreError::Parse { label, message })]
            if name == "old.json" && label == "old.json" && message.contains("bad magic")
    ));
    assert_eq!(report.io_errors.len(), 1, "{report:?}");
    assert!(report.io_errors[0].0.contains("nested"));
    assert_eq!(store.len(), 1);
    assert!(store.resolve("a.hpcrun").is_ok());
    assert!(registry
        .render()
        .lines()
        .any(|l| l == "numa_store_parse_failures_total 1"));
}

#[test]
fn resolve_accepts_id_prefix_and_label() {
    let store = ProfileStore::new();
    let (id, _) = store.ingest_profile("baseline", profile(1)).unwrap();
    assert_eq!(store.resolve("baseline").unwrap().id, id);
    assert_eq!(store.resolve(&id.to_string()[..8]).unwrap().id, id);
    assert!(matches!(store.resolve("nope"), Err(StoreError::NoMatch(n)) if n == "nope"));
}

#[test]
fn resolve_reports_ambiguity_with_candidates() {
    let store = ProfileStore::new();
    // Same label on two distinct profiles: resolving by label is ambiguous.
    let (a, _) = store.ingest_profile("run", profile(1)).unwrap();
    let (b, _) = store.ingest_profile("run", profile(2)).unwrap();
    match store.resolve("run") {
        Err(StoreError::Ambiguous { needle, candidates }) => {
            assert_eq!(needle, "run");
            let ids: Vec<_> = candidates.iter().map(|(id, _)| *id).collect();
            assert!(ids.contains(&a) && ids.contains(&b));
            assert!(candidates.iter().all(|(_, label)| label == "run"));
        }
        Err(other) => panic!("expected Ambiguous, got {other:?}"),
        Ok(sp) => panic!("expected Ambiguous, resolved to {}", sp.id),
    }
    // A full 16-hex id always short-circuits the ambiguity.
    assert_eq!(store.resolve(&a.to_string()).unwrap().id, a);
    assert_eq!(store.resolve(&b.to_string()).unwrap().id, b);
}

#[test]
fn ingest_dir_records_unreadable_entries() {
    let dir = std::env::temp_dir().join(format!("numa-store-ioerr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("good.hpcrun"), encode_profile(&profile(1))).unwrap();
    // A *directory* named like a profile triggers a read error on every
    // platform (even running as root, where permission bits are ignored).
    std::fs::create_dir_all(dir.join("bad.hpcrun")).unwrap();
    let store = ProfileStore::new();
    let report = store.ingest_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.added.len(), 1);
    assert_eq!(report.io_errors.len(), 1);
    assert!(report.io_errors[0].0.contains("bad.hpcrun"));
    assert_eq!(store.len(), 1);
}
