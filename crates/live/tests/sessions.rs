//! Session lifecycle: streamed ingestion must land byte-identically
//! with one-shot ingestion, every rejection must be typed, the janitor
//! must reap expired leases, and on a durable store JSON chunks are
//! staged in the binary form and recover after a kill.

use numa_faults::{FaultSpec, FaultyStorage, Storage};
use numa_live::{LiveConfig, SessionError, SessionManager};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::{ExecMode, Program};
use numa_store::stream::split_profile;
use numa_store::wal::{scan_file, wal_path, ChunkData, WalEntry, WAL_MAGIC};
use numa_store::{PersistOptions, ProfileStore, StoreConfig};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A small profile; `rounds` varies the content hash. Sampling is
/// interval-randomized, so tests that need the same profile twice must
/// serialize once and reuse the JSON (see [`corpus`]).
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Arc::new(NumaProfiler::new(machine.clone(), config, 4));
    let mut p = Program::new(machine, 4, ExecMode::Sequential, profiler.clone());
    let size = 1u64 << 18;
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("z", size, PlacementPolicy::FirstTouch);
        ctx.store_range(base, size / 64, 64);
    });
    for _ in 0..rounds {
        p.parallel("compute._omp", |tid, ctx| {
            let chunk = size / 4;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
    }
    finish_profile(p, profiler)
}

fn corpus() -> &'static [String; 2] {
    static CORPUS: OnceLock<[String; 2]> = OnceLock::new();
    CORPUS.get_or_init(|| [profile(1).to_json(), profile(2).to_json()])
}

/// Streams `json` through `mgr` in chunks of `per` threads and returns
/// the seal result.
fn stream(mgr: &SessionManager, label: &str, json: &str, per: usize) -> numa_live::Sealed {
    let parsed = NumaProfile::from_json(json).expect("corpus profile parses");
    let ticket = mgr.open(label).expect("open session");
    for (seq, chunk) in split_profile(&parsed, per).iter().enumerate() {
        mgr.append(ticket.session, seq as u64, &chunk.to_json())
            .expect("append chunk");
    }
    mgr.seal(ticket.session).expect("seal session")
}

#[test]
fn streamed_session_matches_oneshot_ingest() {
    let oracle = ProfileStore::new();
    let (oracle_id, _) = oracle.ingest_bytes("run", &corpus()[0]).unwrap();

    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let sealed = stream(&mgr, "run", &corpus()[0], 2);

    assert!(sealed.added);
    assert_eq!(sealed.id, oracle_id, "content hash differs from one-shot");
    assert_eq!(store.set_hash(), oracle.set_hash(), "set hash differs");
    assert_eq!(
        store.aggregate().unwrap().text(),
        oracle.aggregate().unwrap().text(),
        "aggregate text differs"
    );

    let stats = mgr.stats();
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.sealed, 1);
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.open_bytes, 0);
    assert!(stats.chunks_appended >= 2);
    mgr.stop();
}

#[test]
fn resealing_the_same_content_deduplicates() {
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let first = stream(&mgr, "a", &corpus()[0], 1);
    let second = stream(&mgr, "b", &corpus()[0], 3);
    assert!(first.added);
    assert!(!second.added, "same content must deduplicate");
    assert_eq!(first.id, second.id);
    assert_eq!(store.len(), 1);
    mgr.stop();
}

#[test]
fn violations_are_typed() {
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(
        Arc::clone(&store),
        LiveConfig {
            max_chunk_bytes: 64,
            max_session_bytes: 100,
            max_open_bytes: 120,
            ..LiveConfig::default()
        },
    );

    // Unknown session id.
    let err = mgr.append(0xdead, 0, "{}").unwrap_err();
    assert_eq!(err, SessionError::UnknownSession { session: 0xdead });
    assert!(!err.is_backpressure());

    let t = mgr.open("run").unwrap();
    assert_eq!(t.max_chunk_bytes, 64);
    assert_eq!(t.max_session_bytes, 100);

    // Out-of-order sequence number.
    let err = mgr.append(t.session, 1, r#"{"Threads":[]}"#).unwrap_err();
    assert_eq!(
        err,
        SessionError::BadSequence {
            session: t.session,
            got: 1,
            expected: 0
        }
    );

    // Oversized chunk.
    let big = format!(r#"{{"Threads":[{}]}}"#, " ".repeat(80));
    let err = mgr.append(t.session, 0, &big).unwrap_err();
    assert_eq!(
        err,
        SessionError::ChunkTooLarge {
            session: t.session,
            len: big.len(),
            max: 64
        }
    );

    // Malformed chunk payload.
    let err = mgr.append(t.session, 0, "not json").unwrap_err();
    assert!(matches!(err, SessionError::ChunkParse { seq: 0, .. }));

    // Per-session buffer limit: each empty-thread chunk is 14 bytes.
    let chunk = r#"{"Threads":[]}"#;
    for seq in 0..7 {
        mgr.append(t.session, seq, chunk).unwrap();
    }
    let err = mgr.append(t.session, 7, chunk).unwrap_err();
    assert_eq!(
        err,
        SessionError::SessionFull {
            session: t.session,
            bytes: 8 * chunk.len(),
            max: 100
        }
    );
    assert!(err.is_backpressure());

    // Daemon-wide open-bytes budget: 98 bytes are already buffered, so
    // a second session's second chunk crosses the 120-byte budget.
    let t2 = mgr.open("other").unwrap();
    mgr.append(t2.session, 0, chunk).unwrap();
    let err = mgr.append(t2.session, 1, chunk).unwrap_err();
    assert_eq!(
        err,
        SessionError::Backpressure {
            open_bytes: 9 * chunk.len(),
            max: 120
        }
    );
    assert!(err.is_backpressure());
    assert_eq!(mgr.stats().backpressure_rejections, 2);

    // A seal over a header-less chunk set is typed and discards the
    // session.
    let err = mgr.seal(t.session).unwrap_err();
    assert!(matches!(err, SessionError::Incomplete { .. }));
    let err = mgr.append(t.session, 7, chunk).unwrap_err();
    assert_eq!(err, SessionError::UnknownSession { session: t.session });
    assert_eq!(store.len(), 0, "failed seal must not half-ingest");
    mgr.stop();
}

#[test]
fn abort_discards_the_session() {
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let t = mgr.open("run").unwrap();
    mgr.append(t.session, 0, r#"{"Threads":[]}"#).unwrap();
    mgr.abort(t.session).unwrap();
    assert_eq!(
        mgr.abort(t.session).unwrap_err(),
        SessionError::UnknownSession { session: t.session }
    );
    let stats = mgr.stats();
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.open_bytes, 0);
    assert_eq!(store.len(), 0);
    mgr.stop();
}

#[test]
fn expired_leases_are_reaped_by_the_janitor() {
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(
        Arc::clone(&store),
        LiveConfig {
            lease: Duration::from_millis(100),
            janitor_period: Duration::from_millis(20),
            ..LiveConfig::default()
        },
    );
    let t = mgr.open("run").unwrap();
    mgr.append(t.session, 0, r#"{"Threads":[]}"#).unwrap();

    // Wait (generously) for the lease to lapse and the janitor to run.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while mgr.stats().reaped == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = mgr.stats();
    assert_eq!(stats.reaped, 1, "janitor never reaped the idle session");
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.open_bytes, 0);
    assert_eq!(
        mgr.append(t.session, 1, r#"{"Threads":[]}"#).unwrap_err(),
        SessionError::UnknownSession { session: t.session }
    );
    assert_eq!(store.len(), 0, "reaped session must not half-ingest");
    mgr.stop();
}

#[test]
fn appends_renew_the_lease() {
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(
        Arc::clone(&store),
        LiveConfig {
            lease: Duration::from_millis(400),
            janitor_period: Duration::from_millis(20),
            ..LiveConfig::default()
        },
    );
    let parsed = NumaProfile::from_json(&corpus()[1]).unwrap();
    let chunks = split_profile(&parsed, 1);
    let t = mgr.open("slow").unwrap();
    // Each gap is well under the lease, but the whole stream takes
    // longer than one lease: the session must survive because appends
    // renew the deadline.
    for (seq, chunk) in chunks.iter().enumerate() {
        std::thread::sleep(Duration::from_millis(120));
        mgr.append(t.session, seq as u64, &chunk.to_json())
            .expect("renewed lease must keep the session alive");
    }
    let sealed = mgr.seal(t.session).unwrap();
    assert!(sealed.added);
    assert_eq!(mgr.stats().reaped, 0);
    mgr.stop();
}

/// JSON chunks appended to a durable store are transcoded once, in the
/// live layer: the WAL holds only binary (kind-4) chunk records, and a
/// daemon killed right after the seal's ack recovers the session whole.
#[test]
fn json_appends_stage_binary_chunks_and_recover_after_a_kill() {
    let dir = std::env::temp_dir().join(format!("numa-live-json-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let storage = Arc::new(FaultyStorage::new(FaultSpec::default()));
    let store = Arc::new(
        ProfileStore::open_durable_config_with(
            &dir,
            StoreConfig::default(),
            PersistOptions::default(),
            Arc::clone(&storage) as Arc<dyn Storage>,
        )
        .unwrap(),
    );
    let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let sealed = stream(&mgr, "json-streamed", &corpus()[0], 2);
    assert!(sealed.added);
    storage.kill();
    mgr.stop();
    drop(mgr);
    drop(store);

    let scan = scan_file(&wal_path(&dir), WAL_MAGIC).unwrap();
    let chunks: Vec<&ChunkData> = scan
        .entries
        .iter()
        .filter_map(|e| match e {
            WalEntry::Chunk(c) => Some(&c.payload),
            _ => None,
        })
        .collect();
    assert_eq!(chunks.len() as u64, sealed.chunks);
    assert!(
        chunks.iter().all(|c| matches!(c, ChunkData::Binary(_))),
        "JSON appends must be logged as binary chunk records"
    );
    assert!(matches!(scan.entries.last(), Some(WalEntry::Seal(_))));

    let store = ProfileStore::open_durable(&dir, 16, PersistOptions::default()).unwrap();
    assert_eq!(store.ids(), vec![sealed.id]);
    assert_eq!(
        &*store.resolve("json-streamed").unwrap().label,
        "json-streamed"
    );
    let p = store.persist_stats();
    assert_eq!(p.sessions_recovered, 1);
    assert_eq!(p.sessions_dropped, 0);
    std::fs::remove_dir_all(&dir).ok();
}
