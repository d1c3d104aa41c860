//! Session lifecycle: streamed ingestion must land byte-identically
//! with one-shot ingestion, every rejection must be typed, the janitor
//! must reap expired leases, and on a durable store chunks are staged
//! exactly as sent and recover after a kill.

use numa_faults::{FaultSpec, FaultyStorage, Storage};
use numa_live::{LiveConfig, SessionError, SessionManager};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::{ExecMode, Program};
use numa_store::stream::{split_profile, ChunkPayload};
use numa_store::wal::{scan_file, wal_path, WalEntry, WAL_MAGIC};
use numa_store::{PersistOptions, ProfileStore, StoreConfig};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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
        mgr.append_binary(ticket.session, seq as u64, &chunk.to_binary())
            .expect("append chunk");
    }
    mgr.seal(ticket.session).expect("seal session")
}

/// The smallest valid chunk: a thread batch with no threads.
fn empty_chunk() -> Vec<u8> {
    ChunkPayload::Threads(Vec::new()).to_binary()
}

/// Spin (yielding) until `done` holds; the janitor thread is what makes
/// it so. Panics after ten seconds.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
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
    // Limits in units of the empty chunk: four to a chunk, seven to a
    // session, eight across sessions.
    let chunk = empty_chunk();
    let n = chunk.len();
    assert!(n > 1);
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(
        Arc::clone(&store),
        LiveConfig {
            max_chunk_bytes: 4 * n,
            max_session_bytes: 7 * n + 1,
            max_open_bytes: 8 * n + 1,
            ..LiveConfig::default()
        },
    );

    // Unknown session id.
    let err = mgr.append_binary(0xdead, 0, &chunk).unwrap_err();
    assert_eq!(err, SessionError::UnknownSession { session: 0xdead });
    assert!(!err.is_backpressure());

    let t = mgr.open("run").unwrap();
    assert_eq!(t.max_chunk_bytes, 4 * n);
    assert_eq!(t.max_session_bytes, 7 * n + 1);

    // Out-of-order sequence number.
    let err = mgr.append_binary(t.session, 1, &chunk).unwrap_err();
    assert_eq!(
        err,
        SessionError::BadSequence {
            session: t.session,
            got: 1,
            expected: 0
        }
    );

    // Oversized chunk: rejected on its length, before any parse.
    let big = vec![0u8; 4 * n + 1];
    let err = mgr.append_binary(t.session, 0, &big).unwrap_err();
    assert_eq!(
        err,
        SessionError::ChunkTooLarge {
            session: t.session,
            len: big.len(),
            max: 4 * n
        }
    );

    // Malformed chunk payload (no such chunk tag).
    let err = mgr.append_binary(t.session, 0, &[0xEE]).unwrap_err();
    assert!(matches!(err, SessionError::ChunkParse { seq: 0, .. }));

    // Per-session buffer limit.
    for seq in 0..7 {
        mgr.append_binary(t.session, seq, &chunk).unwrap();
    }
    let err = mgr.append_binary(t.session, 7, &chunk).unwrap_err();
    assert_eq!(
        err,
        SessionError::SessionFull {
            session: t.session,
            bytes: 8 * n,
            max: 7 * n + 1
        }
    );
    assert!(err.is_backpressure());

    // Daemon-wide open-bytes budget: seven chunks are already buffered,
    // so a second session's second chunk crosses the eight-chunk budget.
    let t2 = mgr.open("other").unwrap();
    mgr.append_binary(t2.session, 0, &chunk).unwrap();
    let err = mgr.append_binary(t2.session, 1, &chunk).unwrap_err();
    assert_eq!(
        err,
        SessionError::Backpressure {
            open_bytes: 9 * n,
            max: 8 * n + 1
        }
    );
    assert!(err.is_backpressure());
    assert_eq!(mgr.stats().backpressure_rejections, 2);

    // A seal over a header-less chunk set is typed and discards the
    // session.
    let err = mgr.seal(t.session).unwrap_err();
    assert!(matches!(err, SessionError::Incomplete { .. }));
    let err = mgr.append_binary(t.session, 7, &chunk).unwrap_err();
    assert_eq!(err, SessionError::UnknownSession { session: t.session });
    assert_eq!(store.len(), 0, "failed seal must not half-ingest");
    mgr.stop();
}

#[test]
fn abort_discards_the_session() {
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let t = mgr.open("run").unwrap();
    mgr.append_binary(t.session, 0, &empty_chunk()).unwrap();
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
    mgr.append_binary(t.session, 0, &empty_chunk()).unwrap();

    wait_until("the janitor to reap the idle session", || {
        mgr.stats().reaped == 1
    });

    let stats = mgr.stats();
    assert_eq!(stats.open_sessions, 0);
    assert_eq!(stats.open_bytes, 0);
    assert_eq!(
        mgr.append_binary(t.session, 1, &empty_chunk()).unwrap_err(),
        SessionError::UnknownSession { session: t.session }
    );
    assert_eq!(store.len(), 0, "reaped session must not half-ingest");
    mgr.stop();
}

#[test]
fn appends_renew_the_lease() {
    let lease = Duration::from_millis(200);
    let store = Arc::new(ProfileStore::new());
    let mgr = SessionManager::new(
        Arc::clone(&store),
        LiveConfig {
            lease,
            janitor_period: Duration::from_millis(20),
            ..LiveConfig::default()
        },
    );
    // Two sessions opened together: `idle` is never touched again, so
    // its reaping is the event that proves one full lease has lapsed;
    // `slow` keeps appending at a quarter-lease cadence meanwhile and
    // must survive because each append renews its deadline.
    let idle = mgr.open("idle").unwrap();
    let slow = mgr.open("slow").unwrap();
    let mut seq = 0;
    let mut renewed = Instant::now() - lease;
    wait_until("the untouched session to be reaped", || {
        if renewed.elapsed() >= lease / 4 {
            mgr.append_binary(slow.session, seq, &empty_chunk())
                .expect("renewed lease must keep the session alive");
            seq += 1;
            renewed = Instant::now();
        }
        mgr.stats().reaped == 1
    });
    assert_eq!(
        mgr.abort(idle.session).unwrap_err(),
        SessionError::UnknownSession {
            session: idle.session
        }
    );

    // The survivor still takes a whole profile and seals it.
    let parsed = NumaProfile::from_json(&corpus()[1]).unwrap();
    for chunk in split_profile(&parsed, 1) {
        mgr.append_binary(slow.session, seq, &chunk.to_binary())
            .expect("append after outliving one lease");
        seq += 1;
    }
    let sealed = mgr.seal(slow.session).unwrap();
    assert!(sealed.added);
    assert_eq!(mgr.stats().reaped, 1, "only the idle session was reaped");
    mgr.stop();
}

/// Chunks appended to a durable store are staged as sent: the WAL holds
/// the client's own bytes as binary (kind-4) chunk records, and a
/// daemon killed right after the seal's ack recovers the session whole.
#[test]
fn appends_stage_the_bytes_as_sent_and_recover_after_a_kill() {
    let dir = std::env::temp_dir().join(format!("numa-live-wal-{}", std::process::id()));
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
    let sealed = stream(&mgr, "streamed", &corpus()[0], 2);
    assert!(sealed.added);
    storage.kill();
    mgr.stop();
    drop(mgr);
    drop(store);

    let scan = scan_file(&wal_path(&dir), WAL_MAGIC).unwrap();
    let chunks: Vec<&Vec<u8>> = scan
        .entries
        .iter()
        .filter_map(|e| match e {
            WalEntry::Chunk(c) => Some(&c.payload),
            _ => None,
        })
        .collect();
    let sent: Vec<Vec<u8>> = split_profile(&NumaProfile::from_json(&corpus()[0]).unwrap(), 2)
        .iter()
        .map(ChunkPayload::to_binary)
        .collect();
    assert_eq!(chunks.len() as u64, sealed.chunks);
    for (logged, sent) in chunks.iter().zip(&sent) {
        assert!(
            *logged == sent,
            "the WAL must hold each chunk byte-for-byte as it was appended"
        );
    }
    assert!(matches!(scan.entries.last(), Some(WalEntry::Seal(_))));

    let store = ProfileStore::open_durable(&dir, 16, PersistOptions::default()).unwrap();
    assert_eq!(store.ids(), vec![sealed.id]);
    assert_eq!(&*store.resolve("streamed").unwrap().label, "streamed");
    let p = store.persist_stats();
    assert_eq!(p.sessions_recovered, 1);
    assert_eq!(p.sessions_dropped, 0);
    std::fs::remove_dir_all(&dir).ok();
}
