//! Session lifecycle: streamed ingestion must land byte-identically
//! with one-shot ingestion — on a durable store down to the WAL bytes —
//! every rejection must be typed, the buffer budgets must hold under
//! racing appends, the janitor must reap expired leases, and a session
//! that never seals must never touch the disk.

use numa_faults::{FaultSpec, FaultyStorage, Storage};
use numa_live::{LiveConfig, SessionError, SessionManager};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::{ExecMode, Program};
use numa_store::stream::{split_profile, ChunkPayload};
use numa_store::wal::{scan_file, wal_path, FILE_HEADER_LEN, WAL_MAGIC};
use numa_store::{PersistOptions, ProfileId, ProfileStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// A small profile; `rounds` varies the content hash. Sampling is
/// interval-randomized, so tests that need the same profile twice must
/// build it once and reuse it (see [`corpus`]).
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

fn corpus() -> &'static [NumaProfile; 2] {
    static CORPUS: OnceLock<[NumaProfile; 2]> = OnceLock::new();
    CORPUS.get_or_init(|| [profile(1), profile(2)])
}

/// Streams `profile` through `mgr` in chunks of `per` threads and
/// returns the seal result.
fn stream(
    mgr: &SessionManager,
    label: &str,
    profile: &NumaProfile,
    per: usize,
) -> numa_live::Sealed {
    let ticket = mgr.open(label).expect("open session");
    for (seq, chunk) in split_profile(profile, per).iter().enumerate() {
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
    let (oracle_id, _) = oracle.ingest_profile("run", corpus()[0].clone()).unwrap();

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
    for chunk in split_profile(&corpus()[1], 1) {
        mgr.append_binary(slow.session, seq, &chunk.to_binary())
            .expect("append after outliving one lease");
        seq += 1;
    }
    let sealed = mgr.seal(slow.session).unwrap();
    assert!(sealed.added);
    assert_eq!(mgr.stats().reaped, 1, "only the idle session was reaped");
    mgr.stop();
}

/// The `numa_live_open_bytes` gauge as a scrape reads it.
fn open_bytes_gauge(registry: &numa_obs::Registry) -> usize {
    let scrape = registry.render();
    let line = scrape
        .lines()
        .find_map(|l| l.strip_prefix("numa_live_open_bytes "))
        .expect("gauge registered");
    line.trim().parse().expect("gauge value")
}

/// Appends to *different* sessions race through the chunk parse, which
/// runs outside the lock. The budget check and the reservation of the
/// chunk's bytes are one critical section, so however the threads
/// interleave the daemon never buffers more than `max_open_bytes`.
#[test]
fn racing_appends_never_overshoot_the_open_bytes_budget() {
    const THREADS: usize = 8;
    const FIT: usize = 3;
    // One chunk holding every thread: the longest parse this corpus has.
    let chunk = split_profile(&corpus()[1], usize::MAX)[1].to_binary();
    let len = chunk.len();
    let max_open_bytes = FIT * len + len / 2;
    let mgr = SessionManager::new(
        Arc::new(ProfileStore::new()),
        LiveConfig {
            max_open_bytes,
            ..LiveConfig::default()
        },
    );
    let registry = numa_obs::Registry::new();
    mgr.register_metrics(&registry);

    for round in 0..200 {
        let sessions: Vec<u64> = (0..THREADS)
            .map(|i| mgr.open(&format!("racer-{i}")).unwrap().session)
            .collect();
        let start = Barrier::new(THREADS);
        let accepted: usize = std::thread::scope(|scope| {
            let racers: Vec<_> = sessions
                .iter()
                .map(|&session| {
                    let (mgr, chunk, start, registry) = (&mgr, &chunk, &start, &registry);
                    scope.spawn(move || {
                        start.wait();
                        let outcome = mgr.append_binary(session, 0, chunk);
                        let (held, gauge) = (mgr.stats().open_bytes, open_bytes_gauge(registry));
                        assert!(
                            held <= max_open_bytes && gauge <= max_open_bytes,
                            "round {round}: {held} byte(s) held, gauge {gauge}, \
                             budget {max_open_bytes}"
                        );
                        match outcome {
                            Ok(_) => 1,
                            Err(e) => {
                                assert!(
                                    matches!(e, SessionError::Backpressure { .. }),
                                    "round {round}: {e:?}"
                                );
                                0
                            }
                        }
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert_eq!(accepted, FIT, "round {round}");
        assert_eq!(mgr.stats().open_bytes, FIT * len, "round {round}");
        for session in sessions {
            mgr.abort(session).unwrap();
        }
        assert_eq!(mgr.stats().open_bytes, 0, "round {round}");
        assert_eq!(open_bytes_gauge(&registry), 0, "round {round}");
    }
    mgr.stop();
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("numa-live-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open_durable(dir: &Path, storage: &Arc<FaultyStorage>) -> Arc<ProfileStore> {
    Arc::new(
        ProfileStore::open_durable_config_with(
            dir,
            StoreConfig::default(),
            PersistOptions::default(),
            Arc::clone(storage) as Arc<dyn Storage>,
        )
        .unwrap(),
    )
}

/// A sealed stream is one profile record: whatever the chunking, the
/// WAL of a store that took the profile as a stream is byte-for-byte
/// the WAL of a store that took it as a one-shot binary ingest — one
/// record holding the canonical codec bytes — and a daemon killed right
/// after the seal's ack recovers it under the acked id.
#[test]
fn a_sealed_stream_is_one_profile_record() {
    // The canonical codec bytes, and the id they hash to.
    let (id, canonical) = ProfileId::of(&corpus()[0]);
    for threads_per_chunk in [1, 2, 7] {
        let streamed_dir = scratch(&format!("streamed-{threads_per_chunk}"));
        let oneshot_dir = scratch(&format!("oneshot-{threads_per_chunk}"));

        let storage = Arc::new(FaultyStorage::new(FaultSpec::default()));
        let store = open_durable(&streamed_dir, &storage);
        let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
        let sealed = stream(&mgr, "run", &corpus()[0], threads_per_chunk);
        assert!(sealed.added);
        assert_eq!(sealed.id, id);
        let set_hash = store.set_hash();
        storage.kill();
        mgr.stop();
        drop(mgr);
        drop(store);

        let oneshot =
            ProfileStore::open_durable(&oneshot_dir, 16, PersistOptions::default()).unwrap();
        assert_eq!(
            oneshot.ingest_binary("run", &canonical).unwrap(),
            (sealed.id, true)
        );
        drop(oneshot);

        let wal = std::fs::read(wal_path(&streamed_dir)).unwrap();
        assert!(
            wal == std::fs::read(wal_path(&oneshot_dir)).unwrap(),
            "{threads_per_chunk} thread(s) per chunk: the two logs differ"
        );
        let scan = scan_file(&wal_path(&streamed_dir), WAL_MAGIC).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].label, "run");
        assert_eq!(scan.entries[0].content_hash, sealed.id.0);
        assert!(scan.entries[0].bytes == canonical);

        let store =
            ProfileStore::open_durable(&streamed_dir, 16, PersistOptions::default()).unwrap();
        assert_eq!(store.ids(), vec![sealed.id]);
        assert_eq!(&*store.resolve("run").unwrap().label, "run");
        assert_eq!(store.set_hash(), set_hash);
        std::fs::remove_dir_all(&streamed_dir).ok();
        std::fs::remove_dir_all(&oneshot_dir).ok();
    }
}

/// An unsealed session never touches the disk: however it ends — abort,
/// lease reap, the manager going away — the log and the persister's
/// counters are where they were before it was opened. So a disk that
/// fails the next write fails the *seal*, not an append: the appends
/// are acknowledged, the seal is a typed `NotDurable` with the profile
/// rolled back and the session gone, and a re-stream is added.
#[test]
fn an_unsealed_session_never_touches_the_disk() {
    let dir = scratch("unsealed");
    // Write #1 is the WAL header at open; the next write, whoever makes
    // it, tears after 5 bytes — exactly once.
    let storage = Arc::new(FaultyStorage::new(FaultSpec {
        short_write: Some((2, 5)),
        ..FaultSpec::default()
    }));
    let store = open_durable(&dir, &storage);
    let untouched = |what: &str| {
        let p = store.persist_stats();
        assert_eq!(
            (
                std::fs::metadata(wal_path(&dir)).unwrap().len(),
                p.wal_bytes,
                p.wal_appends,
                p.wal_group_commits,
                p.io_errors,
                storage.injected(),
            ),
            (FILE_HEADER_LEN, FILE_HEADER_LEN, 0, 0, 0, 0),
            "{what}"
        );
    };
    let chunks: Vec<Vec<u8>> = split_profile(&corpus()[0], 1)
        .iter()
        .map(ChunkPayload::to_binary)
        .collect();
    let open_and_append = |mgr: &SessionManager| {
        let session = mgr.open("run").unwrap().session;
        for (seq, chunk) in chunks.iter().enumerate() {
            mgr.append_binary(session, seq as u64, chunk).unwrap();
        }
        untouched("after the appends");
        session
    };

    let mgr = SessionManager::new(
        Arc::clone(&store),
        LiveConfig {
            lease: Duration::from_millis(50),
            janitor_period: Duration::from_millis(10),
            ..LiveConfig::default()
        },
    );
    let aborted = open_and_append(&mgr);
    mgr.abort(aborted).unwrap();
    untouched("after an abort");
    open_and_append(&mgr);
    wait_until("the janitor to reap the idle session", || {
        mgr.stats().reaped == 1
    });
    untouched("after a lease reap");
    open_and_append(&mgr);
    mgr.stop();
    drop(mgr);
    untouched("after the manager is gone");

    // The first write any of this causes is the seal's record.
    let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let doomed = open_and_append(&mgr);
    let err = mgr.seal(doomed).unwrap_err();
    assert!(
        matches!(err, SessionError::NotDurable { session, .. } if session == doomed),
        "{err:?}"
    );
    assert_eq!(storage.injected(), 1);
    assert!(store.ids().is_empty(), "a failed seal must roll back");
    assert_eq!(
        mgr.abort(doomed).unwrap_err(),
        SessionError::UnknownSession { session: doomed }
    );
    assert_eq!(mgr.stats().open_bytes, 0);
    assert_eq!(
        std::fs::metadata(wal_path(&dir)).unwrap().len(),
        FILE_HEADER_LEN,
        "the torn record was truncated away"
    );
    // The fault was one-shot: the client re-streams and is added.
    let sealed = stream(&mgr, "run", &corpus()[0], 1);
    assert!(sealed.added);
    assert_eq!(store.ids(), vec![sealed.id]);
    mgr.stop();
    std::fs::remove_dir_all(&dir).ok();
}
