//! Fault-injection matrix for the durability stack.
//!
//! Each case derives a deterministic fault schedule ([`FaultSpec`]), a
//! workload plan (one-shot ingests, streamed sessions, explicit
//! compactions), a WAL bound small enough that compactions also trigger
//! by size mid-plan, and an optional kill point from one seed, runs the
//! plan against a store whose storage injects those faults, and then
//! recovers the data directory with clean storage. The contract under
//! test is exact:
//!
//! * every operation that was **acknowledged `Ok` is recovered** —
//!   same profile count, same set hash, same aggregate text as an
//!   in-memory oracle that applied exactly the acked operations;
//! * every operation that **returned an error is cleanly absent** —
//!   a failed ingest never resurfaces after a restart;
//! * no schedule panics, wedges, or makes recovery itself fail.
//!
//! Alongside the matrix sit targeted regression tests for the bugs the
//! harness flushed out — the missing directory fsyncs around file
//! creation, the unvalidated `body_len` allocation in the record
//! scanner, the group-commit error path, and the WAL-reset bookkeeping
//! desync that lost acknowledged records after a failed compaction —
//! and for the ordering and roll-back the fold depends on.

use numa_faults::{FaultSpec, FaultyStorage, RecordingStorage, StdStorage, Storage};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::{ExecMode, Program};
use numa_store::snapshot::snapshot_path;
use numa_store::stream::{assemble, split_profile, ChunkPayload};
use numa_store::wal::{
    encode_bin_record, encode_file_header, scan_file, wal_path, FILE_HEADER_LEN, SNAPSHOT_MAGIC,
    WAL_MAGIC,
};
use numa_store::{PersistOptions, ProfileId, ProfileStore, StoreConfig, StoreError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A small profile; `rounds` varies the content hash.
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

/// Four distinct profiles, generated once per test process so every
/// case ingests bit-identical content and cross-store hash comparisons
/// are meaningful.
fn corpus() -> &'static [NumaProfile; 4] {
    static CORPUS: OnceLock<[NumaProfile; 4]> = OnceLock::new();
    CORPUS.get_or_init(|| [profile(1), profile(2), profile(3), profile(4)])
}

/// The same corpus as codec bytes, as profile files hold it.
fn bin_corpus() -> &'static [Vec<u8>; 4] {
    static BIN: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    BIN.get_or_init(|| corpus().each_ref().map(numa_codec::encode_profile))
}

/// Fresh scratch dir per call, unique across tests and matrix cases.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "numa-faults-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config() -> StoreConfig {
    StoreConfig {
        cache_capacity: 16,
        ..StoreConfig::default()
    }
}

/// SplitMix64 — the same generator [`FaultSpec::seeded`] uses, kept
/// local so plans stay reproducible from the seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of a seeded workload. `bin` selects how the op arrives —
/// an ingest as codec bytes or as the struct, a stream's chunks as
/// split or after a wire round trip — so the matrix exercises both
/// arrival paths, and their mixtures, under faults.
#[derive(Clone, Copy, Debug)]
enum PlannedOp {
    /// One-shot ingest of `corpus()[idx]`.
    Ingest { idx: usize, bin: bool },
    /// Stream `corpus()[idx]` as `parts` chunks, then seal.
    Stream { idx: usize, parts: usize, bin: bool },
    /// Explicit flush: group commit + fold into the snapshot.
    Flush,
}

fn plan_ops(rng: &mut u64) -> Vec<PlannedOp> {
    let n = 4 + (splitmix64(rng) % 5) as usize;
    (0..n)
        .map(|_| match splitmix64(rng) % 8 {
            0..=2 => PlannedOp::Ingest {
                idx: (splitmix64(rng) % 4) as usize,
                bin: splitmix64(rng).is_multiple_of(2),
            },
            3..=5 => PlannedOp::Stream {
                idx: (splitmix64(rng) % 4) as usize,
                parts: 1 + (splitmix64(rng) % 3) as usize,
                bin: splitmix64(rng).is_multiple_of(2),
            },
            _ => PlannedOp::Flush,
        })
        .collect()
}

/// The WAL bound of a seeded schedule: never, after every commit group,
/// or every one to three records (a corpus record is ≈ 4.8 KB) — so
/// size-triggered folds, and the faults that land on their writes,
/// syncs and truncates, happen inside the plan and not only at its
/// explicit flushes.
fn plan_wal_bound(rng: &mut u64) -> u64 {
    [u64::MAX, 1, 6 << 10, 12 << 10][(splitmix64(rng) % 4) as usize]
}

/// Run one seeded schedule end to end and check the recovery contract.
///
/// Ops run sequentially and block on their acks, and a size-triggered
/// compaction runs on the persister thread before the acks of the group
/// that tripped it are delivered — so every op's outcome is
/// deterministic and the oracle (an in-memory store fed exactly the
/// acked operations) is an exact model. Racing ingest against a
/// compaction is real concurrency and is exercised separately by the
/// store's existing concurrent tests.
fn run_schedule(seed: u64) {
    let mut rng = seed;
    let spec = FaultSpec::seeded(seed);
    let fsync = splitmix64(&mut rng).is_multiple_of(2);
    let snapshot_wal_bytes = plan_wal_bound(&mut rng);
    let plan = plan_ops(&mut rng);
    let kill_at = splitmix64(&mut rng)
        .is_multiple_of(2)
        .then(|| (splitmix64(&mut rng) as usize) % (plan.len() + 1));
    let dir = scratch("matrix");
    let storage = Arc::new(FaultyStorage::new(spec));
    let opts = PersistOptions {
        snapshot_wal_bytes,
        fsync,
    };
    let oracle = ProfileStore::new();

    let opened = ProfileStore::open_durable_config_with(
        &dir,
        config(),
        opts,
        Arc::clone(&storage) as Arc<dyn Storage>,
    );
    // An open that faulted acked nothing; recovery must come up empty.
    if let Ok(store) = opened {
        for (i, op) in plan.iter().enumerate() {
            if kill_at == Some(i) {
                storage.kill();
            }
            let label = format!("op-{i}");
            match *op {
                PlannedOp::Ingest { idx, bin } => {
                    let acked = if bin {
                        store.ingest_binary(&label, &bin_corpus()[idx]).is_ok()
                    } else {
                        store.ingest_profile(&label, corpus()[idx].clone()).is_ok()
                    };
                    if acked {
                        oracle.ingest_binary(&label, &bin_corpus()[idx]).unwrap();
                    }
                }
                PlannedOp::Stream { idx, parts, bin } => {
                    let mut chunks: Vec<ChunkPayload> = split_profile(&corpus()[idx], parts);
                    if !bin {
                        // The other arm reaches the store the way the
                        // live layer hands its chunks over: each decoded
                        // off the wire before the seal assembles them.
                        for chunk in &mut chunks {
                            *chunk = ChunkPayload::from_binary(&chunk.to_binary()).unwrap();
                        }
                    }
                    // Chunks are buffered in memory and cannot fault; the
                    // seal is an ingest of what they assemble to, and the
                    // stream is in the model iff that was acked.
                    let assembled = assemble(chunks).unwrap();
                    if store.ingest_profile(&label, assembled.clone()).is_ok() {
                        oracle.ingest_profile(&label, assembled).unwrap();
                    }
                }
                PlannedOp::Flush => {
                    // May fail under faults; a failed compaction must
                    // lose nothing (asserted by recovery below).
                    let _ = store.flush();
                }
            }
        }
        if kill_at == Some(plan.len()) {
            storage.kill();
        }
        drop(store);
    }

    // Recover with clean storage: exactly the acked set, nothing else.
    let recovered = ProfileStore::open_durable_config(&dir, config(), PersistOptions::default())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    assert_eq!(
        recovered.len(),
        oracle.len(),
        "seed {seed} (spec {spec:?}, bound {snapshot_wal_bytes}, plan {plan:?}, \
         kill {kill_at:?}): recovered {} profile(s), oracle has {}",
        recovered.len(),
        oracle.len()
    );
    assert_eq!(
        recovered.set_hash(),
        oracle.set_hash(),
        "seed {seed} (spec {spec:?}, plan {plan:?}, kill {kill_at:?}): set hash mismatch"
    );
    if !oracle.is_empty() {
        assert_eq!(
            recovered.aggregate().unwrap().text(),
            oracle.aggregate().unwrap().text(),
            "seed {seed}: aggregate text mismatch"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// The matrix: 256 explicit seeds (split so `cargo test` runs the
// quarters in parallel) plus 64 proptest-drawn seeds from a disjoint
// range — ≥300 schedules per run, every one replayable from its seed.

#[test]
fn fault_matrix_seeds_000_063() {
    for seed in 0..64 {
        run_schedule(seed);
    }
}

#[test]
fn fault_matrix_seeds_064_127() {
    for seed in 64..128 {
        run_schedule(seed);
    }
}

#[test]
fn fault_matrix_seeds_128_191() {
    for seed in 128..192 {
        run_schedule(seed);
    }
}

#[test]
fn fault_matrix_seeds_192_255() {
    for seed in 192..256 {
        run_schedule(seed);
    }
}

proptest! {
    #[test]
    fn fault_matrix_proptest_seeds(seed in 1_000u64..100_000) {
        run_schedule(seed);
    }
}

// ---------------------------------------------------------------------
// Regression: unvalidated body_len in the record scanner
// ---------------------------------------------------------------------

/// A record header whose `body_len` claims more bytes than the file
/// holds must be treated as a torn tail — the scanner clamps against
/// the remaining file size *before* allocating the body buffer, so a
/// four-byte corruption can never become a multi-gigabyte allocation.
#[test]
fn oversized_body_len_is_torn_tail_not_allocation() {
    let dir = scratch("bodylen");
    std::fs::create_dir_all(&dir).unwrap();
    let path = wal_path(&dir);

    // Valid header + one intact record + a bogus header claiming ~4 GiB.
    let store =
        ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
    store.ingest_binary("keep", &bin_corpus()[0]).unwrap();
    drop(store);
    let intact = std::fs::metadata(&path).unwrap().len();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&(u32::MAX - 0xFF).to_be_bytes()); // body_len
    bytes.extend_from_slice(&[0u8; 8]); // body_fnv (never checked)
    bytes.extend_from_slice(b"tiny"); // far fewer bytes than claimed
    std::fs::write(&path, &bytes).unwrap();

    let scan = scan_file(&path, WAL_MAGIC).unwrap();
    assert_eq!(scan.entries.len(), 1);
    assert_eq!(scan.valid_len, intact);
    assert_eq!(scan.truncated_bytes, 12 + 4);

    // Recovery keeps the intact prefix and stays writable.
    let store =
        ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
    assert_eq!(store.len(), 1);
    store.ingest_binary("after", &bin_corpus()[1]).unwrap();
    drop(store);
    let store =
        ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
    assert_eq!(store.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Same corruption with nothing intact before it: the whole file past
/// the header is damage, and recovery starts empty.
#[test]
fn oversized_body_len_on_first_record_recovers_empty() {
    let dir = scratch("bodylen0");
    std::fs::create_dir_all(&dir).unwrap();
    let path = wal_path(&dir);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&encode_file_header(WAL_MAGIC));
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    bytes.extend_from_slice(&[0u8; 8]);
    std::fs::write(&path, &bytes).unwrap();
    let scan = scan_file(&path, WAL_MAGIC).unwrap();
    assert!(scan.entries.is_empty());
    assert_eq!(scan.valid_len, FILE_HEADER_LEN);
    let store =
        ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
    assert_eq!(store.len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Ordering: file creation is dir-synced, the snapshot is synced before
// the WAL is truncated
// ---------------------------------------------------------------------

/// A fold must sync what it appended to the snapshot strictly before it
/// truncates the WAL — after the truncate the snapshot holds the only
/// copy. The fold that creates the snapshot must first make the file
/// itself durable (header write → file sync → directory sync), exactly
/// as creating a fresh WAL must before any append can be acknowledged.
/// Nothing is renamed and no other file is written.
#[test]
fn snapshot_is_synced_before_each_wal_truncate() {
    let dir = scratch("order");
    let rec = Arc::new(RecordingStorage::new(Arc::new(StdStorage)));
    let store = ProfileStore::open_durable_config_with(
        &dir,
        config(),
        PersistOptions::default(),
        Arc::clone(&rec) as Arc<dyn Storage>,
    )
    .unwrap();
    assert!(!snapshot_path(&dir).exists(), "open creates no snapshot");
    store.ingest_binary("a", &bin_corpus()[0]).unwrap();
    store.flush().unwrap();
    store.ingest_binary("b", &bin_corpus()[1]).unwrap();
    store.flush().unwrap();
    drop(store);

    let ops = rec.ops();
    let after = |from: usize, needle: &str| {
        from + ops[from..]
            .iter()
            .position(|op| op.starts_with(needle))
            .unwrap_or_else(|| panic!("no {needle:?} after op {from} in {ops:?}"))
    };
    // Fresh-WAL creation: header write → file sync → directory sync.
    let wal_header = after(0, "write(wal.log, 8)");
    let wal_sync = after(wal_header, "sync_data(wal.log)");
    let wal_dir_sync = after(wal_sync, "sync_dir");
    // First fold: the same three steps for the snapshot, then the
    // record and its sync, and only then the WAL truncate.
    let truncate = format!("set_len(wal.log, {FILE_HEADER_LEN})");
    let snap_header = after(wal_dir_sync, "write(snapshot.bin, 8)");
    let snap_created = after(snap_header, "sync_data(snapshot.bin)");
    let snap_dir_sync = after(snap_created, "sync_dir");
    let record_a = after(snap_dir_sync, "write(snapshot.bin, ");
    let synced_a = after(record_a, "sync_data(snapshot.bin)");
    let truncate_a = after(0, &truncate);
    assert!(synced_a < truncate_a, "{ops:?}");
    // Second fold: append, sync, truncate — on the file already open.
    let record_b = after(truncate_a, "write(snapshot.bin, ");
    let synced_b = after(record_b, "sync_data(snapshot.bin)");
    let truncate_b = after(truncate_a + 1, &truncate);
    assert!(synced_b < truncate_b, "{ops:?}");
    assert_eq!(
        ops.iter().filter(|op| *op == "sync_dir").count(),
        2,
        "one directory sync per file creation: {ops:?}"
    );
    let opened = |name: &str| {
        ops.iter()
            .filter(|op| **op == format!("open_rw({name})"))
            .count()
    };
    assert_eq!(
        (opened("wal.log"), opened("snapshot.bin")),
        (1, 1),
        "{ops:?}"
    );
    assert!(
        ops.iter().all(|op| !op.contains(".tmp")),
        "no sibling file: {ops:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Regression: group-commit error path
// ---------------------------------------------------------------------

/// Every way into the store, for
/// [`failed_append_is_typed_rolled_back_and_retryable`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Entry {
    Profile,
    Binary,
    BatchOne,
    /// One fresh row plus an in-batch duplicate of it.
    BatchMixed,
    Sealed,
}

impl Entry {
    const ALL: [Entry; 5] = [
        Entry::Profile,
        Entry::Binary,
        Entry::BatchOne,
        Entry::BatchMixed,
        Entry::Sealed,
    ];

    /// Admit `corpus()[0]` as "torn" through this entry point:
    /// `Ok(added)` or the typed error it reported.
    fn admit(self, store: &ProfileStore) -> Result<bool, StoreError> {
        let batch = |inputs: &[(String, Vec<u8>)]| {
            let mut report = store.ingest_batch(inputs);
            assert!(report.rejected.is_empty() && report.io_errors.is_empty());
            assert_eq!(report.deduplicated, inputs.len() - 1);
            match report.persist_failures.pop() {
                Some((label, e)) => {
                    assert_eq!(label, "torn");
                    assert!(report.added.is_empty() && report.persist_failures.is_empty());
                    Err(e)
                }
                None => Ok(report.added.len() == 1),
            }
        };
        let row = |label: &str| (label.to_string(), bin_corpus()[0].clone());
        match self {
            Entry::Profile => store
                .ingest_profile("torn", corpus()[0].clone())
                .map(|r| r.1),
            Entry::Binary => store.ingest_binary("torn", &bin_corpus()[0]).map(|r| r.1),
            Entry::BatchOne => batch(&[row("torn")]),
            Entry::BatchMixed => batch(&[row("torn"), row("torn-dup")]),
            // What a seal does with the chunks a session buffered.
            Entry::Sealed => {
                let chunks = split_profile(&corpus()[0], 2);
                store
                    .ingest_profile("torn", assemble(chunks).unwrap())
                    .map(|r| r.1)
            }
        }
    }
}

/// A WAL append that fails mid-group must fail that admission with a
/// typed error and roll both the store and the log back to the
/// committed prefix — never ack-then-drop — through every entry point.
/// Once the (one-shot) fault has passed, a retry of the same admission
/// succeeds and a reopen lists exactly the acked ids.
#[test]
fn failed_append_is_typed_rolled_back_and_retryable() {
    for entry in Entry::ALL {
        let dir = scratch("groupfail");
        // Write #1 is the WAL header at open; the next write — the
        // entry's own record, for a sealed stream too — tears after 5
        // bytes, exactly once.
        let storage = Arc::new(FaultyStorage::new(FaultSpec {
            short_write: Some((2, 5)),
            ..FaultSpec::default()
        }));
        let store = ProfileStore::open_durable_config_with(
            &dir,
            config(),
            PersistOptions::default(),
            Arc::clone(&storage) as Arc<dyn Storage>,
        )
        .unwrap();
        let wal_len = || std::fs::metadata(wal_path(&dir)).unwrap().len();

        let err = entry.admit(&store).unwrap_err();
        assert!(
            matches!(err, StoreError::Persist { .. }),
            "{entry:?}: {err:?}"
        );
        assert!(err.to_string().contains("not durable"), "{entry:?}: {err}");
        assert_eq!(
            store.len(),
            0,
            "{entry:?}: failed row must not stay visible"
        );
        assert_eq!(store.set_hash(), 0, "{entry:?}");
        assert!(store.persist_stats().io_errors >= 1, "{entry:?}");
        // The torn prefix was truncated away: the log is back to a bare
        // header.
        assert_eq!(wal_len(), FILE_HEADER_LEN, "{entry:?}");

        // The schedule tears only that one write: the retry (a client
        // whose seal failed re-streams) goes through.
        assert!(entry.admit(&store).unwrap(), "{entry:?}: retry adds");
        assert_eq!(store.len(), 1, "{entry:?}");
        let acked = store.ids();
        drop(store);
        let scan = scan_file(&wal_path(&dir), WAL_MAGIC).unwrap();
        assert_eq!(scan.truncated_bytes, 0, "{entry:?}");
        let store =
            ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
        assert_eq!(
            store.ids(),
            acked,
            "{entry:?}: reopen lists exactly the acked ids"
        );
        assert_eq!(&*store.resolve("torn").unwrap().label, "torn");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Disk-full: every ingest past the budget fails with the typed
/// persistence error, already-acked profiles stay intact, and the store
/// keeps answering queries.
#[test]
fn enospc_fails_ingest_keeps_serving_and_acked_data() {
    let dir = scratch("enospc");
    // Budget: header + the record ingest #1 writes + a sliver, so it
    // commits and ingest #2 hits ENOSPC.
    let (id, bytes) = ProfileId::of(&corpus()[0]);
    let first = encode_bin_record("full-0", &bytes, id.0);
    let storage = Arc::new(FaultyStorage::new(FaultSpec {
        enospc_after: Some(FILE_HEADER_LEN + first.len() as u64 + 16),
        ..FaultSpec::default()
    }));
    let store = ProfileStore::open_durable_config_with(
        &dir,
        config(),
        PersistOptions::default(),
        Arc::clone(&storage) as Arc<dyn Storage>,
    )
    .unwrap();
    store.ingest_binary("full-0", &bin_corpus()[0]).unwrap();
    let before = store.aggregate().unwrap();
    let err = store.ingest_binary("full-1", &bin_corpus()[1]).unwrap_err();
    assert!(err.to_string().contains("not durable"), "{err}");
    // Still serving: the acked profile resolves and aggregates — and
    // the rollback put the set hash back, so the aggregate memoized
    // before the failed ingest is the one served, as a hit.
    assert_eq!(store.len(), 1);
    assert!(store.resolve("full-0").is_ok());
    let after = store.aggregate().unwrap();
    assert!(Arc::ptr_eq(&before, &after));
    assert_eq!(after.as_aggregate().unwrap().runs, 1);
    let cache = store.cache_stats();
    assert_eq!((cache.hits, cache.misses), (1, 1));
    drop(store);
    let store =
        ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
    assert_eq!(store.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Regression: failed compaction — WAL bookkeeping
// ---------------------------------------------------------------------

/// A compaction whose WAL reset truncates the file but then fails its
/// fsync reports the failure — and appends acknowledged *after* it must
/// survive: the WAL writer's bookkeeping has to follow the truncated
/// file, not the failed fsync.
#[test]
fn a_failed_wal_reset_sync_keeps_later_appends() {
    let dir = scratch("reset-sync");
    // With fsync on, the sync sequence is: WAL create file sync + dir
    // sync (2), the ingest's group commit (1), then the flush's
    // compaction: snapshot create file sync + dir sync (2), the fold's
    // own sync (1), WAL reset sync. Failing that last one makes the
    // compaction fail *after* the WAL was truncated.
    let storage = Arc::new(FaultyStorage::new(FaultSpec {
        fail_sync: Some(2 + 1 + 3 + 1),
        ..FaultSpec::default()
    }));
    let store = ProfileStore::open_durable_config_with(
        &dir,
        config(),
        PersistOptions {
            snapshot_wal_bytes: u64::MAX,
            fsync: true,
        },
        Arc::clone(&storage) as Arc<dyn Storage>,
    )
    .unwrap();

    store.ingest_binary("folded", &bin_corpus()[0]).unwrap();
    assert!(store.flush().is_err(), "sync 7 must fail this compaction");
    assert_eq!(storage.injected(), 1);
    // An ordinary ingest after the failed compaction must be durable.
    store.ingest_binary("later", &bin_corpus()[1]).unwrap();
    drop(store);

    let store =
        ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
    assert_eq!(store.len(), 2, "folded + later ingest both recovered");
    assert_eq!(&*store.resolve("folded").unwrap().label, "folded");
    assert_eq!(&*store.resolve("later").unwrap().label, "later");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// A failed fold: the snapshot rolls back, the next fold succeeds
// ---------------------------------------------------------------------

/// Each step of a fold can fail — the short write of a record, the
/// snapshot sync, the directory sync of the fold that creates the file,
/// the WAL truncate after a good sync. Whichever does: the flush reports
/// it, the snapshot is at its previous length unless its sync had
/// already succeeded, nothing acknowledged is lost, and the next flush
/// succeeds leaving each id in the snapshot exactly once.
#[test]
fn a_failed_fold_loses_nothing_and_the_next_one_succeeds() {
    // Ordinals count every file of the directory. The plan is: open
    // (WAL header write #1, set_len #1, syncs #1-2), ingest "a" (write
    // #2), flush, ingest "b", flush.
    let spec = FaultSpec::default();
    let cases = [
        // Fold 1 creates the snapshot: header is write #3, "a" write #4.
        (
            "first fold, record torn",
            FaultSpec {
                short_write: Some((4, 7)),
                ..spec
            },
            1,
        ),
        // Syncs #3-4 create the snapshot, #5 is fold 1's.
        (
            "first fold, creation dir sync",
            FaultSpec {
                fail_sync: Some(4),
                ..spec
            },
            1,
        ),
        (
            "first fold, snapshot sync",
            FaultSpec {
                fail_sync: Some(5),
                ..spec
            },
            1,
        ),
        // Fold 2: "b" is write #5 to the WAL, #6 to the snapshot; sync #6.
        (
            "second fold, record torn",
            FaultSpec {
                short_write: Some((6, 7)),
                ..spec
            },
            2,
        ),
        (
            "second fold, snapshot sync",
            FaultSpec {
                fail_sync: Some(6),
                ..spec
            },
            2,
        ),
        // set_len #2 creates the snapshot, #3 and #4 reset the WAL.
        (
            "first fold, WAL truncate",
            FaultSpec {
                fail_set_len: Some(3),
                ..spec
            },
            1,
        ),
        (
            "second fold, WAL truncate",
            FaultSpec {
                fail_set_len: Some(4),
                ..spec
            },
            2,
        ),
    ];
    for (what, spec, failing_flush) in cases {
        let dir = scratch("failed-fold");
        let storage = Arc::new(FaultyStorage::new(spec));
        let store = ProfileStore::open_durable_config_with(
            &dir,
            config(),
            PersistOptions {
                snapshot_wal_bytes: u64::MAX,
                fsync: false,
            },
            Arc::clone(&storage) as Arc<dyn Storage>,
        )
        .unwrap();
        let snapshot_len = || std::fs::metadata(snapshot_path(&dir)).map_or(0, |m| m.len());
        let truncate_fault = spec.fail_set_len.is_some();
        let mut synced_len = 0;
        for (flush, (label, bytes)) in [("a", &bin_corpus()[0]), ("b", &bin_corpus()[1])]
            .into_iter()
            .enumerate()
        {
            store.ingest_binary(label, bytes).unwrap();
            let wal_before = std::fs::metadata(wal_path(&dir)).unwrap().len();
            let flushed = store.flush();
            if flush + 1 != failing_flush {
                flushed.unwrap_or_else(|e| panic!("{what}: flush {} failed: {e}", flush + 1));
                synced_len = snapshot_len();
                continue;
            }
            assert!(flushed.is_err(), "{what}: flush {} must fail", flush + 1);
            assert_eq!(storage.injected(), 1, "{what}");
            assert!(store.persist_stats().io_errors >= 1, "{what}");
            // The WAL still holds everything the fold meant to absorb.
            assert_eq!(
                std::fs::metadata(wal_path(&dir)).unwrap().len(),
                wal_before,
                "{what}: a failed fold must leave the WAL alone"
            );
            if !truncate_fault {
                let rolled_back = snapshot_len();
                assert!(
                    rolled_back == synced_len
                        || (synced_len == 0 && rolled_back == FILE_HEADER_LEN),
                    "{what}: snapshot is {rolled_back} bytes, was {synced_len} before the fold"
                );
            }
            // The one-shot fault has passed: the retry goes through.
            store
                .flush()
                .unwrap_or_else(|e| panic!("{what}: retry failed: {e}"));
            synced_len = snapshot_len();
        }
        assert_eq!(store.persist_stats().records_folded, 2, "{what}");
        drop(store);

        let scan = scan_file(&snapshot_path(&dir), SNAPSHOT_MAGIC).unwrap();
        assert_eq!(scan.truncated_bytes, 0, "{what}");
        let labels: Vec<&str> = scan.entries.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["a", "b"], "{what}: each id once, in commit order");
        let recovered =
            ProfileStore::open_durable_config(&dir, config(), PersistOptions::default()).unwrap();
        assert_eq!(recovered.len(), 2, "{what}");
        let p = recovered.persist_stats();
        assert_eq!(
            (p.snapshot_records_loaded, p.wal_records_replayed),
            (2, 0),
            "{what}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
