//! Durability tests for the persistent store: reopen round-trips, folding
//! the WAL into the append-only snapshot, and fault injection —
//! truncating the log at arbitrary offsets and flipping arbitrary bytes
//! must never panic and must recover exactly the intact-record prefix.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use numa_store::snapshot::snapshot_path;
use numa_store::stream::{assemble, split_profile};
use numa_store::wal::{
    encode_bin_record, encode_file_header, scan_file, wal_path, UnsupportedHeader, FILE_HEADER_LEN,
    PERSIST_VERSION, SNAPSHOT_MAGIC, WAL_MAGIC,
};
use numa_store::{fnv1a, PersistOptions, ProfileId, ProfileStore};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A small profile; `rounds` varies the content hash. Sampling inside
/// the simulated profiler is interval-randomized, so two calls with the
/// same `rounds` produce *different* content — tests that need the same
/// profile twice must build it once and reuse it (see [`profiles`]).
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = std::rc::Rc::new(NumaProfiler::new(machine.clone(), config, 4));
    let mut p = Program::new(machine, 4, profiler.clone());
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
/// test (and every proptest case) ingests bit-identical content and
/// cross-store hash comparisons are meaningful.
fn profiles() -> &'static [NumaProfile; 4] {
    static PROFILES: OnceLock<[NumaProfile; 4]> = OnceLock::new();
    PROFILES.get_or_init(|| [profile(1), profile(2), profile(3), profile(4)])
}

/// [`profiles`] as codec bytes, as profile files hold them.
fn corpus() -> &'static [Vec<u8>; 4] {
    static CORPUS: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    CORPUS.get_or_init(|| profiles().each_ref().map(numa_codec::encode_profile))
}

/// Fresh scratch dir per call, unique across tests and proptest cases.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "numa-wal-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open(dir: &Path, opts: PersistOptions) -> ProfileStore {
    ProfileStore::open_durable(dir, 16, opts).expect("open durable store")
}

#[test]
fn durable_store_round_trips_across_reopen() {
    let dir = scratch("reopen");
    let oracle = ProfileStore::new();
    {
        let store = open(&dir, PersistOptions::default());
        for (r, bytes) in corpus().iter().enumerate() {
            store.ingest_binary(&format!("run-{r}"), bytes).unwrap();
            oracle.ingest_binary(&format!("run-{r}"), bytes).unwrap();
        }
        assert!(store.is_durable());
        assert_eq!(store.set_hash(), oracle.set_hash());
        // No flush, no clean shutdown: everything must live in the WAL.
    }
    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.len(), 4);
    assert_eq!(store.set_hash(), oracle.set_hash());
    let p = store.persist_stats();
    assert_eq!(p.wal_records_replayed, 4);
    assert_eq!(p.snapshot_records_loaded, 0);
    assert_eq!(p.wal_truncated_bytes, 0);
    // Labels survive the round trip too.
    assert_eq!(&*store.resolve("run-3").unwrap().label, "run-3");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flush_compacts_wal_into_snapshot() {
    let dir = scratch("flush");
    let oracle = ProfileStore::new();
    {
        let store = open(&dir, PersistOptions::default());
        store.ingest_binary("a", &corpus()[0]).unwrap();
        store.ingest_binary("b", &corpus()[1]).unwrap();
        oracle.ingest_binary("a", &corpus()[0]).unwrap();
        oracle.ingest_binary("b", &corpus()[1]).unwrap();
        store.flush().unwrap();
        assert!(store.persist_stats().snapshots_written >= 1);
    }
    // After a flush the WAL holds nothing but its header.
    let scan = scan_file(&wal_path(&dir), WAL_MAGIC).unwrap();
    assert!(scan.entries.is_empty());
    assert_eq!(scan.truncated_bytes, 0);

    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.len(), 2);
    assert_eq!(store.set_hash(), oracle.set_hash());
    let p = store.persist_stats();
    assert_eq!(p.snapshot_records_loaded, 2);
    assert_eq!(p.wal_records_replayed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_threshold_compacts_automatically() {
    let dir = scratch("auto-compact");
    let opts = PersistOptions {
        snapshot_wal_bytes: 1, // every append crosses the threshold
        ..PersistOptions::default()
    };
    let store = open(&dir, opts);
    for (r, bytes) in corpus().iter().enumerate().take(3) {
        store.ingest_binary(&format!("run-{r}"), bytes).unwrap();
    }
    assert!(store.persist_stats().snapshots_written >= 3);
    drop(store);
    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.len(), 3);
    assert_eq!(store.persist_stats().snapshot_records_loaded, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_does_not_reappend_records() {
    let dir = scratch("no-reappend");
    {
        let store = open(&dir, PersistOptions::default());
        store.ingest_binary("in-snapshot", &corpus()[0]).unwrap();
        store.flush().unwrap();
        store.ingest_binary("in-wal", &corpus()[1]).unwrap();
    }
    let files = || {
        (
            std::fs::read(wal_path(&dir)).unwrap(),
            std::fs::read(snapshot_path(&dir)).unwrap(),
        )
    };
    let once = files();
    {
        // Reopen + replay must leave the directory byte-identical:
        // replayed inserts are already durable, so nothing is
        // re-appended, rewritten or compacted.
        let store = open(&dir, PersistOptions::default());
        assert_eq!(store.len(), 2);
    }
    assert!(once == files(), "a reopen changed the data directory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_content_is_not_persisted_twice() {
    let dir = scratch("dedup");
    {
        let store = open(&dir, PersistOptions::default());
        store.ingest_binary("a", &corpus()[0]).unwrap();
        store.ingest_binary("a-again", &corpus()[0]).unwrap(); // same content hash
        assert_eq!(store.len(), 1);
    }
    let scan = scan_file(&wal_path(&dir), WAL_MAGIC).unwrap();
    assert_eq!(scan.entries.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sealed stream — the assembled chunks through `ingest_profile`, which
/// is all a seal is — replays as the profile a one-shot ingest stores.
/// A stream that never seals was never handed to the store, so there is
/// nothing of it to drop.
#[test]
fn sealed_sessions_replay_and_unsealed_are_dropped() {
    let dir = scratch("sessions");
    let oracle = ProfileStore::new();
    oracle.ingest_binary("streamed", &corpus()[0]).unwrap();
    let a = &profiles()[0];
    {
        let store = open(&dir, PersistOptions::default());
        let (_, added) = store
            .ingest_profile("streamed", assemble(split_profile(a, 2)).unwrap())
            .unwrap();
        assert!(added);
        // The sealed stream is byte-identical to one-shot ingest: same
        // set hash, and re-ingesting the original bytes dedups.
        assert_eq!(store.set_hash(), oracle.set_hash());
        let (_, again) = store.ingest_binary("streamed", &corpus()[0]).unwrap();
        assert!(!again);
        // No flush: recovery must come from the WAL.
    }
    // One record, the one `ingest_binary` of the same profile writes.
    let (id, canonical) = ProfileId::of(a);
    let mut expect = encode_file_header(WAL_MAGIC).to_vec();
    expect.extend_from_slice(&encode_bin_record("streamed", &canonical, id.0));
    assert!(std::fs::read(wal_path(&dir)).unwrap() == expect);

    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.ids(), vec![id]);
    assert_eq!(store.set_hash(), oracle.set_hash());
    assert_eq!(&*store.resolve("streamed").unwrap().label, "streamed");
    assert_eq!(
        store.aggregate().unwrap().text(),
        oracle.aggregate().unwrap().text()
    );
    assert_eq!(store.persist_stats().wal_records_replayed, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// An id acknowledged before a SIGKILL-style stop (no flush, no clean
/// shutdown) is the id listed after the reopen — recovered from the WAL
/// alone, and again from the snapshot alone — with the set hash equal
/// and the listing in commit order both times: a sealed stream is logged
/// where its seal was acknowledged, and a fold appends in commit order.
#[test]
fn acked_ids_are_the_ids_listed_after_a_reopen() {
    let dir = scratch("acked-ids");
    let labels = ["as-struct", "streamed", "as-binary"];
    let (acked, set_hash) = {
        let store = open(&dir, PersistOptions::default());
        let profile = profiles()[0].clone();
        let mut acked = vec![store.ingest_profile(labels[0], profile).unwrap().0];
        let sealed = assemble(split_profile(&profiles()[2], 1)).unwrap();
        acked.push(store.ingest_profile(labels[1], sealed).unwrap().0);
        acked.push(store.ingest_binary(labels[2], &corpus()[1]).unwrap().0);
        (acked, store.set_hash())
    };
    let listed = |store: &ProfileStore| -> Vec<String> {
        let entries = store.entries();
        entries.iter().map(|e| e.label.to_string()).collect()
    };
    // WAL only: three profile records.
    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.persist_stats().snapshot_records_loaded, 0);
    assert_eq!(store.ids(), acked);
    assert_eq!(listed(&store), labels);
    assert_eq!(store.set_hash(), set_hash);
    store.flush().unwrap();
    drop(store);
    // Snapshot only: the flush emptied the WAL.
    let store = open(&dir, PersistOptions::default());
    let p = store.persist_stats();
    assert_eq!((p.snapshot_records_loaded, p.wal_records_replayed), (3, 0));
    assert_eq!(store.ids(), acked);
    assert_eq!(listed(&store), labels);
    assert_eq!(store.set_hash(), set_hash);
    std::fs::remove_dir_all(&dir).ok();
}

/// The ways a complete header can fail to be this build's, over a
/// non-empty WAL and over a non-empty snapshot: `open_durable` returns
/// the typed refusal and both files are byte-for-byte what they were.
#[test]
fn foreign_headers_refuse_the_open_and_leave_both_files_untouched() {
    let dir = scratch("foreign");
    {
        let store = open(&dir, PersistOptions::default());
        store.ingest_binary("in-snapshot", &corpus()[0]).unwrap();
        store.flush().unwrap();
        store.ingest_binary("in-wal", &corpus()[1]).unwrap();
    }
    let files = || {
        (
            std::fs::read(wal_path(&dir)).unwrap(),
            std::fs::read(snapshot_path(&dir)).unwrap(),
        )
    };
    let intact = files();
    assert!(intact.0.len() > 8 && intact.1.len() > 8);

    for (path, magic) in [
        (wal_path(&dir), WAL_MAGIC),
        (snapshot_path(&dir), SNAPSHOT_MAGIC),
    ] {
        let ours = encode_file_header(magic);
        let good = std::fs::read(&path).unwrap();
        // Two older versions — the previous one could hold session
        // records this build cannot replay — a newer one, another magic,
        // a reserved word.
        for (at, value) in [
            (5, 3),
            (5, PERSIST_VERSION as u8 - 1),
            (5, PERSIST_VERSION as u8 + 1),
            (0, b'h'),
            (7, 1),
        ] {
            let mut damaged = good.clone();
            damaged[at] = value;
            std::fs::write(&path, &damaged).unwrap();
            let before = files();
            let err = ProfileStore::open_durable(&dir, 16, PersistOptions::default())
                .err()
                .unwrap_or_else(|| panic!("{path:?} byte {at}={value} must refuse the open"));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let refusal = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<UnsupportedHeader>())
                .unwrap_or_else(|| panic!("untyped refusal: {err}"));
            assert_eq!(refusal.path, path);
            assert_eq!(refusal.found[..], damaged[..8]);
            assert_eq!(refusal.supported, ours);
            // Nothing unreadable is written over, and the readable
            // sibling is not compacted or truncated either.
            assert!(before == files(), "{path:?} byte {at}={value}");
        }
        std::fs::write(&path, good).unwrap();
    }
    // With both headers restored the directory opens as if never touched.
    assert!(intact == files());
    assert_eq!(open(&dir, PersistOptions::default()).len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A well-framed record of a retired kind — 2 was the session seal, 4 the
/// session chunk — under this build's header is no record this format
/// defines: the log is cut there like any torn tail, the prefix before
/// it kept and the cut counted, and the store stays writable.
#[test]
fn a_retired_record_kind_under_this_header_is_a_torn_tail() {
    for kind in [2u8, 4] {
        let dir = scratch("retired-kind");
        {
            let store = open(&dir, PersistOptions::default());
            store.ingest_binary("kept", &corpus()[0]).unwrap();
        }
        let intact = std::fs::read(wal_path(&dir)).unwrap();
        let mut body = vec![kind];
        body.extend_from_slice(&7u64.to_be_bytes()); // session
        body.extend_from_slice(&0u64.to_be_bytes()); // seq / chunk count
        body.extend_from_slice(b"payload");
        let mut framed = (body.len() as u32).to_be_bytes().to_vec();
        // The checksum a v6 scan verifies: kind, a zero label_len (the
        // session's top bytes) and the eight bytes after it.
        framed.extend_from_slice(&fnv1a(&body[..13]).to_be_bytes());
        framed.extend_from_slice(&body);
        let mut bytes = intact.clone();
        bytes.extend_from_slice(&framed);
        // A good record after it is unreachable: the scan stops at the cut.
        bytes.extend_from_slice(&record_of("after", 1).1);
        std::fs::write(wal_path(&dir), &bytes).unwrap();

        let store = open(&dir, PersistOptions::default());
        assert_eq!(store.len(), 1, "kind {kind}");
        assert_eq!(&*store.resolve("kept").unwrap().label, "kept");
        let p = store.persist_stats();
        assert_eq!(p.wal_records_replayed, 1, "kind {kind}");
        assert_eq!(
            p.wal_truncated_bytes,
            (bytes.len() - intact.len()) as u64,
            "kind {kind}"
        );
        assert!(std::fs::read(wal_path(&dir)).unwrap() == intact);
        store.ingest_binary("next", &corpus()[2]).unwrap();
        drop(store);
        assert_eq!(open(&dir, PersistOptions::default()).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The profile records of the snapshot in `dir`, in file order, with
/// the scan's intact length and torn-tail byte count.
fn snapshot_records(dir: &Path) -> (Vec<(String, u64)>, u64, u64) {
    let scan = scan_file(&snapshot_path(dir), SNAPSHOT_MAGIC).unwrap();
    let records = scan
        .entries
        .iter()
        .map(|r| (r.label.clone(), r.content_hash))
        .collect();
    (records, scan.valid_len, scan.truncated_bytes)
}

/// `profiles()[k]` as the record a fold (or an ingest) frames it as.
fn record_of(label: &str, k: usize) -> (ProfileId, Vec<u8>) {
    let (id, bytes) = ProfileId::of(&profiles()[k]);
    (id, encode_bin_record(label, &bytes, id.0))
}

/// A snapshot as the full-rewrite compaction wrote it — every record
/// sorted by id — is the same format: it opens as is, takes ingests,
/// and the next fold appends after it without touching a byte of it.
#[test]
fn an_id_sorted_snapshot_opens_and_is_folded_on_top_of() {
    let dir = scratch("id-sorted");
    std::fs::create_dir_all(&dir).unwrap();
    let mut old: Vec<(ProfileId, Vec<u8>)> =
        (0..3).map(|k| record_of(&format!("old-{k}"), k)).collect();
    old.sort_by_key(|(id, _)| *id);
    let mut file = encode_file_header(SNAPSHOT_MAGIC).to_vec();
    for (_, record) in &old {
        file.extend_from_slice(record);
    }
    std::fs::write(snapshot_path(&dir), &file).unwrap();

    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.persist_stats().snapshot_records_loaded, 3);
    let old_ids: Vec<ProfileId> = old.iter().map(|(id, _)| *id).collect();
    assert_eq!(store.ids(), old_ids);
    let (new_id, new_record) = record_of("new", 3);
    assert_eq!(store.ingest_binary("new", &corpus()[3]).unwrap().0, new_id);
    store.flush().unwrap();
    let p = store.persist_stats();
    assert_eq!(p.records_folded, 1);
    assert_eq!(p.snapshot_bytes, (file.len() + new_record.len()) as u64);
    let (len, set_hash) = (store.len(), store.set_hash());
    drop(store);

    file.extend_from_slice(&new_record);
    assert!(std::fs::read(snapshot_path(&dir)).unwrap() == file);
    let store = open(&dir, PersistOptions::default());
    assert_eq!((store.len(), store.set_hash()), (len, set_hash));
    let p = store.persist_stats();
    assert_eq!((p.snapshot_records_loaded, p.wal_records_replayed), (4, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn snapshot tail (a crash mid-fold) is physically cut at open
/// and counted; the next fold appends right after the intact prefix.
#[test]
fn a_torn_snapshot_tail_is_truncated_at_open_and_folded_past() {
    let dir = scratch("torn-snapshot");
    {
        let store = open(&dir, PersistOptions::default());
        store.ingest_binary("kept", &corpus()[0]).unwrap();
        store.flush().unwrap();
    }
    let intact = std::fs::read(snapshot_path(&dir)).unwrap();
    let mut torn = intact.clone();
    let (next_id, next_record) = record_of("next", 1);
    torn.extend_from_slice(&next_record[..next_record.len() / 2]);
    std::fs::write(snapshot_path(&dir), &torn).unwrap();

    let store = open(&dir, PersistOptions::default());
    let p = store.persist_stats();
    assert_eq!(p.snapshot_records_loaded, 1);
    assert_eq!(
        p.snapshot_truncated_bytes,
        (torn.len() - intact.len()) as u64
    );
    assert_eq!(p.snapshot_bytes, intact.len() as u64);
    assert!(std::fs::read(snapshot_path(&dir)).unwrap() == intact);
    assert_eq!(
        store.ingest_binary("next", &corpus()[1]).unwrap().0,
        next_id
    );
    store.flush().unwrap();
    drop(store);
    let mut expect = intact;
    expect.extend_from_slice(&next_record);
    assert!(std::fs::read(snapshot_path(&dir)).unwrap() == expect);
    let store = open(&dir, PersistOptions::default());
    assert_eq!(store.len(), 2);
    assert_eq!(store.persist_stats().snapshot_truncated_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash after a fold synced the snapshot but before it reset the WAL
/// leaves the folded records in both files. Replay dedups them, and the
/// next fold must not append them a second time.
#[test]
fn records_folded_before_a_crash_are_not_folded_again() {
    let dir = scratch("fold-crash");
    let store = open(&dir, PersistOptions::default());
    store.ingest_binary("a", &corpus()[0]).unwrap();
    store.ingest_binary("b", &corpus()[1]).unwrap();
    let full_wal = std::fs::read(wal_path(&dir)).unwrap();
    store.flush().unwrap();
    drop(store);
    // The WAL reset "never happened".
    std::fs::write(wal_path(&dir), &full_wal).unwrap();
    let folded = std::fs::metadata(snapshot_path(&dir)).unwrap().len();

    let store = open(&dir, PersistOptions::default());
    let p = store.persist_stats();
    assert_eq!((p.snapshot_records_loaded, p.wal_records_replayed), (2, 2));
    assert_eq!(store.len(), 2);
    let (_, c_record) = record_of("c", 2);
    store.ingest_binary("c", &corpus()[2]).unwrap();
    store.flush().unwrap();
    assert_eq!(store.persist_stats().records_folded, 1);
    drop(store);
    let (records, valid_len, torn) = snapshot_records(&dir);
    assert_eq!((valid_len, torn), (folded + c_record.len() as u64, 0));
    let labels: Vec<&str> = records.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels, ["a", "b", "c"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fold is a byte copy: with size-triggered compaction off, the
/// snapshot a flush creates holds exactly the records the WAL held — also
/// when a reopen before the fold recovered them and framed them again.
#[test]
fn a_fold_writes_the_bytes_the_wal_committed() {
    let no_auto_fold = || PersistOptions {
        snapshot_wal_bytes: u64::MAX,
        ..PersistOptions::default()
    };
    for reopen in [false, true] {
        let dir = scratch("fold-copy");
        let mut store = open(&dir, no_auto_fold());
        for (r, bytes) in corpus().iter().enumerate().take(3) {
            store.ingest_binary(&format!("run-{r}"), bytes).unwrap();
        }
        let logged = std::fs::read(wal_path(&dir)).unwrap()[8..].to_vec();
        assert_eq!(
            scan_file(&wal_path(&dir), WAL_MAGIC).unwrap().entries.len(),
            3
        );
        if reopen {
            drop(store);
            store = open(&dir, no_auto_fold());
        }
        store.flush().unwrap();
        let snapshot = std::fs::read(snapshot_path(&dir)).unwrap();
        assert!(
            snapshot[8..] == logged[..],
            "reopen before the fold: {reopen}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Ingest the first three corpus profiles one at a time, recording the
/// WAL length after each, so fault-injection tests know exactly where
/// record boundaries fall. Returns (per-record end offsets, per-prefix
/// set hashes) where `set_hashes[k]` covers the first `k` profiles.
fn build_wal(dir: &Path) -> (Vec<u64>, Vec<u64>) {
    let store = open(dir, PersistOptions::default());
    let oracle = ProfileStore::new();
    let mut ends = Vec::new();
    let mut hashes = vec![oracle.set_hash()];
    for (r, bytes) in corpus().iter().enumerate().take(3) {
        store.ingest_binary(&format!("run-{r}"), bytes).unwrap();
        oracle.ingest_binary(&format!("run-{r}"), bytes).unwrap();
        ends.push(std::fs::metadata(wal_path(dir)).unwrap().len());
        hashes.push(oracle.set_hash());
    }
    (ends, hashes)
}

proptest! {
    /// Chop the WAL at an arbitrary byte offset: recovery must never
    /// error and must yield exactly the records that fit entirely
    /// before the cut.
    #[test]
    fn truncation_recovers_intact_prefix(cut_permille in 0u64..1001) {
        let dir = scratch("trunc");
        let (ends, hashes) = build_wal(&dir);
        let full = *ends.last().unwrap();
        let cut = full * cut_permille / 1000;
        let bytes = std::fs::read(wal_path(&dir)).unwrap();
        std::fs::write(wal_path(&dir), &bytes[..cut as usize]).unwrap();

        let intact = ends.iter().filter(|&&e| e <= cut).count();
        let store = open(&dir, PersistOptions::default());
        prop_assert_eq!(store.len(), intact);
        prop_assert_eq!(store.set_hash(), hashes[intact]);
        let p = store.persist_stats();
        prop_assert_eq!(p.wal_records_replayed, intact as u64);
        // A cut inside the 8-byte file header invalidates the whole
        // file (all `cut` bytes are damage); otherwise damage is what
        // lies between the intact prefix and the cut.
        let intact_end = if intact == 0 { FILE_HEADER_LEN } else { ends[intact - 1] };
        let expect_damage = if cut < FILE_HEADER_LEN { cut } else { cut - intact_end };
        prop_assert_eq!(p.wal_truncated_bytes, expect_damage);

        // The reopened writer resumes from the intact prefix: a fresh
        // ingest after damage must survive the next reopen.
        store.ingest_binary("after-damage", &corpus()[3]).unwrap();
        let expect = store.set_hash();
        drop(store);
        let store = open(&dir, PersistOptions::default());
        prop_assert_eq!(store.len(), intact + 1);
        prop_assert_eq!(store.set_hash(), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flip one byte anywhere in the WAL: recovery must never panic,
    /// and any record at or after the flipped byte is discarded while
    /// everything before it survives.
    #[test]
    fn single_byte_corruption_recovers_prefix(pos_permille in 0u64..1000, xor in 1u16..256) {
        let dir = scratch("flip");
        let (ends, hashes) = build_wal(&dir);
        let full = *ends.last().unwrap();
        let pos = (full * pos_permille / 1000) as usize;
        let mut bytes = std::fs::read(wal_path(&dir)).unwrap();
        bytes[pos] ^= xor as u8;
        std::fs::write(wal_path(&dir), &bytes).unwrap();

        // Records strictly before the flipped byte are untouched; the
        // record containing it fails its checksum (FNV-1a maps a fixed
        // single-byte substitution to a different hash) or, if the flip
        // hits the file header, the file is no longer this build's: the
        // open is refused and the log left exactly as found.
        if (pos as u64) < FILE_HEADER_LEN {
            let err = ProfileStore::open_durable(&dir, 16, PersistOptions::default())
                .err()
                .expect("a damaged header refuses the open");
            prop_assert!(err.get_ref().is_some_and(|e| e.is::<UnsupportedHeader>()), "{err}");
            prop_assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), bytes);
        } else {
            let store = open(&dir, PersistOptions::default());
            let intact = ends.iter().filter(|&&e| e <= pos as u64).count();
            prop_assert_eq!(store.len(), intact);
            prop_assert_eq!(store.set_hash(), hashes[intact]);
            let p = store.persist_stats();
            // Everything from the end of the intact prefix on is damage.
            let intact_end = if intact == 0 { FILE_HEADER_LEN } else { ends[intact - 1] };
            prop_assert_eq!(p.wal_truncated_bytes, full - intact_end);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any sequence of ingests, streamed sessions, flushes, size-triggered
    /// folds and SIGKILL-style restarts: the snapshot only ever grows by
    /// appending (each observed file is a byte-prefix of the next), holds
    /// each id once, and snapshot ∪ WAL is exactly the acknowledged set —
    /// which a reopen lists in the order it was acknowledged.
    #[test]
    fn the_snapshot_only_grows_and_with_the_wal_holds_the_acked_set(
        ops in prop::collection::vec(0u8..7, 6..14),
    ) {
        static POOL: OnceLock<Vec<NumaProfile>> = OnceLock::new();
        // Distinct content per entry: a profiled run is a pure function
        // of its inputs, so equal round counts would dedup.
        let pool = POOL.get_or_init(|| (1..=14).map(profile).collect());
        let dir = scratch("fold-prop");
        // About two records: folds trigger inside the sequence.
        let opts = || PersistOptions {
            snapshot_wal_bytes: 2 * numa_codec::encode_profile(&pool[0]).len() as u64,
            ..PersistOptions::default()
        };
        let mut store = open(&dir, opts());
        let mut acked: Vec<ProfileId> = Vec::new();
        let mut previous: Vec<u8> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let fresh = &pool[acked.len()];
            let label = format!("op-{i}");
            match op {
                0 | 1 => acked.push(store.ingest_profile(&label, fresh.clone()).unwrap().0),
                2 if !acked.is_empty() => {
                    // Content already stored: dedups, appends nothing.
                    let again = pool[i % acked.len()].clone();
                    prop_assert!(!store.ingest_profile(&label, again).unwrap().1);
                }
                3 | 4 => {
                    let sealed = assemble(split_profile(fresh, 1 + i % 3)).unwrap();
                    acked.push(store.ingest_profile(&label, sealed).unwrap().0);
                }
                5 => store.flush().unwrap(),
                _ => {
                    drop(store);
                    store = open(&dir, opts());
                    prop_assert_eq!(store.ids(), acked.clone());
                }
            }
            let now = std::fs::read(snapshot_path(&dir)).unwrap_or_default();
            prop_assert!(now.starts_with(&previous), "op {i} ({op}) rewrote the snapshot");
            previous = now;
            let (records, _, torn) = snapshot_records(&dir);
            prop_assert_eq!(torn, 0);
            let mut held: HashSet<u64> = HashSet::new();
            for (label, id) in &records {
                prop_assert!(held.insert(*id), "op {i}: {label} is in the snapshot twice");
            }
            for record in scan_file(&wal_path(&dir), WAL_MAGIC).unwrap().entries {
                held.insert(record.content_hash);
            }
            prop_assert_eq!(&held, &acked.iter().map(|id| id.0).collect::<HashSet<u64>>());
        }
        drop(store);
        let store = open(&dir, PersistOptions::default());
        prop_assert_eq!(store.ids(), acked);
        std::fs::remove_dir_all(&dir).ok();
    }
}
