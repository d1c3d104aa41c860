//! Cross-format store behavior: one profile gets one id however it
//! arrives — the struct, codec bytes, a non-canonical container, a
//! chunked stream — and `ingest_dir` keeps non-UTF-8 file names
//! distinguishable.

use numa_engine::Engine;
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_obs::{parse_exposition, Registry};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use numa_store::stream::{assemble, split_profile};
use numa_store::wal::{scan_file, wal_path, WAL_MAGIC};
use numa_store::{fnv1a, PersistOptions, ProfileId, ProfileStore, StoreError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
    let mut p = Program::new(machine, 4, profiler.clone());
    let size = 1u64 << 18;
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("q", size, PlacementPolicy::FirstTouch);
        ctx.store_range(base, size / 64, 64);
    });
    for _ in 0..rounds {
        p.parallel("kernel._omp", |tid, ctx| {
            let chunk = size / 4;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
    }
    finish_profile(p, profiler)
}

/// Three distinct profiles, generated once per test process (sampling
/// is interval-randomized, so regenerating would not reproduce the same
/// content).
fn corpus() -> &'static [NumaProfile; 3] {
    static CORPUS: OnceLock<[NumaProfile; 3]> = OnceLock::new();
    CORPUS.get_or_init(|| [profile(1), profile(2), profile(3)])
}

/// Corpus profile `i` as a profile file holds it: its codec container.
fn file_bytes(i: usize) -> Vec<u8> {
    numa_codec::encode_profile(&corpus()[i])
}

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "numa-fmt-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn open(dir: &Path) -> ProfileStore {
    ProfileStore::open_durable(dir, 16, PersistOptions::default()).expect("open durable store")
}

/// The store's series, as a daemon's exposition carries them.
fn scrape(store: &Arc<ProfileStore>) -> BTreeMap<String, i128> {
    let registry = Registry::new();
    store.register_metrics(&registry);
    parse_exposition(&registry.render()).expect("exposition parses")
}

#[test]
fn binary_ingest_dedups_with_struct_ingest_and_shares_one_id() {
    let store = ProfileStore::new();
    let bytes = file_bytes(0);

    let (struct_id, added) = store
        .ingest_profile("as-struct", corpus()[0].clone())
        .unwrap();
    assert!(added);
    // The same content arriving as codec bytes is the same profile.
    let (bin_id, added) = store.ingest_binary("as-binary", &bytes).unwrap();
    assert!(!added);
    assert_eq!(struct_id, bin_id);
    assert_eq!(store.len(), 1);

    // Queries against a binary-only ingest answer identically to the
    // struct ingest of the same profile (the engine consumes the decoded
    // scalar columns).
    let fresh = ProfileStore::new();
    let (id2, added) = fresh.ingest_binary("bin-only", &bytes).unwrap();
    assert!(added);
    assert_eq!(id2, struct_id);
    assert_eq!(
        fresh.aggregate().unwrap().text(),
        store.aggregate().unwrap().text()
    );
}

/// The engine's index survives a codec round trip of its profile:
/// building from the decoded container answers exactly what building
/// from the original does (guards against index state that depends on
/// in-memory-only artifacts like CCT lookup tables).
#[test]
fn index_is_stable_across_codec_roundtrip() {
    for (i, p) in corpus().iter().enumerate() {
        let back = numa_codec::decode_profile(&file_bytes(i)).unwrap();
        let a = Engine::new(Arc::new(p.clone()));
        let b = Engine::new(Arc::new(back));
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.index().var_columns(), b.index().var_columns());
        assert!(a.merged_cct() == b.merged_cct());
    }
}

#[test]
fn binary_ingest_rejects_garbage_with_typed_parse_error() {
    let store = Arc::new(ProfileStore::new());
    let err = store.ingest_binary("junk", b"not a container").unwrap_err();
    assert!(
        matches!(&err, StoreError::Parse { label, .. } if label == "junk"),
        "{err:?}"
    );
    assert_eq!(store.len(), 0);
    assert_eq!(scrape(&store)["numa_store_parse_failures_total"], 1);
}

#[test]
fn binary_ingests_replay_across_reopen() {
    let dir = scratch("bin-reopen");
    let oracle = ProfileStore::new();
    for (i, p) in corpus().iter().enumerate() {
        oracle
            .ingest_profile(&format!("run-{i}"), p.clone())
            .unwrap();
    }
    {
        let store = open(&dir);
        for i in 0..corpus().len() {
            store
                .ingest_binary(&format!("run-{i}"), &file_bytes(i))
                .unwrap();
        }
        assert_eq!(store.set_hash(), oracle.set_hash());
        // No flush: replay must come from binary WAL records.
    }
    let store = open(&dir);
    assert_eq!(store.len(), 3);
    assert_eq!(store.set_hash(), oracle.set_hash());
    assert_eq!(&*store.resolve("run-2").unwrap().label, "run-2");
    assert_eq!(
        store.aggregate().unwrap().text(),
        oracle.aggregate().unwrap().text()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A codec container that decodes to the same profile without being
/// its canonical encoding: it carries a trailing section id this build
/// does not know, which the codec skips. (Reordered sections are the
/// codec's own property test, `numa-codec/tests/canonical.rs`.)
fn non_canonical(canonical: &[u8]) -> Vec<u8> {
    let mut out = canonical.to_vec();
    out.extend_from_slice(&[0x7F, 0, 0, 0, 3, b'n', b'e', b'w']);
    out
}

/// The identity this store promises: one profile ingested as the
/// struct, as its canonical codec bytes, as a non-canonical container
/// and as a stream of reversed chunks gets one id and three dedups; that
/// id is `ProfileId::of`'s (the benchmark harness's oracle); and the WAL
/// holds the canonical bytes, once.
#[test]
fn one_profile_in_four_formats_gets_one_id_and_one_canonical_record() {
    let p = &corpus()[0];
    let (id, canonical) = ProfileId::of(p);
    assert_eq!(id.0, fnv1a(&canonical));
    assert_eq!(canonical, numa_codec::encode_profile(p));
    let odd = non_canonical(&canonical);
    assert_ne!(
        fnv1a(&odd),
        id.0,
        "the container as sent hashes differently"
    );

    let dir = scratch("four-formats");
    let store = Arc::new(open(&dir.join("db")));

    assert_eq!(
        store.ingest_profile("struct", p.clone()).unwrap(),
        (id, true)
    );
    assert_eq!(store.ingest_binary("bin", &canonical).unwrap(), (id, false));
    assert_eq!(store.ingest_binary("odd", &odd).unwrap(), (id, false));
    let mut chunks = split_profile(p, 1);
    chunks.reverse(); // header last, threads in reverse tid order
    let sealed = store.ingest_profile("streamed", assemble(chunks).unwrap());
    assert_eq!(sealed.unwrap(), (id, false));

    let stats = scrape(&store);
    assert_eq!(store.len(), 1);
    assert_eq!(stats["numa_store_dedup_hits_total"], 3);
    assert_eq!(stats["numa_store_codec_bytes"], canonical.len() as i128);
    drop(store);
    let log = scan_file(&wal_path(&dir.join("db")), WAL_MAGIC).unwrap();
    assert_eq!(log.entries.len(), 1);
    assert_eq!(
        (log.entries[0].content_hash, &log.entries[0].bytes),
        (id.0, &canonical)
    );

    // A non-canonical container that arrives *first* is still logged as
    // its canonical re-encoding, never as sent.
    let store = open(&dir.join("odd-first"));
    assert_eq!(store.ingest_binary("odd", &odd).unwrap(), (id, true));
    drop(store);
    let log = scan_file(&wal_path(&dir.join("odd-first")), WAL_MAGIC).unwrap();
    assert!(matches!(log.entries.as_slice(), [r]
        if r.label == "odd" && r.content_hash == id.0 && r.bytes == canonical));
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn ingest_dir_disambiguates_non_utf8_labels() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let dir = scratch("nonutf8");
    std::fs::create_dir_all(&dir).unwrap();
    // Two distinct non-UTF-8 names whose lossy conversion collides on
    // "run-\u{FFFD}.hpcrun".
    let name_a = OsStr::from_bytes(b"run-\xFF.hpcrun");
    let name_b = OsStr::from_bytes(b"run-\xFE.hpcrun");
    std::fs::write(dir.join(name_a), file_bytes(0)).unwrap();
    std::fs::write(dir.join(name_b), file_bytes(1)).unwrap();

    let store = ProfileStore::new();
    let report = store.ingest_dir(&dir).unwrap();
    assert_eq!(report.added.len(), 2, "{report:?}");
    assert!(report.rejected.is_empty() && report.io_errors.is_empty());

    let labels: Vec<String> = store
        .entries()
        .iter()
        .map(|e| e.label.to_string())
        .collect();
    assert_eq!(labels.len(), 2);
    // The labels must differ — the raw-name hash suffix disambiguates
    // what lossy conversion collapsed.
    assert_ne!(labels[0], labels[1]);
    for label in &labels {
        assert!(
            label.starts_with("run-\u{FFFD}.hpcrun#"),
            "unexpected label {label:?}"
        );
        // Each label resolves to exactly one profile (no ambiguity).
        store.resolve(label).unwrap();
    }
    // A plain UTF-8 name keeps its unsuffixed label.
    std::fs::write(dir.join("plain.hpcrun"), file_bytes(2)).unwrap();
    store.ingest_dir(&dir).unwrap();
    assert_eq!(
        &*store.resolve("plain.hpcrun").unwrap().label,
        "plain.hpcrun"
    );
    std::fs::remove_dir_all(&dir).ok();
}
