//! Multi-profile analysis store: the batch layer above the per-run
//! analyzer.
//!
//! The paper's workflow analyzes one measurement at a time
//! (`hpcrun-sim` → `hpcprof-sim`). Real tuning sessions accumulate
//! *many* runs — variants, thread counts, machines — and re-derive the
//! same expensive artifacts (reports, views, diffs) over and over. This
//! crate adds:
//!
//! * **Content-addressed ingestion through one admission path**
//!   ([`ProfileStore::ingest_batch`], [`ProfileStore::ingest_dir`],
//!   [`ProfileStore::ingest_binary`], [`ProfileStore::ingest_profile`],
//!   ...): every entry point decodes and hashes its input outside every
//!   lock and hands the prepared rows to the single insert → commit →
//!   rollback tail in the `admit` module. Every input is a codec
//!   container (a profile file, a wire payload, an assembled stream); a
//!   profile is stored under the FNV-1a hash of its canonical
//!   re-encoding ([`ProfileId::of`]), so duplicate runs dedup to one copy
//!   however they arrived, and those same bytes are the only form the
//!   store hashes or logs. The store
//!   never reads JSON; it only renders it (`Query::ReportJson`).
//! * **Hash-sharded shelves**: profiles live in N shard shelves keyed
//!   by `content_hash & (N-1)`, each behind its own `RwLock`, so
//!   concurrent ingests and queries touching different shards never
//!   contend. All CPU work — decoding, canonical encoding, FNV-1a
//!   hashing — happens *before* any lock is taken; a shard write lock covers one
//!   hash-map insert and a vec push.
//! * **Cross-run merging** ([`ProfileStore::aggregate`]): pooled
//!   [`MetricSet`](numa_profiler::MetricSet)s, per-variable totals keyed by name (VarIds are not
//!   stable across runs), and normalized \[min,max\]-reduced address
//!   coverage — the §7.2 reduction lifted from threads to runs.
//! * **Memoized queries** ([`ProfileStore::query`]): derived artifacts
//!   are cached in a sharded LRU keyed by `(scope hash, query)` with
//!   hit/miss/insertion/eviction counters ([`ProfileStore::cache_stats`]).
//! * **Group-commit durability** ([`ProfileStore::open_durable`]): WAL
//!   appends are queued to a dedicated persister thread that batches
//!   pending records and flushes once per batch (see the `persist`
//!   module docs); startup replay decodes records in file order and
//!   re-admits them through the same tail.
//!
//! The CLI front end is `hpcd-client` in the `numa-tools` crate, over
//! a daemon (`--addr`) or a store opened in-process (`--dir` /
//! `--data-dir`).

mod admit;
mod aggregate;
mod cache;
mod hash;
mod persist;
#[cfg(test)]
mod resolve_tests;
pub mod snapshot;
pub mod stream;
pub mod wal;

pub use aggregate::{aggregate, CrossRunAggregate, VarAggregate};
pub use cache::{CacheStats, MemoCache};
pub use hash::{fnv1a, mix, ProfileId};
/// The profile codec, for front ends that read and write profile files
/// without a dependency edge of their own.
pub use numa_codec as codec;

use numa_analysis::{analyze, diff, render_cct, AnalysisReport, Analyzer};
use numa_engine::Engine;
use numa_obs::{Counter, Registry};
use numa_profiler::{NumaProfile, RangeScope};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{
    Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// Store-level failures. Parse failures during batch ingestion do not
/// abort the batch — they are collected per input in [`BatchReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Input bytes were not a valid profile.
    Parse { label: String, message: String },
    /// A query referenced a profile id the store does not hold.
    UnknownProfile(ProfileId),
    /// A reference (id prefix or label) matched nothing.
    NoMatch(String),
    /// A reference matched more than one stored profile. Candidates are
    /// `(id, label)` pairs so callers can disambiguate.
    Ambiguous {
        needle: String,
        candidates: Vec<(ProfileId, String)>,
    },
    /// A set-level query was issued against an empty store.
    EmptyStore,
    /// A query referenced a variable the profile never recorded.
    UnknownVariable(String),
    /// A durable store could not log the operation: the WAL append or
    /// its group commit failed, the uncommitted log tail was rolled
    /// back, and the operation was **not** applied — the caller may
    /// retry once the underlying condition (full disk, I/O error)
    /// clears. An ingest is never acknowledged-then-dropped.
    Persist { message: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Parse { label, message } => {
                write!(f, "cannot parse profile {label:?}: {message}")
            }
            StoreError::UnknownProfile(id) => write!(f, "no profile {id} in the store"),
            StoreError::NoMatch(needle) => write!(f, "{needle:?} matches no stored profile"),
            StoreError::Ambiguous { needle, candidates } => {
                write!(
                    f,
                    "{needle:?} is ambiguous: {} profiles match",
                    candidates.len()
                )?;
                for (id, label) in candidates.iter().take(8) {
                    write!(f, "\n  {id}  {label}")?;
                }
                if candidates.len() > 8 {
                    write!(f, "\n  ... and {} more", candidates.len() - 8)?;
                }
                Ok(())
            }
            StoreError::EmptyStore => write!(f, "the store holds no profiles"),
            StoreError::UnknownVariable(name) => {
                write!(f, "variable {name:?} not present in the profile")
            }
            StoreError::Persist { message } => {
                write!(f, "ingest not durable (operation rolled back): {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One ingested profile: the parsed measurement plus its identity.
pub struct StoredProfile {
    pub id: ProfileId,
    /// Where the profile came from (file name, CLI label, ...). Purely
    /// informational; identity is `id`. An `Arc<str>` so listings and
    /// candidate rows share it instead of cloning the string.
    pub label: Arc<str>,
    /// The parsed measurement, behind an `Arc` so analyzers and the
    /// attribution engine share the one stored copy.
    pub profile: Arc<NumaProfile>,
    /// Length of the canonical codec bytes `id` is the hash of — what
    /// the profile occupies in the WAL and the snapshot.
    pub codec_bytes: usize,
    /// Attribution engine (interned symbols + columnar index), built on
    /// first query and shared by every analyzer handed out afterwards.
    engine: OnceLock<Arc<Engine>>,
    /// The analysis report, built on the first report query: a pure
    /// function of the immutable profile, so every later rendering —
    /// text or JSON, after any cache eviction — starts from it.
    report: OnceLock<Arc<AnalysisReport>>,
}

impl StoredProfile {
    fn new(id: ProfileId, label: &str, profile: NumaProfile, codec_bytes: usize) -> Self {
        StoredProfile {
            id,
            label: Arc::from(label),
            profile: Arc::new(profile),
            codec_bytes,
            engine: OnceLock::new(),
            report: OnceLock::new(),
        }
    }

    /// The shared [`Engine`] over this profile. The index is built at
    /// most once; callers get a cheap `Arc` clone, never a profile copy.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(
            self.engine
                .get_or_init(|| Arc::new(Engine::new(Arc::clone(&self.profile)))),
        )
    }

    /// An analyzer over the shared [`Engine`].
    pub fn analyzer(&self) -> Analyzer {
        Analyzer::from_engine(self.engine())
    }

    /// The shared analysis report of this profile: `analyze` runs at
    /// most once, on the first call; callers get an `Arc` clone.
    pub fn report(&self) -> Arc<AnalysisReport> {
        Arc::clone(
            self.report
                .get_or_init(|| Arc::new(analyze(&self.analyzer()))),
        )
    }
}

/// One row of [`ProfileStore::entries`]: the listing-relevant facts
/// about a stored profile. The label is a shared `Arc<str>` — listing
/// never clones profile contents or label bytes.
#[derive(Clone, Debug)]
pub struct ProfileListEntry {
    pub id: ProfileId,
    pub label: Arc<str>,
    pub threads: usize,
    pub codec_bytes: usize,
}

/// Outcome of one batch ingestion.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Ids of newly added profiles, in input order.
    pub added: Vec<ProfileId>,
    /// Inputs that hashed to an already-stored profile.
    pub deduplicated: usize,
    /// Inputs that failed to parse: (label, typed error — always
    /// [`StoreError::Parse`]). Typed, not stringly: callers telling a
    /// bad input apart from a failed disk no longer match on message
    /// prose.
    pub rejected: Vec<(String, StoreError)>,
    /// Inputs that could not be read at all: (label, I/O error). Only
    /// populated by file-based ingestion ([`ProfileStore::ingest_dir`]);
    /// an unreadable file skips that file, never the batch.
    pub io_errors: Vec<(String, String)>,
    /// Inputs that parsed but could not be made durable: (label, typed
    /// error — always [`StoreError::Persist`]). The profile was **not**
    /// added — the WAL group holding it failed and was rolled back, so
    /// the input can be retried once the underlying condition clears.
    pub persist_failures: Vec<(String, StoreError)>,
}

impl BatchReport {
    /// Fold another report (e.g. one directory chunk) into this one.
    pub fn merge(&mut self, other: BatchReport) {
        self.added.extend(other.added);
        self.deduplicated += other.deduplicated;
        self.rejected.extend(other.rejected);
        self.io_errors.extend(other.io_errors);
        self.persist_failures.extend(other.persist_failures);
    }
}

/// A derived artifact, memoized by the store.
#[derive(Debug)]
pub enum Artifact {
    Text(String),
    Aggregate(CrossRunAggregate),
}

impl Artifact {
    /// The textual form every artifact can render to.
    pub fn text(&self) -> String {
        match self {
            Artifact::Text(s) => s.clone(),
            Artifact::Aggregate(a) => a.render(),
        }
    }

    pub fn as_aggregate(&self) -> Option<&CrossRunAggregate> {
        match self {
            Artifact::Aggregate(a) => Some(a),
            Artifact::Text(_) => None,
        }
    }
}

/// A memoizable query. Float-free and hashable by construction so it
/// can key the cache directly.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// Data-centric report (JSON) for one profile.
    ReportJson(ProfileId),
    /// Full text report for one profile: verdict, hot variables, and
    /// their address-centric views.
    TextReport(ProfileId),
    /// Code-centric view: the merged CCT with NUMA metrics. Subtrees
    /// below `min_share_permille`/1000 of program cost are elided.
    CodeView {
        profile: ProfileId,
        min_share_permille: u16,
    },
    /// Address-centric view (JSON) of one variable, by source name.
    AddressView { profile: ProfileId, var: String },
    /// Pairwise diff of two runs, rendered as text.
    Diff { before: ProfileId, after: ProfileId },
    /// Cross-run aggregate over the whole stored set.
    Aggregate,
    /// Top-n hottest variables across the whole stored set.
    TopVariables(usize),
}

impl Query {
    /// Scope hash for queries over explicitly named profiles. Pooled
    /// queries (`Aggregate`, `TopVariables`) have no fixed scope — it is
    /// the hash of the set snapshot they run over (see
    /// [`ProfileStore::query`]).
    fn fixed_scope(&self) -> Option<u64> {
        match self {
            Query::ReportJson(id)
            | Query::TextReport(id)
            | Query::CodeView { profile: id, .. }
            | Query::AddressView { profile: id, .. } => Some(mix(0, id.0)),
            Query::Diff { before, after } => Some(mix(mix(0, before.0), after.0)),
            Query::Aggregate | Query::TopVariables(_) => None,
        }
    }
}

/// Salt folded with each id into the order-insensitive set hash.
const SET_HASH_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Order-insensitive XOR-fold of the ids in `profiles` — equals
/// [`ProfileStore::set_hash`] whenever `profiles` is the full set.
fn pooled_scope(profiles: &[Arc<StoredProfile>]) -> u64 {
    profiles
        .iter()
        .fold(0, |h, sp| h ^ mix(SET_HASH_SALT, sp.id.0))
}

/// One shard's shelf: the profiles whose content hash maps here.
#[derive(Default)]
struct Shelf {
    /// `(global insertion sequence, profile)` — the sequence restores
    /// cross-shard insertion order in listings.
    profiles: Vec<(u64, Arc<StoredProfile>)>,
    by_id: HashMap<ProfileId, usize>,
    /// Order-insensitive combined hash of this shard's ids.
    set_hash: u64,
}

impl Shelf {
    /// Shelve `sp` under insertion sequence `seq`; `false` (and no
    /// change) when its id is already here.
    fn insert(&mut self, seq: u64, sp: Arc<StoredProfile>) -> bool {
        if self.by_id.contains_key(&sp.id) {
            return false;
        }
        // XOR fold: the set hash must not depend on insertion order, so
        // ingesting the same corpus from a directory or a stream yields
        // the same scope key for pooled queries.
        self.set_hash ^= mix(SET_HASH_SALT, sp.id.0);
        self.by_id.insert(sp.id, self.profiles.len());
        self.profiles.push((seq, sp));
        true
    }

    /// Take `id` back off the shelf. O(shelf size) — only a rollback
    /// pays it.
    fn remove(&mut self, id: ProfileId) {
        let Some(slot) = self.by_id.remove(&id) else {
            return;
        };
        self.profiles.remove(slot);
        for idx in self.by_id.values_mut() {
            if *idx > slot {
                *idx -= 1;
            }
        }
        self.set_hash ^= mix(SET_HASH_SALT, id.0);
    }
}

/// A shard: its shelf plus contention accounting.
#[derive(Default)]
struct Shard {
    shelf: RwLock<Shelf>,
    ingests: Counter,
    read_contended: Counter,
    write_contended: Counter,
}

impl Shard {
    /// Read-lock the shelf, counting the acquisition as contended when
    /// it could not be granted immediately. A poisoned lock is taken as
    /// it is (DESIGN.md, "Concurrency model").
    fn read(&self) -> RwLockReadGuard<'_, Shelf> {
        match self.shelf.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.read_contended.inc();
                self.shelf.read().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Write-lock the shelf, counting contended acquisitions.
    fn write(&self) -> RwLockWriteGuard<'_, Shelf> {
        match self.shelf.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.write_contended.inc();
                self.shelf.write().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }
}

/// The sharded shelf set.
struct ShardSet {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: usize,
    /// Global insertion sequence, stamped outside any lock.
    seq: AtomicU64,
}

impl ShardSet {
    fn new(n: usize) -> ShardSet {
        ShardSet {
            shards: (0..n).map(|_| Shard::default()).collect(),
            mask: n - 1,
            seq: AtomicU64::new(0),
        }
    }

    /// The shard a profile id maps to: `content_hash & (N-1)`.
    fn of(&self, id: ProfileId) -> &Shard {
        &self.shards[id.0 as usize & self.mask]
    }

    fn get(&self, id: ProfileId) -> Option<Arc<StoredProfile>> {
        let shelf = self.of(id).read();
        shelf
            .by_id
            .get(&id)
            .map(|&i| Arc::clone(&shelf.profiles[i].1))
    }

    /// Every stored profile, sorted by id — a deterministic order that
    /// does not depend on the shard count or insertion interleaving, so
    /// pooled aggregates are reproducible.
    fn corpus_sorted(&self) -> Vec<Arc<StoredProfile>> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let shelf = shard.read();
            all.extend(shelf.profiles.iter().map(|(_, sp)| Arc::clone(sp)));
        }
        all.sort_by_key(|sp| sp.id.0);
        all
    }
}

/// Sizing knobs for [`ProfileStore::with_config`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Memoized artifacts held by the LRU cache.
    pub cache_capacity: usize,
    /// Shard count; rounded up to a power of two and clamped to
    /// `1..=256`. One shard reproduces the old single-lock store.
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            cache_capacity: ProfileStore::DEFAULT_CACHE_CAPACITY,
            shards: ProfileStore::DEFAULT_SHARDS,
        }
    }
}

/// Tuning knobs for durable stores ([`ProfileStore::open_durable`]).
#[derive(Clone, Debug)]
pub struct PersistOptions {
    /// Compact (fold the WAL into the snapshot and reset it) once the
    /// WAL has grown to this many bytes. A compaction costs what was
    /// committed since the last one, so this bounds replay time and the
    /// framed records the persister keeps for the next fold, not write
    /// volume.
    pub snapshot_wal_bytes: u64,
    /// `fsync` the WAL once per group commit. Off by default: flushing
    /// to the OS already survives a SIGKILL of the daemon; `fsync`
    /// additionally survives power loss at a large per-commit cost. The
    /// flag governs WAL commits only: a compaction always syncs what it
    /// appended to the snapshot, because the WAL reset that follows
    /// depends on it.
    pub fsync: bool,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            snapshot_wal_bytes: 4 << 20,
            fsync: false,
        }
    }
}

/// Persistence counters: what recovery found at startup plus runtime
/// append/compaction activity. All zeros for in-memory stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Whether the store is backed by a data directory.
    pub durable: bool,
    /// Records loaded from the snapshot at startup.
    pub snapshot_records_loaded: u64,
    /// Records replayed from the WAL at startup.
    pub wal_records_replayed: u64,
    /// Torn/corrupt WAL tail bytes dropped at startup.
    pub wal_truncated_bytes: u64,
    /// Torn/corrupt snapshot tail bytes dropped at startup.
    pub snapshot_truncated_bytes: u64,
    /// Replayed records whose payload no longer decoded (checksum held,
    /// so this indicates a codec-format change, not bit rot).
    pub replay_parse_failures: u64,
    /// Records appended to the WAL since startup.
    pub wal_appends: u64,
    /// Group commits: WAL flushes that made a batch of appends durable.
    /// `wal_appends / wal_group_commits` is the achieved batching
    /// factor (1.0 when every ingest commits alone).
    pub wal_group_commits: u64,
    /// Current WAL size in bytes (file header included).
    pub wal_bytes: u64,
    /// Snapshot compactions performed since startup (flushes included).
    pub snapshots_written: u64,
    /// Current snapshot size in bytes (file header included; 0 until the
    /// first compaction creates it).
    pub snapshot_bytes: u64,
    /// Profile records compactions appended to the snapshot since
    /// startup. Write amplification is (bytes appended to the WAL +
    /// bytes folded into the snapshot) / acknowledged bytes.
    pub records_folded: u64,
    /// Append/compaction I/O failures. A failed append fails its whole
    /// commit group: the log tail is rolled back and every affected
    /// ingest returns [`StoreError::Persist`] instead of being
    /// acknowledged. The store keeps serving reads from memory.
    pub io_errors: u64,
}

/// Per-shard accounting row of [`ProfileStore::shard_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Profiles resident in this shard.
    pub profiles: usize,
    /// Ingests that landed in this shard (dedup hits excluded).
    pub ingests: u64,
    /// Shelf read-lock acquisitions that had to block.
    pub read_contended: u64,
    /// Shelf write-lock acquisitions that had to block.
    pub write_contended: u64,
}

/// The store: hash-sharded profiles plus the memo cache over them,
/// optionally backed by a WAL + snapshot data directory.
pub struct ProfileStore {
    shards: ShardSet,
    cache: MemoCache<(u64, Query), Artifact>,
    dedup_hits: Counter,
    parse_failures: Counter,
    /// Group-commit persister; unset for in-memory stores. Ingest paths
    /// never hold a shelf lock while talking to it.
    persist: OnceLock<persist::Persister>,
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ProfileStore {
    /// Stop the persister (committing anything queued) and join it, so
    /// a dropped store leaves the WAL exactly as acknowledged.
    fn drop(&mut self) {
        if let Some(p) = self.persist.get() {
            p.stop();
        }
    }
}

/// One persistence series: name, help, whether it is a gauge (else a
/// counter), and the [`PersistStats`] field it reads at scrape time.
type PersistMetric = (&'static str, &'static str, bool, fn(&PersistStats) -> u64);

/// The persistence series [`ProfileStore::register_metrics`] exposes,
/// in exposition order.
#[rustfmt::skip]
const PERSIST_METRICS: [PersistMetric; 11] = [
    ("numa_store_wal_appends_total", "Records appended to the WAL since startup.", false, |p| p.wal_appends),
    ("numa_store_wal_group_commits_total", "WAL group commits since startup.", false, |p| p.wal_group_commits),
    ("numa_store_wal_bytes", "Current WAL size in bytes (header included).", true, |p| p.wal_bytes),
    ("numa_store_snapshots_written_total", "Snapshot compactions performed since startup.", false, |p| p.snapshots_written),
    ("numa_store_snapshot_bytes", "Current snapshot size in bytes (header included).", true, |p| p.snapshot_bytes),
    ("numa_store_records_folded_total", "Profile records compactions appended to the snapshot since startup.", false, |p| p.records_folded),
    ("numa_store_persist_io_errors_total", "WAL append / compaction I/O failures.", false, |p| p.io_errors),
    ("numa_store_snapshot_records_loaded", "Records loaded from the snapshot at startup.", false, |p| p.snapshot_records_loaded),
    ("numa_store_wal_records_replayed", "Records replayed from the WAL at startup.", false, |p| p.wal_records_replayed),
    ("numa_store_truncated_bytes", "Torn or corrupt tail bytes dropped at startup, WAL plus snapshot.", false, |p| p.wal_truncated_bytes + p.snapshot_truncated_bytes),
    ("numa_store_replay_parse_failures", "Replayed records whose payload no longer decoded.", false, |p| p.replay_parse_failures),
];

impl ProfileStore {
    /// Default number of memoized artifacts.
    pub const DEFAULT_CACHE_CAPACITY: usize = 256;

    /// Default shard count. Eight shards keep the per-shard lock nearly
    /// uncontended for the daemon's default `--workers` while costing a
    /// few hundred bytes of fixed overhead.
    pub const DEFAULT_SHARDS: usize = 8;

    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    pub fn with_cache_capacity(capacity: usize) -> Self {
        Self::with_config(StoreConfig {
            cache_capacity: capacity,
            ..StoreConfig::default()
        })
    }

    pub fn with_config(config: StoreConfig) -> Self {
        let shards = config.shards.clamp(1, 256).next_power_of_two();
        ProfileStore {
            shards: ShardSet::new(shards),
            cache: MemoCache::new(config.cache_capacity),
            dedup_hits: Counter::new(),
            parse_failures: Counter::new(),
            persist: OnceLock::new(),
        }
    }

    /// Number of shard shelves (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.shards.len()
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Open a durable store on `dir` with the default shard count: load
    /// the snapshot, replay the WAL (truncating at the first
    /// torn/corrupt record), and attach the group-commit persister so
    /// every later ingest is logged before it is acknowledged. Recovery
    /// counts are available via [`ProfileStore::persist_stats`].
    ///
    /// A snapshot or WAL whose complete header is not this build's fails
    /// the open with an [`io::ErrorKind::InvalidData`] error wrapping
    /// [`wal::UnsupportedHeader`], before anything is written: ids from
    /// other format revisions hash a different serialization, so such a
    /// directory is refused, never truncated, replayed or compacted over.
    pub fn open_durable(
        dir: &Path,
        cache_capacity: usize,
        opts: PersistOptions,
    ) -> io::Result<ProfileStore> {
        Self::open_durable_config(
            dir,
            StoreConfig {
                cache_capacity,
                ..StoreConfig::default()
            },
            opts,
        )
    }

    /// [`ProfileStore::open_durable`] with explicit store sizing.
    /// Replay decodes snapshot + WAL records and admits them in file
    /// order through the same tail live ingests use.
    pub fn open_durable_config(
        dir: &Path,
        config: StoreConfig,
        opts: PersistOptions,
    ) -> io::Result<ProfileStore> {
        Self::open_durable_config_with(dir, config, opts, Arc::new(numa_faults::StdStorage))
    }

    /// [`ProfileStore::open_durable_config`] over an explicit
    /// [`numa_faults::Storage`] backend. Production callers use
    /// [`numa_faults::StdStorage`] (what the plain constructors do);
    /// tests and the `--fault-spec` daemon flag pass a
    /// [`numa_faults::FaultyStorage`] to inject I/O failures into every
    /// persistence path — recovery scans, WAL appends, snapshot
    /// compaction, directory fsyncs — without touching this code.
    pub fn open_durable_config_with(
        dir: &Path,
        config: StoreConfig,
        opts: PersistOptions,
        storage: Arc<dyn numa_faults::Storage>,
    ) -> io::Result<ProfileStore> {
        std::fs::create_dir_all(dir)?;
        let store = Self::with_config(config);
        let mut base = PersistStats {
            durable: true,
            ..PersistStats::default()
        };

        let snap = snapshot::load_snapshot_with(&*storage, dir)?;
        base.snapshot_records_loaded = snap.entries.len() as u64;
        base.snapshot_truncated_bytes = snap.truncated_bytes;
        let log = wal::scan_file_with(&*storage, &wal::wal_path(dir), wal::WAL_MAGIC)?;
        base.wal_records_replayed = log.entries.len() as u64;
        base.wal_truncated_bytes = log.truncated_bytes;

        // The persister is not attached yet, so replayed inserts do not
        // re-append to the WAL.
        let unfolded = store.recover(snap.entries, log.entries, &mut base);

        let open_writer = |path: &Path, magic, valid_len| {
            wal::WalWriter::open_with(&*storage, path, magic, valid_len, opts.fsync)
        };
        // A snapshot that exists is cut to its intact prefix now; one
        // that does not is created by the first fold, not here.
        let snapshot = (snap.valid_len + snap.truncated_bytes > 0)
            .then(|| {
                open_writer(
                    &snapshot::snapshot_path(dir),
                    wal::SNAPSHOT_MAGIC,
                    snap.valid_len,
                )
            })
            .transpose()?;
        let recovered = persist::Recovered {
            wal: open_writer(&wal::wal_path(dir), wal::WAL_MAGIC, log.valid_len)?,
            snapshot,
            unfolded,
            stats: base,
        };
        let persister = persist::Persister::spawn(dir.to_path_buf(), recovered, opts, storage)?;
        let _ = store.persist.set(persister);
        Ok(store)
    }

    /// Whether this store is backed by a data directory.
    pub fn is_durable(&self) -> bool {
        self.persist.get().is_some()
    }

    /// Persistence counters (all-zero default for in-memory stores).
    pub fn persist_stats(&self) -> PersistStats {
        self.persist.get().map(|p| p.stats()).unwrap_or_default()
    }

    /// Adopt every store counter into `registry` under the
    /// `numa_store_` prefix: the memo-cache and ingest counters are
    /// cloned handles of the hot-path storage, per-shard rows become
    /// `{shard="N"}` labeled series, and persistence stats are closure
    /// collectors over [`ProfileStore::persist_stats`] (they read the
    /// persister's own accounting at scrape time).
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        self.cache.register_metrics(registry);
        registry.counter(
            "numa_store_dedup_hits_total",
            "Ingests dropped because an identical profile was already stored.",
            &[],
            self.dedup_hits.clone(),
        );
        registry.counter(
            "numa_store_parse_failures_total",
            "Ingest payloads rejected as unparseable.",
            &[],
            self.parse_failures.clone(),
        );
        for (i, shard) in self.shards.shards.iter().enumerate() {
            let label = i.to_string();
            registry.counter(
                "numa_store_shard_ingests_total",
                "Fresh profiles inserted, by shard.",
                &[("shard", &label)],
                shard.ingests.clone(),
            );
            registry.counter(
                "numa_store_shard_read_contended_total",
                "Shelf read-lock acquisitions that had to block, by shard.",
                &[("shard", &label)],
                shard.read_contended.clone(),
            );
            registry.counter(
                "numa_store_shard_write_contended_total",
                "Shelf write-lock acquisitions that had to block, by shard.",
                &[("shard", &label)],
                shard.write_contended.clone(),
            );
            let store = Arc::clone(self);
            registry.gauge_fn(
                "numa_store_shard_profiles",
                "Profiles resident, by shard.",
                &[("shard", &label)],
                move || store.shards.shards[i].read().profiles.len() as i64,
            );
        }
        let store = Arc::clone(self);
        registry.gauge_fn(
            "numa_store_profiles",
            "Profiles resident in the store.",
            &[],
            move || store.len() as i64,
        );
        let store = Arc::clone(self);
        registry.gauge_fn(
            "numa_store_codec_bytes",
            "Canonical codec bytes of the stored set: its WAL and snapshot footprint, framing aside.",
            &[],
            move || store.codec_bytes() as i64,
        );
        let store = Arc::clone(self);
        registry.gauge_fn(
            "numa_store_cached_artifacts",
            "Artifacts resident in the memo cache.",
            &[],
            move || store.cache.len() as i64,
        );
        for (name, help, gauge, field) in PERSIST_METRICS {
            let store = Arc::clone(self);
            if gauge {
                registry.gauge_fn(name, help, &[], move || {
                    field(&store.persist_stats()) as i64
                });
            } else {
                registry.counter_fn(name, help, &[], move || field(&store.persist_stats()));
            }
        }
    }

    /// Force a snapshot compaction now: fold every profile committed
    /// since the last one into the snapshot and reset the WAL. A no-op
    /// for in-memory stores. Call on daemon shutdown so restart recovery
    /// is a pure snapshot load.
    pub fn flush(&self) -> io::Result<()> {
        match self.persist.get() {
            None => Ok(()),
            Some(p) => p.flush(),
        }
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    pub fn len(&self) -> usize {
        self.shards
            .shards
            .iter()
            .map(|s| s.read().profiles.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical codec bytes of the stored set.
    fn codec_bytes(&self) -> usize {
        self.shards
            .shards
            .iter()
            .map(|s| {
                s.read()
                    .profiles
                    .iter()
                    .map(|(_, p)| p.codec_bytes)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Ids in insertion order (merged across shards by their global
    /// insertion sequence).
    pub fn ids(&self) -> Vec<ProfileId> {
        let mut rows: Vec<(u64, ProfileId)> = Vec::new();
        for shard in &self.shards.shards {
            let shelf = shard.read();
            rows.extend(shelf.profiles.iter().map(|(seq, sp)| (*seq, sp.id)));
        }
        rows.sort_unstable_by_key(|(seq, _)| *seq);
        rows.into_iter().map(|(_, id)| id).collect()
    }

    /// Listing rows in insertion order. Each shard is snapshotted under
    /// its own read lock; rows are cheap `(id, Arc<str> label, counts)`
    /// tuples — no profile contents are cloned.
    pub fn entries(&self) -> Vec<ProfileListEntry> {
        let mut rows: Vec<(u64, ProfileListEntry)> = Vec::new();
        for shard in &self.shards.shards {
            let shelf = shard.read();
            rows.extend(shelf.profiles.iter().map(|(seq, sp)| {
                (
                    *seq,
                    ProfileListEntry {
                        id: sp.id,
                        label: Arc::clone(&sp.label),
                        threads: sp.profile.threads.len(),
                        codec_bytes: sp.codec_bytes,
                    },
                )
            }));
        }
        rows.sort_unstable_by_key(|(seq, _)| *seq);
        rows.into_iter().map(|(_, e)| e).collect()
    }

    pub fn get(&self, id: ProfileId) -> Option<Arc<StoredProfile>> {
        self.shards.get(id)
    }

    /// Resolve a CLI-style reference: a hex id prefix or a label.
    ///
    /// A needle matching several stored profiles (a short hex prefix,
    /// or a label two runs share) is a typed
    /// [`StoreError::Ambiguous`] listing every candidate — never a
    /// silent first-match pick. A full 16-digit id always resolves
    /// unambiguously, even if it collides with another profile's label.
    ///
    /// A full id — what `list` prints and every script passes on — is
    /// one [`ProfileStore::get`]. Anything else is one pass over the
    /// shelves in which only a match is cloned: a prefix is compared
    /// with the id's top bits, never with its formatted text.
    pub fn resolve(&self, needle: &str) -> Result<Arc<StoredProfile>, StoreError> {
        if let Some(sp) = needle.parse().ok().and_then(|id| self.get(id)) {
            return Ok(sp);
        }
        // A hex prefix of 1–15 digits as (value, bits below it); the
        // empty needle prefixes every id; a 16-digit needle that was not
        // found above — like anything `Display` never prints (uppercase,
        // a sign, whitespace) — can only be a label.
        let prefix = hash::lower_hex(needle)
            .filter(|_| needle.len() < 16)
            .map(|value| (value, 64 - 4 * needle.len() as u32));
        let id_matches = |id: ProfileId| match prefix {
            Some((value, shift)) => id.0 >> shift == value,
            None => needle.is_empty(),
        };
        let mut matches: Vec<(u64, Arc<StoredProfile>)> = Vec::new();
        for shard in &self.shards.shards {
            let shelf = shard.read();
            matches.extend(
                shelf
                    .profiles
                    .iter()
                    .filter(|(_, p)| &*p.label == needle || id_matches(p.id))
                    .map(|(seq, p)| (*seq, Arc::clone(p))),
            );
        }
        matches.sort_unstable_by_key(|(seq, _)| *seq);
        match matches.as_slice() {
            [] => Err(StoreError::NoMatch(needle.to_string())),
            [(_, one)] => Ok(Arc::clone(one)),
            many => Err(StoreError::Ambiguous {
                needle: needle.to_string(),
                candidates: many
                    .iter()
                    .map(|(_, p)| (p.id, p.label.to_string()))
                    .collect(),
            }),
        }
    }

    /// Order-insensitive content hash of the stored set (the XOR of the
    /// per-shard hashes); pooled cache entries are scoped under it, so
    /// any ingestion that changes the set automatically invalidates them
    /// (old entries age out via LRU).
    pub fn set_hash(&self) -> u64 {
        self.shards
            .shards
            .iter()
            .map(|s| s.read().set_hash)
            .fold(0, |a, b| a ^ b)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Answer a query, memoized. The artifact is built at most once per
    /// `(scope, query)` key and shared via `Arc` thereafter.
    ///
    /// Pooled queries probe under the live [`ProfileStore::set_hash`]
    /// first — a hit costs the shard read locks and an XOR, not a copy
    /// of the corpus. A hit is never stale: an ingest is shelved (its
    /// shard's hash changed) before it is acknowledged, so a query
    /// issued after the ack reads a hash no earlier entry was stored
    /// under. Only a miss snapshots the set, and it keys the insert by
    /// the hash of *that snapshot*, so the cached artifact always
    /// matches its scope key even when ingests race the query.
    pub fn query(&self, q: Query) -> Result<Arc<Artifact>, StoreError> {
        if let Some(scope) = q.fixed_scope() {
            return self
                .cache
                .get_or_try_insert((scope, q.clone()), || self.build(&q));
        }
        if let Some(hit) = self.cache.get(&(self.set_hash(), q.clone())) {
            return Ok(hit);
        }
        let profiles = self.snapshot()?;
        let scope = pooled_scope(&profiles);
        self.cache.get_or_try_insert((scope, q.clone()), || {
            Ok(match &q {
                Query::TopVariables(n) => Artifact::Text(aggregate(&profiles).top_variables(*n)),
                _ => Artifact::Aggregate(aggregate(&profiles)),
            })
        })
    }

    /// Uncached artifact construction for fixed-scope queries; pooled
    /// ones are answered by [`ProfileStore::query`] over its snapshot.
    /// Per-profile analyses borrow the stored profile through its shared
    /// [`Engine`], and both report renderings start from its shared
    /// [`StoredProfile::report`] — no profile is ever cloned and no
    /// profile is analyzed twice; the memo cache amortizes the rendering.
    fn build(&self, q: &Query) -> Result<Artifact, StoreError> {
        let text = match q {
            Query::ReportJson(id) => self.stored(*id)?.report().to_json(),
            Query::TextReport(id) => {
                let sp = self.stored(*id)?;
                sp.report().render_full(&sp.analyzer())
            }
            Query::CodeView {
                profile,
                min_share_permille,
            } => render_cct(
                &self.stored(*profile)?.analyzer(),
                *min_share_permille as f64 / 1000.0,
            ),
            Query::AddressView { profile, var } => {
                let a = self.stored(*profile)?.analyzer();
                let id = a
                    .var_named(var)
                    .ok_or_else(|| StoreError::UnknownVariable(var.clone()))?;
                numa_analysis::export_address_view(&a, id, RangeScope::Program)
            }
            Query::Diff { before, after } => {
                let b = self.stored(*before)?.analyzer();
                let a = self.stored(*after)?.analyzer();
                diff(&b, &a).render()
            }
            Query::Aggregate | Query::TopVariables(_) => {
                unreachable!("pooled queries have no fixed scope")
            }
        };
        Ok(Artifact::Text(text))
    }

    /// Cross-run aggregate over the current set (memoized).
    pub fn aggregate(&self) -> Result<Arc<Artifact>, StoreError> {
        self.query(Query::Aggregate)
    }

    fn stored(&self, id: ProfileId) -> Result<Arc<StoredProfile>, StoreError> {
        self.get(id).ok_or(StoreError::UnknownProfile(id))
    }

    /// The current corpus, sorted by id (a deterministic order across
    /// shard counts and interleavings).
    fn snapshot(&self) -> Result<Vec<Arc<StoredProfile>>, StoreError> {
        let profiles = self.shards.corpus_sorted();
        if profiles.is_empty() {
            return Err(StoreError::EmptyStore);
        }
        Ok(profiles)
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every memoized artifact (counters persist). Used to measure
    /// cold-path cost and to bound memory in long sessions.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Per-shard accounting rows (profiles resident, ingests served,
    /// contended lock acquisitions).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .shards
            .iter()
            .map(|s| ShardStats {
                profiles: s.read().profiles.len(),
                ingests: s.ingests.get(),
                read_contended: s.read_contended.get(),
                write_contended: s.write_contended.get(),
            })
            .collect()
    }
}
