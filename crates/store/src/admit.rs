//! Admission: the one way a profile enters the store.
//!
//! Every public entry point — [`ProfileStore::ingest_profile`],
//! [`ProfileStore::ingest_bytes`], [`ProfileStore::ingest_binary`],
//! [`ProfileStore::ingest_batch`], [`ProfileStore::commit_sealed`] — and
//! startup replay is an adapter that prepares [`Admission`] rows outside
//! every lock (parse, encode canonically, hash) and hands them to
//! `ProfileStore::admit_all`, which owns the insert → commit → rollback
//! tail once. JSON stops at the adapters ([`ProfileStore::ingest_bytes`],
//! [`ProfileStore::ingest_batch`], [`ProfileStore::ingest_dir`]): it is
//! parsed to the struct before anything is hashed, so below them the
//! store hashes, stages and logs codec bytes only.

use crate::persist::{AppendError, AppendResult, Persister};
use crate::{
    stream, wal, BatchReport, PersistStats, ProfileId, ProfileStore, StoreError, StoredProfile,
};
use numa_obs::trace;
use numa_profiler::NumaProfile;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Files per [`ProfileStore::ingest_dir`] read-and-parse chunk: bounds
/// buffered bytes while still letting rayon parse a chunk in parallel.
const INGEST_DIR_CHUNK: usize = 32;

/// One profile prepared for admission: the stored form (which carries
/// the id) plus the canonical codec bytes the id is the hash of — the
/// payload a fresh row is logged with.
pub(crate) struct Admission {
    sp: Arc<StoredProfile>,
    bytes: Vec<u8>,
}

impl Admission {
    /// Encode `profile` canonically and hash those bytes — the crate's
    /// one [`ProfileId::of`] call, so the content id has a single
    /// definition.
    fn prepare(label: &str, profile: NumaProfile) -> Self {
        let (id, bytes) = ProfileId::of(&profile);
        let sp = StoredProfile::new(id, label, profile, bytes.len());
        Admission {
            sp: Arc::new(sp),
            bytes,
        }
    }

    /// A recovered profile record as a row. No re-hash: the id was
    /// computed at ingest time and the record is checksum-protected, so
    /// it is trusted as recorded — the cost of replay is the columnar
    /// decode the caller already did.
    fn recorded(r: wal::BinProfileRecord, profile: NumaProfile) -> Self {
        let id = ProfileId(r.content_hash);
        let sp = StoredProfile::new(id, &r.label, profile, r.bytes.len());
        Admission {
            sp: Arc::new(sp),
            bytes: r.bytes,
        }
    }
}

/// How [`ProfileStore::admit_all`] makes its fresh rows durable.
#[derive(Clone, Copy)]
enum Commit {
    /// One binary profile record per fresh row, all in one commit group.
    Record,
    /// A seal record over the chunks `session` staged (single row).
    Seal { session: u64 },
}

/// Reassemble one sealed session recovered from disk. `None` (drop the
/// session) when chunks are missing, fail to parse, do not assemble, or
/// the assembled profile's canonical bytes do not hash to the seal's
/// content hash.
fn assemble_sealed(seal: &wal::SealRecord, mut parts: BTreeMap<u64, Vec<u8>>) -> Option<Admission> {
    // Chunks past the sealed count are orphans of appends whose ack
    // reported failure (the record hit disk but its group did not
    // commit); the seal's prefix is what was acknowledged, so only it
    // counts.
    parts.split_off(&seal.chunks);
    if parts.len() as u64 != seal.chunks {
        return None; // missing chunks
    }
    let chunks: Vec<stream::ChunkPayload> = parts
        .values()
        .map(|bytes| stream::ChunkPayload::from_binary(bytes).ok())
        .collect::<Option<Vec<_>>>()?;
    let profile = stream::assemble(chunks).ok()?;
    let row = Admission::prepare(&seal.label, profile);
    // Assembled bytes that disagree with the sealed hash drop the session.
    (row.sp.id.0 == seal.content_hash).then_some(row)
}

fn persist_error(e: impl fmt::Display) -> StoreError {
    StoreError::Persist {
        message: e.to_string(),
    }
}

impl ProfileStore {
    // ------------------------------------------------------------------
    // The tail
    // ------------------------------------------------------------------

    /// Admit prepared rows: insert each into its shard, commit the fresh
    /// ones as a single WAL group, and remove exactly the rows whose
    /// commit failed. One outcome per row, in input order: `Ok(true)`
    /// added, `Ok(false)` deduplicated against a content-identical
    /// profile, `Err` [`StoreError::Persist`] — the row is **not** in
    /// the store and, the log tail having been truncated too, can
    /// simply be retried. In-memory stores (and replay, which runs
    /// before the persister is attached) stop after the insert.
    ///
    /// Insert comes *before* persist, on purpose. The fold that
    /// discards a row's WAL record first appends the profile to the
    /// snapshot, and it gets the profile by looking the committed id up
    /// on its shelf — possibly in the same persister step that commits
    /// the record, before this call has seen its ack. Inserting first
    /// guarantees that lookup finds it; ack ⇒ durable then needs only
    /// the rollback below.
    ///
    /// Known caveat: a concurrent identical ingest can dedup against an
    /// insert whose commit then fails — it reports `Ok(false)` for a
    /// profile that ends up absent. Closing that window would mean
    /// holding a shard lock across I/O.
    fn admit_all(&self, rows: &[Admission], commit: Commit) -> Vec<Result<bool, StoreError>> {
        let mut out: Vec<Result<bool, StoreError>> =
            rows.iter().map(|row| Ok(self.insert(&row.sp))).collect();
        let fresh: Vec<usize> = (0..rows.len())
            .filter(|&i| matches!(out[i], Ok(true)))
            .collect();
        let Some(p) = self.persist.get().filter(|_| !fresh.is_empty()) else {
            return out;
        };
        let sealed = match commit {
            Commit::Record => None,
            Commit::Seal { session } => match self.append_seal(p, session, &rows[fresh[0]].sp) {
                // A failed compaction lost the chunks this seal counts
                // on, so the persister refused it. The assembled profile
                // is in hand: drop the refused seal so no later
                // compaction re-stages it, and commit an ordinary record
                // instead, restoring the durability the chunks lost.
                Err(AppendError::SessionPoisoned) => {
                    self.discard_session(session);
                    None
                }
                ack => Some(vec![ack]),
            },
        };
        let acks = sealed.unwrap_or_else(|| {
            let fresh_rows: Vec<&Admission> = fresh.iter().map(|&i| &rows[i]).collect();
            Self::persist_batch(p, &fresh_rows)
        });
        for (&i, ack) in fresh.iter().zip(acks) {
            if let Err(e) = ack {
                self.shards.of(rows[i].sp.id).write().remove(rows[i].sp.id);
                out[i] = Err(persist_error(e));
            }
        }
        out
    }

    /// [`ProfileStore::admit_all`] for one row, in the public
    /// `(id, newly_added)` shape.
    fn admit(&self, row: Admission, commit: Commit) -> Result<(ProfileId, bool), StoreError> {
        let id = row.sp.id;
        let outcome = self.admit_all(&[row], commit).pop();
        outcome
            .expect("one outcome per row")
            .map(|added| (id, added))
    }

    /// Insert into the owning shard. Everything expensive (hashing,
    /// canonicalization, allocation) already happened; the write lock
    /// covers a hash-map probe, an insert, and a vec push.
    fn insert(&self, sp: &Arc<StoredProfile>) -> bool {
        let seq = self.shards.seq.fetch_add(1, Ordering::Relaxed);
        trace::note_shard((sp.id.0 as usize & self.shards.mask) as u32);
        let shard = self.shards.of(sp.id);
        let added = shard.write().insert(seq, Arc::clone(sp));
        if added {
            shard.ingests.inc();
        } else {
            self.dedup_hits.inc();
        }
        added
    }

    /// Frame one profile record per row — here, on the ingest thread,
    /// outside every lock — enqueue them all, and block until the
    /// group-commit persister has flushed or failed each.
    fn persist_batch(p: &Persister, rows: &[&Admission]) -> Vec<AppendResult> {
        let records = rows
            .par_iter()
            .map(|row| {
                let record = wal::encode_bin_record(&row.sp.label, &row.bytes, row.sp.id.0);
                (Some(row.sp.id), record)
            })
            .collect_vec();
        let started = Instant::now();
        let acks = p.append_all(records);
        trace::note_wal_ack_us(started.elapsed().as_micros() as u64);
        acks
    }

    /// Append the seal record that makes `session`'s staged chunks
    /// replayable as `sp`.
    fn append_seal(&self, p: &Persister, session: u64, sp: &StoredProfile) -> AppendResult {
        let seal = {
            let mut log = self.session_log.lock();
            let records = log.entry(session).or_default();
            let seal = wal::encode_seal_record(session, records.len() as u64, sp.id.0, &sp.label);
            // Keep the seal alongside the chunks until the commit is
            // settled: a fold racing it re-stages chunks *and* seal
            // together, so the sealed session survives the WAL reset
            // even before the seal append is processed.
            records.push(seal.clone());
            seal
        };
        p.append_seal(seal, session, sp.id)
    }

    // ------------------------------------------------------------------
    // Replay
    // ------------------------------------------------------------------

    /// Rebuild the in-memory set from what recovery scanned, snapshot
    /// entries first and the log on top; content addressing dedups
    /// records present in both. Rows are admitted in file order — a
    /// sealed session where its seal sits — and both files are written
    /// in commit order, so listings after a restart read in the order
    /// the profiles were acknowledged. Profile records decode in
    /// parallel (the expensive part); unsealed or incomplete sessions
    /// are dropped wholesale — a client (or this daemon) that died
    /// mid-stream never half-ingests.
    ///
    /// Returns the ids only the log holds — its rows that admitted as
    /// new — which is what the next fold owes the snapshot.
    pub(crate) fn recover(
        &self,
        snapshot: Vec<wal::WalEntry>,
        log: Vec<wal::WalEntry>,
        stats: &mut PersistStats,
    ) -> Vec<ProfileId> {
        enum Slot {
            Record(wal::BinProfileRecord),
            Seal(wal::SealRecord),
        }
        // Each slot with whether it came off the log.
        let mut slots: Vec<(Slot, bool)> = Vec::new();
        let mut chunks: HashMap<u64, BTreeMap<u64, Vec<u8>>> = HashMap::new();
        for (entries, from_log) in [(snapshot, false), (log, true)] {
            for entry in entries {
                match entry {
                    wal::WalEntry::Profile(r) => slots.push((Slot::Record(r), from_log)),
                    wal::WalEntry::Chunk(c) => {
                        stats.session_chunks_replayed += 1;
                        // BTreeMap insert dedups chunks re-staged by a
                        // fold that raced the original append.
                        chunks
                            .entry(c.session)
                            .or_default()
                            .insert(c.seq, c.payload);
                    }
                    wal::WalEntry::Seal(s) => slots.push((Slot::Seal(s), from_log)),
                }
            }
        }
        let decoded = slots
            .par_iter()
            .map(|(slot, _)| match slot {
                Slot::Record(r) => numa_codec::decode_profile(&r.bytes).ok(),
                Slot::Seal(_) => None,
            })
            .collect_vec();
        let mut rows: Vec<Admission> = Vec::with_capacity(slots.len());
        let mut row_from_log: Vec<bool> = Vec::with_capacity(slots.len());
        for ((slot, from_log), decoded) in slots.into_iter().zip(decoded) {
            let row = match (slot, decoded) {
                (Slot::Record(r), Some(profile)) => Some(Admission::recorded(r, profile)),
                (Slot::Record(_), None) => {
                    stats.replay_parse_failures += 1;
                    None
                }
                (Slot::Seal(seal), _) => {
                    let parts = chunks.remove(&seal.session).unwrap_or_default();
                    let row = assemble_sealed(&seal, parts);
                    match row {
                        Some(_) => stats.sessions_recovered += 1,
                        None => stats.sessions_dropped += 1,
                    }
                    row
                }
            };
            if let Some(row) = row {
                rows.push(row);
                row_from_log.push(from_log);
            }
        }
        stats.sessions_dropped += chunks.len() as u64; // chunks with no seal
        let admitted = self.admit_all(&rows, Commit::Record);
        rows.iter()
            .zip(row_from_log)
            .zip(admitted)
            .filter(|((_, from_log), outcome)| *from_log && matches!(outcome, Ok(true)))
            .map(|((row, _), _)| row.sp.id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Streaming sessions
    // ------------------------------------------------------------------

    /// Stage one binary chunk (see [`stream::ChunkPayload::to_binary`])
    /// of an open streaming session in the WAL and block until the
    /// group-commit persister has it flushed — an acknowledged chunk
    /// survives a SIGKILL of the daemon (it replays if and only if its
    /// session later seals). A no-op for in-memory stores.
    ///
    /// On a persistence failure the chunk is un-staged (the seal's
    /// chunk count must only cover durable chunks) and
    /// [`StoreError::Persist`] is returned; the caller should roll the
    /// session's in-memory state back in step so a retry of the same
    /// sequence number is possible.
    pub fn stage_chunk(&self, session: u64, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let Some(p) = self.persist.get() else {
            return Ok(());
        };
        let record = wal::encode_chunk_record(session, seq, payload);
        // Staged before the append so a compaction racing it re-stages
        // the chunk into the fresh log rather than losing it.
        self.session_log
            .lock()
            .entry(session)
            .or_default()
            .push(record.clone());
        let started = Instant::now();
        let appended = p.append_all(vec![(None, record)]).pop();
        trace::note_wal_ack_us(started.elapsed().as_micros() as u64);
        match appended {
            Some(Err(e)) => {
                let mut log = self.session_log.lock();
                if let Some(records) = log.get_mut(&session) {
                    records.pop();
                    if records.is_empty() {
                        log.remove(&session);
                    }
                }
                Err(persist_error(e))
            }
            _ => Ok(()),
        }
    }

    /// Commit a sealed streaming session: admit the assembled profile
    /// with the seal record that makes the staged chunks replayable as
    /// its commit. The result is indistinguishable from
    /// [`ProfileStore::ingest_profile`] of the same profile — same id,
    /// same set hash, same aggregate text. Returns `(id, newly_added)`;
    /// a dedup (`false`) appends no seal. Whatever the outcome the
    /// session's staged chunks are discarded, so after a
    /// [`StoreError::Persist`] the client re-streams.
    pub fn commit_sealed(
        &self,
        session: u64,
        label: &str,
        profile: NumaProfile,
    ) -> Result<(ProfileId, bool), StoreError> {
        let row = Admission::prepare(label, profile);
        let result = self.admit(row, Commit::Seal { session });
        self.discard_session(session);
        result
    }

    /// Drop a session's staged chunk records (on seal, abort, or lease
    /// reap). Chunks already written to the WAL stay there but are
    /// sealless, so replay discards them; the next compaction stops
    /// re-staging them and physically reclaims the space.
    pub fn discard_session(&self, session: u64) {
        self.session_log.lock().remove(&session);
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Ingest an already-parsed profile. Returns its id and whether it
    /// was new (`false` = content-identical profile already stored). On
    /// durable stores the profile is WAL-committed (flushed to the OS,
    /// group-committed) before the call returns; a persistence failure
    /// returns [`StoreError::Persist`] with the profile rolled back out
    /// of the store.
    pub fn ingest_profile(
        &self,
        label: &str,
        profile: NumaProfile,
    ) -> Result<(ProfileId, bool), StoreError> {
        let row = Admission::prepare(label, profile);
        self.admit(row, Commit::Record)
    }

    /// Ingest one profile serialized as JSON.
    pub fn ingest_bytes(&self, label: &str, json: &str) -> Result<(ProfileId, bool), StoreError> {
        self.admit(self.prepare_json(label, json)?, Commit::Record)
    }

    /// Ingest one binary-codec profile container (the
    /// `caps::BINARY_CODEC` wire path). The buffer is decoded and the
    /// profile's *re-encoding* is what gets hashed and logged, never the
    /// buffer as sent: a container with reordered or unknown sections
    /// (the codec skips them on decode) gets the id of its canonical
    /// form and dedups against it, as does the same profile arriving as
    /// JSON.
    pub fn ingest_binary(
        &self,
        label: &str,
        bytes: &[u8],
    ) -> Result<(ProfileId, bool), StoreError> {
        let profile = numa_codec::decode_profile(bytes).map_err(|e| self.parse_error(label, e))?;
        let row = Admission::prepare(label, profile);
        self.admit(row, Commit::Record)
    }

    /// Ingest a batch of `(label, json)` inputs. Parsing and content
    /// hashing — the expensive part — run in parallel under rayon (the
    /// active thread pool; see `ThreadPool::install`); insertion is a
    /// short sequential tail of per-shard lock grabs. On durable stores
    /// the whole batch is enqueued to the persister at once and waits
    /// for a single group commit. Bad inputs are reported, not fatal.
    pub fn ingest_batch(&self, inputs: &[(String, String)]) -> BatchReport {
        let prepared = inputs
            .par_iter()
            .map(|(label, json)| self.prepare_json(label, json))
            .collect_vec();
        let mut report = BatchReport::default();
        let mut rows = Vec::new();
        for (item, (label, _)) in prepared.into_iter().zip(inputs) {
            match item {
                Ok(row) => rows.push(row),
                Err(e) => report.rejected.push((label.clone(), e)),
            }
        }
        for (row, outcome) in rows.iter().zip(self.admit_all(&rows, Commit::Record)) {
            match outcome {
                Ok(true) => report.added.push(row.sp.id),
                Ok(false) => report.deduplicated += 1,
                Err(e) => report.persist_failures.push((row.sp.label.to_string(), e)),
            }
        }
        report
    }

    /// Parse one JSON input into a row, or count and type the failure.
    /// The crate's one `NumaProfile::from_json`: JSON is transcoded here,
    /// before hashing, and goes no further.
    fn prepare_json(&self, label: &str, json: &str) -> Result<Admission, StoreError> {
        let profile = NumaProfile::from_json(json).map_err(|e| self.parse_error(label, e))?;
        Ok(Admission::prepare(label, profile))
    }

    fn parse_error(&self, label: &str, e: impl fmt::Display) -> StoreError {
        self.parse_failures.inc();
        StoreError::Parse {
            label: label.to_string(),
            message: e.to_string(),
        }
    }

    /// Ingest every `*.json` file in a directory (sorted by file name,
    /// so batch reports are deterministic). Files are read in bounded
    /// chunks — the whole directory is never buffered at once — and an
    /// unreadable file is recorded in [`BatchReport::io_errors`] instead
    /// of aborting the batch. Only listing the directory itself fails
    /// the call.
    pub fn ingest_dir(&self, dir: &Path) -> std::io::Result<BatchReport> {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut report = BatchReport::default();
        for chunk in files.chunks(INGEST_DIR_CHUNK) {
            let mut inputs = Vec::with_capacity(chunk.len());
            for f in chunk {
                // Labels come from the file name. A non-UTF-8 name would
                // lossy-convert to replacement characters, so two
                // distinct files could collide onto one label; suffix
                // such labels with the FNV-1a hash of the *raw* name
                // bytes to keep them distinguishable.
                let label = match f.file_name() {
                    Some(n) => match n.to_str() {
                        Some(utf8) => utf8.to_owned(),
                        None => format!(
                            "{}#{:016x}",
                            n.to_string_lossy(),
                            crate::fnv1a(n.as_encoded_bytes())
                        ),
                    },
                    None => f.display().to_string(),
                };
                match std::fs::read_to_string(f) {
                    Ok(json) => inputs.push((label, json)),
                    Err(e) => report.io_errors.push((label, e.to_string())),
                }
            }
            report.merge(self.ingest_batch(&inputs));
        }
        Ok(report)
    }
}
