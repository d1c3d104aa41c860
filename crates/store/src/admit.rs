//! Admission: the one way a profile enters the store.
//!
//! Every public entry point — [`ProfileStore::ingest_profile`] (which is
//! also how a sealed streaming session commits the profile it
//! assembled), [`ProfileStore::ingest_binary`],
//! [`ProfileStore::ingest_batch`], [`ProfileStore::ingest_dir`] — and
//! startup replay is an adapter that prepares [`Admission`] rows outside
//! every lock (decode, encode canonically, hash) and hands them to
//! `ProfileStore::admit_all`, which owns the insert → commit → rollback
//! tail once: one profile record per fresh row, all in one commit group.
//! Every input is codec bytes — a profile file is a codec container — so
//! the store never parses JSON; it decodes, re-encodes canonically and
//! hashes, and logs only what it hashed. That hash is the only pass over
//! a payload on the way to disk: framing a record hashes its header, and
//! a fold copies the framed record as it is.

use crate::persist::{AppendResult, Persister};
use crate::{wal, BatchReport, PersistStats, ProfileId, ProfileStore, StoreError, StoredProfile};
use numa_obs::trace;
use numa_profiler::NumaProfile;
use std::fmt;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Files per [`ProfileStore::ingest_dir`] read-and-decode chunk: bounds
/// the bytes buffered at once, and each chunk is one group commit.
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

    /// A recovered profile record as a row. The scan already re-derived
    /// the recorded id from the payload — that hash is the payload's
    /// checksum — so the id is taken as recorded and no encode runs:
    /// the rest of replay's cost is the columnar decode the caller
    /// already did.
    fn recorded(r: wal::BinProfileRecord, profile: NumaProfile) -> Self {
        let id = ProfileId(r.content_hash);
        let sp = StoredProfile::new(id, &r.label, profile, r.bytes.len());
        Admission {
            sp: Arc::new(sp),
            bytes: r.bytes,
        }
    }

    /// The WAL record this row is committed as.
    fn record(&self) -> Vec<u8> {
        wal::encode_bin_record(&self.sp.label, &self.bytes, self.sp.id.0)
    }
}

/// Recovered records as rows, in file order (decoding is the
/// expensive part of replay). A record whose payload no longer decodes
/// is counted and skipped.
fn recorded_rows(records: Vec<wal::BinProfileRecord>, stats: &mut PersistStats) -> Vec<Admission> {
    let scanned = records.len();
    let rows: Vec<Admission> = records
        .into_iter()
        .filter_map(|record| {
            let profile = numa_codec::decode_profile(&record.bytes).ok()?;
            Some(Admission::recorded(record, profile))
        })
        .collect();
    stats.replay_parse_failures += (scanned - rows.len()) as u64;
    rows
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
    /// Insert comes *before* persist, on purpose: the insert is the
    /// dedup decision. Only a row that shelved as new is logged, so a
    /// profile is committed once however many identical ingests race,
    /// and they race on a shard lock, never on the log. Ack ⇒ durable
    /// then needs only the rollback below.
    ///
    /// Known caveat: a concurrent identical ingest can dedup against an
    /// insert whose commit then fails — it reports `Ok(false)` for a
    /// profile that ends up absent. Closing that window would mean
    /// holding a shard lock across I/O.
    fn admit_all(&self, rows: &[Admission]) -> Vec<Result<bool, StoreError>> {
        let mut out: Vec<Result<bool, StoreError>> =
            rows.iter().map(|row| Ok(self.insert(&row.sp))).collect();
        let fresh: Vec<usize> = (0..rows.len())
            .filter(|&i| matches!(out[i], Ok(true)))
            .collect();
        let Some(p) = self.persist.get().filter(|_| !fresh.is_empty()) else {
            return out;
        };
        let fresh_rows: Vec<&Admission> = fresh.iter().map(|&i| &rows[i]).collect();
        let acks = Self::persist_batch(p, &fresh_rows);
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
    fn admit(&self, row: Admission) -> Result<(ProfileId, bool), StoreError> {
        let id = row.sp.id;
        let outcome = self.admit_all(&[row]).pop();
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
    /// outside every lock; a copy and a header hash each — enqueue them
    /// all, and block until the group-commit persister has flushed or
    /// failed each.
    fn persist_batch(p: &Persister, rows: &[&Admission]) -> Vec<AppendResult> {
        let records = rows.iter().map(|row| row.record()).collect();
        let started = Instant::now();
        let acks = p.append_all(records);
        trace::note_wal_ack_us(started.elapsed().as_micros() as u64);
        acks
    }

    // ------------------------------------------------------------------
    // Replay
    // ------------------------------------------------------------------

    /// Rebuild the in-memory set from what recovery scanned, snapshot
    /// records first and the log on top; content addressing dedups
    /// records present in both. Rows are admitted in file order, and both
    /// files are written in commit order, so listings after a restart
    /// read in the order the profiles were acknowledged.
    ///
    /// Returns the records only the log holds — its rows that admitted
    /// as new, framed again from the bytes the scan read — which is what
    /// the next fold owes the snapshot.
    pub(crate) fn recover(
        &self,
        snapshot: Vec<wal::BinProfileRecord>,
        log: Vec<wal::BinProfileRecord>,
        stats: &mut PersistStats,
    ) -> Vec<Vec<u8>> {
        self.admit_all(&recorded_rows(snapshot, stats));
        let log_rows = recorded_rows(log, stats);
        let admitted = self.admit_all(&log_rows);
        log_rows
            .iter()
            .zip(admitted)
            .filter(|(_, outcome)| matches!(outcome, Ok(true)))
            .map(|(row, _)| row.record())
            .collect()
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Ingest an already-parsed profile — a one-shot ingest, or the
    /// profile a sealed streaming session assembled: the two are the same
    /// call, so a streamed profile is logged as the record a one-shot
    /// ingest of it writes. Returns its id and whether it was new
    /// (`false` = content-identical profile already stored). On
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
        self.admit(row)
    }

    /// Ingest one binary-codec profile container — a profile file as
    /// `hpcrun-sim --out` writes it, or the blob of an `IngestBinary`
    /// wire request. The buffer is decoded and the profile's *re-encoding* is
    /// what gets hashed and logged, never the buffer as sent: a
    /// container with reordered or unknown sections (the codec skips
    /// them on decode) gets the id of its canonical form and dedups
    /// against it.
    pub fn ingest_binary(
        &self,
        label: &str,
        bytes: &[u8],
    ) -> Result<(ProfileId, bool), StoreError> {
        self.admit(self.prepare_binary(label, bytes)?)
    }

    /// Ingest a batch of `(label, codec bytes)` inputs. Each input is
    /// decoded and hashed in turn — the expensive part — outside every
    /// lock; insertion is a short tail of per-shard lock grabs. On
    /// durable stores the whole batch is enqueued to the persister at
    /// once and waits for a single group commit. Bad inputs are
    /// reported, not fatal.
    pub fn ingest_batch(&self, inputs: &[(String, Vec<u8>)]) -> BatchReport {
        let mut report = BatchReport::default();
        let mut rows = Vec::new();
        for (label, bytes) in inputs {
            match self.prepare_binary(label, bytes) {
                Ok(row) => rows.push(row),
                Err(e) => report.rejected.push((label.clone(), e)),
            }
        }
        for (row, outcome) in rows.iter().zip(self.admit_all(&rows)) {
            match outcome {
                Ok(true) => report.added.push(row.sp.id),
                Ok(false) => report.deduplicated += 1,
                Err(e) => report.persist_failures.push((row.sp.label.to_string(), e)),
            }
        }
        report
    }

    /// Decode one container into a row, or count and type the failure.
    fn prepare_binary(&self, label: &str, bytes: &[u8]) -> Result<Admission, StoreError> {
        let profile = numa_codec::decode_profile(bytes).map_err(|e| self.parse_error(label, e))?;
        Ok(Admission::prepare(label, profile))
    }

    fn parse_error(&self, label: &str, e: impl fmt::Display) -> StoreError {
        self.parse_failures.inc();
        StoreError::Parse {
            label: label.to_string(),
            message: e.to_string(),
        }
    }

    /// Ingest every entry of a directory as a profile file (sorted by
    /// file name, so batch reports are deterministic); there is no
    /// extension filter, so a file that is not a codec container is a
    /// [`BatchReport::rejected`] row under its own name. Files are read
    /// in bounded chunks — the whole directory is never buffered at once
    /// — and an unreadable entry (a subdirectory, say) is recorded in
    /// [`BatchReport::io_errors`] instead of aborting the batch. Only
    /// listing the directory itself fails the call.
    pub fn ingest_dir(&self, dir: &Path) -> std::io::Result<BatchReport> {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
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
                match std::fs::read(f) {
                    Ok(bytes) => inputs.push((label, bytes)),
                    Err(e) => report.io_errors.push((label, e.to_string())),
                }
            }
            report.merge(self.ingest_batch(&inputs));
        }
        Ok(report)
    }
}
