//! Group-commit persistence: one dedicated writer thread owns the WAL
//! and the snapshot file, so ingest threads never do I/O.
//!
//! ## Commit protocol
//!
//! An ingest that wants a new profile persisted encodes its WAL record
//! *on the ingest thread* (no lock held), enqueues it, and blocks until
//! the persister acknowledges it. The persister drains everything
//! queued, writes the whole batch, flushes (and `fsync`s when
//! configured) **once**, and only then acks — in enqueue order. Under
//! concurrent ingest load many records share one flush; a lone ingest
//! degenerates to the old write-and-flush-per-record behaviour. Either
//! way the store's durability contract holds: an acknowledged record is
//! flushed to the OS (SIGKILL-safe) before the caller's ingest returns.
//!
//! ## Error path
//!
//! Acks carry a `Result`. A WAL write or commit error fails the ack of
//! **every record in that commit group** — the log tail past the last
//! successful commit is truncated
//! ([`crate::wal::WalWriter::rollback_uncommitted`]) so a restart
//! replays exactly the acknowledged prefix, and the caller surfaces a
//! typed error instead of silently claiming durability. I/O errors are
//! additionally counted in [`PersistStats::io_errors`](crate::PersistStats::io_errors).
//!
//! ## Compaction and session poisoning
//!
//! Snapshot compaction (explicit [`Persister::flush`] or automatic once
//! the WAL outgrows its bound) also runs on the persister thread. The
//! corpus closure clones the profile `Arc`s under brief per-shard read
//! locks and serializes them *outside* any lock; an insert racing past
//! the clone simply lands in both the snapshot and the fresh WAL and
//! dedups on replay. A compaction resets the WAL — the only place
//! staged chunks of open streaming sessions live — and re-stages them
//! into the fresh log. If that re-staging fails, the affected sessions
//! are *poisoned*: their chunks' durability is gone, so a later seal of
//! such a session is refused ([`AppendError::SessionPoisoned`]) rather
//! than written — an acknowledged seal whose chunks cannot replay would
//! silently drop the whole session at the next restart. The store
//! answers a refusal by persisting the assembled profile as an ordinary
//! record instead. Poison marks clear on the next successful compaction
//! (which re-stages every open session's records afresh). The check
//! runs here, on the writer thread, because it must be serialized with
//! compaction — a flag the ingest thread polls could be set a moment
//! after it looked.

use crate::wal::WalWriter;
use crate::{PersistOptions, PersistStats};
use numa_faults::Storage;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Produces the [`crate::snapshot::SnapshotRow`]s (label, canonical
/// codec bytes, content hash) a snapshot persists. Runs on the persister
/// thread.
pub(crate) type CorpusFn = Box<dyn Fn() -> Vec<crate::snapshot::SnapshotRow> + Send + 'static>;

/// Produces the `(session id, encoded record)` rows of still-open
/// streaming sessions. A compaction resets the WAL — the only place
/// those records live — so they are re-staged into the fresh log right
/// after the reset (replay dedups chunks by sequence number, so a
/// record surviving in both the old and new generation is harmless).
/// The session ids identify which sessions to poison when re-staging
/// fails. Runs on the persister thread.
pub(crate) type RetainedFn = Box<dyn Fn() -> Vec<(u64, Vec<u8>)> + Send + 'static>;

/// Why a persisted operation could not be made durable. Converted to
/// [`crate::StoreError::Persist`] at the ingest API boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum AppendError {
    /// The record's commit group failed and was rolled back.
    Io(String),
    /// A seal append was refused: a failed compaction lost the
    /// session's staged chunks, so sealing it would acknowledge a
    /// session a restart must drop. Nothing was written.
    SessionPoisoned,
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendError::Io(message) => f.write_str(message),
            AppendError::SessionPoisoned => {
                f.write_str("staged session chunks were lost by a failed compaction")
            }
        }
    }
}

pub(crate) type AppendResult = Result<(), AppendError>;

enum Op {
    /// One pre-encoded WAL record; ack fires once its commit group is
    /// flushed (`Ok`) or has failed and been rolled back (`Err`).
    /// `session` tags seal records with their session id so the writer
    /// thread can refuse seals of poisoned sessions.
    Append {
        record: Vec<u8>,
        session: Option<u64>,
        ack: SyncSender<AppendResult>,
    },
    /// Commit pending appends, then compact the WAL into a snapshot.
    Flush { ack: SyncSender<io::Result<()>> },
}

/// Runtime counters shared between the persister thread and
/// [`Persister::stats`] readers.
#[derive(Default)]
struct Shared {
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots_written: AtomicU64,
    io_errors: AtomicU64,
    group_commits: AtomicU64,
}

/// Handle to the group-commit writer thread. Dropping the store calls
/// [`Persister::stop`], which drains the queue and joins the thread, so
/// every acknowledged record is on disk before the process can observe
/// the store as gone.
pub(crate) struct Persister {
    tx: Mutex<Option<Sender<Op>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    shared: Arc<Shared>,
    /// Recovery-time constants (replay counts, truncation), fixed at
    /// open and merged into every [`Persister::stats`] answer.
    base: PersistStats,
}

const STOPPED: &str = "persister thread stopped before the record was durable";

impl Persister {
    pub(crate) fn spawn(
        dir: PathBuf,
        wal: WalWriter,
        opts: PersistOptions,
        base: PersistStats,
        storage: Arc<dyn Storage>,
        corpus: CorpusFn,
        retained: RetainedFn,
    ) -> io::Result<Persister> {
        let shared = Arc::new(Shared::default());
        shared.wal_bytes.store(wal.len(), Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("numa-store-persist".to_string())
            .spawn(move || {
                Worker {
                    dir,
                    wal,
                    opts,
                    shared: worker_shared,
                    storage,
                    corpus,
                    retained,
                    poisoned: HashSet::new(),
                }
                .run(rx)
            })?;
        Ok(Persister {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            shared,
            base,
        })
    }

    /// Enqueue a batch of pre-encoded records and block until every one
    /// is flushed or has failed. Enqueueing the whole batch before
    /// waiting lets the persister commit it (plus anything other
    /// threads queued) with a single flush. Returns one result per
    /// record, in input order; a stopped persister fails the records it
    /// never wrote rather than acknowledging them.
    pub(crate) fn append_all(&self, records: Vec<Vec<u8>>) -> Vec<AppendResult> {
        let n = records.len();
        if n == 0 {
            return Vec::new();
        }
        let mut waits = Vec::with_capacity(n);
        {
            let guard = self.tx.lock();
            if let Some(tx) = guard.as_ref() {
                for record in records {
                    let (ack, wait) = sync_channel(1);
                    let op = Op::Append {
                        record,
                        session: None,
                        ack,
                    };
                    if tx.send(op).is_err() {
                        break;
                    }
                    waits.push(wait);
                }
            }
        }
        let mut out: Vec<AppendResult> = waits
            .into_iter()
            .map(|wait| {
                wait.recv()
                    .unwrap_or_else(|_| Err(AppendError::Io(STOPPED.to_string())))
            })
            .collect();
        out.resize_with(n, || Err(AppendError::Io(STOPPED.to_string())));
        out
    }

    /// Append one session seal record and block until it is flushed,
    /// failed, or refused because the session is poisoned (see the
    /// module docs).
    pub(crate) fn append_seal(&self, record: Vec<u8>, session: u64) -> AppendResult {
        let wait = {
            let guard = self.tx.lock();
            let Some(tx) = guard.as_ref() else {
                return Err(AppendError::Io(STOPPED.to_string()));
            };
            let (ack, wait) = sync_channel(1);
            let op = Op::Append {
                record,
                session: Some(session),
                ack,
            };
            if tx.send(op).is_err() {
                return Err(AppendError::Io(STOPPED.to_string()));
            }
            wait
        };
        wait.recv()
            .unwrap_or_else(|_| Err(AppendError::Io(STOPPED.to_string())))
    }

    /// Commit pending appends and compact the WAL into a snapshot now.
    pub(crate) fn flush(&self) -> io::Result<()> {
        let wait = {
            let guard = self.tx.lock();
            let Some(tx) = guard.as_ref() else {
                return Ok(());
            };
            let (ack, wait) = sync_channel(1);
            tx.send(Op::Flush { ack })
                .map_err(|_| io::Error::other("persister thread stopped"))?;
            wait
        };
        wait.recv()
            .map_err(|_| io::Error::other("persister thread stopped"))?
    }

    pub(crate) fn stats(&self) -> PersistStats {
        PersistStats {
            wal_appends: self.shared.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.shared.wal_bytes.load(Ordering::Relaxed),
            snapshots_written: self.shared.snapshots_written.load(Ordering::Relaxed),
            io_errors: self.shared.io_errors.load(Ordering::Relaxed),
            wal_group_commits: self.shared.group_commits.load(Ordering::Relaxed),
            ..self.base
        }
    }

    /// Close the queue and join the writer thread. Everything already
    /// enqueued is committed first; later appends fail their acks
    /// (never a hang, never a false durability claim).
    pub(crate) fn stop(&self) {
        drop(self.tx.lock().take());
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

/// State owned by the persister thread.
struct Worker {
    dir: PathBuf,
    wal: WalWriter,
    opts: PersistOptions,
    shared: Arc<Shared>,
    storage: Arc<dyn Storage>,
    corpus: CorpusFn,
    retained: RetainedFn,
    /// Sessions whose staged chunk records were lost when a compaction
    /// reset the WAL and then failed to re-stage them. Seals of these
    /// sessions are refused; a successful compaction (which re-stages
    /// every open session afresh) heals them all.
    poisoned: HashSet<u64>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Op>) {
        // recv() returns Err only once the queue is empty *and* every
        // sender is gone, so shutdown never drops a queued record.
        while let Ok(first) = rx.recv() {
            let mut batch = vec![first];
            while let Ok(op) = rx.try_recv() {
                batch.push(op);
            }
            self.process(batch);
        }
    }

    /// Acks fire only at the end (or at an explicit flush), *after* the
    /// batch's single commit and any threshold compaction — so counters
    /// an ingester reads right after its ack (`snapshots_written`,
    /// `wal_appends`) already reflect its record, exactly as the old
    /// synchronous appender behaved.
    fn process(&mut self, batch: Vec<Op>) {
        // Acks of records staged since the last commit point; one write
        // error poisons the rest of the group (its bytes may sit torn
        // in the log, so nothing written after it could commit
        // cleanly anyway).
        let mut staged: Vec<SyncSender<AppendResult>> = Vec::new();
        let mut group_err: Option<String> = None;
        for op in batch {
            match op {
                Op::Append {
                    record,
                    session,
                    ack,
                } => {
                    if let Some(session) = session {
                        if self.poisoned.remove(&session) {
                            let _ = ack.send(Err(AppendError::SessionPoisoned));
                            continue;
                        }
                    }
                    if group_err.is_none() {
                        if let Err(e) = self.wal.write_encoded(&record) {
                            self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("numa-store: WAL append failed: {e}");
                            group_err = Some(e.to_string());
                        }
                    }
                    staged.push(ack);
                }
                Op::Flush { ack } => {
                    let pending = self.finish_group(&mut staged, &mut group_err);
                    let result = self.compact();
                    if result.is_err() {
                        self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Self::dispatch(pending);
                    let _ = ack.send(result);
                }
            }
        }
        let pending = self.finish_group(&mut staged, &mut group_err);
        if self.wal.len() >= self.opts.snapshot_wal_bytes {
            if let Err(e) = self.compact() {
                self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("numa-store: snapshot compaction failed: {e}");
            }
        }
        Self::dispatch(pending);
    }

    /// Deliver the acks a [`Worker::finish_group`] decided. Delivery is
    /// deferred past any compaction the group triggered so counters read
    /// right after an ack already reflect it (a compaction failure does
    /// not change the results — the group's records are committed
    /// either way).
    fn dispatch(pending: Vec<(SyncSender<AppendResult>, AppendResult)>) {
        for (ack, result) in pending {
            let _ = ack.send(result);
        }
    }

    /// One durability point for everything staged since the last commit
    /// point. On success every staged ack reports `Ok`; on a write or
    /// commit failure the uncommitted tail is truncated away and every
    /// staged ack reports the error — a failed group is failed *whole*,
    /// never acked-then-dropped. Returns the acks to deliver (via
    /// [`Worker::dispatch`]) once any triggered compaction is done.
    fn finish_group(
        &mut self,
        staged: &mut Vec<SyncSender<AppendResult>>,
        group_err: &mut Option<String>,
    ) -> Vec<(SyncSender<AppendResult>, AppendResult)> {
        if staged.is_empty() {
            *group_err = None;
            return Vec::new();
        }
        let result: AppendResult = match group_err.take() {
            Some(e) => Err(AppendError::Io(e)),
            None => self.wal.commit().map_err(|e| {
                self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("numa-store: WAL commit failed: {e}");
                AppendError::Io(e.to_string())
            }),
        };
        match &result {
            Ok(()) => {
                self.shared
                    .wal_appends
                    .fetch_add(staged.len() as u64, Ordering::Relaxed);
                self.shared.group_commits.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // The tail past the last commit holds partial or
                // unflushed record bytes whose acks are about to report
                // failure; truncate it so a restart replays exactly the
                // acknowledged prefix.
                if let Err(e) = self.wal.rollback_uncommitted() {
                    self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("numa-store: WAL rollback failed: {e}");
                }
            }
        }
        self.shared
            .wal_bytes
            .store(self.wal.len(), Ordering::Relaxed);
        staged.drain(..).map(|ack| (ack, result.clone())).collect()
    }

    /// Snapshot the whole corpus atomically and reset the WAL,
    /// re-staging the chunk records of still-open streaming sessions
    /// into the fresh log.
    fn compact(&mut self) -> io::Result<()> {
        let entries = (self.corpus)();
        // A failure up to and including the snapshot write leaves the
        // old snapshot + full WAL pair untouched: nothing acknowledged
        // is at risk, the compaction can simply be retried later.
        crate::snapshot::write_snapshot_with(&*self.storage, &self.dir, &entries)?;
        // The snapshot rename is directory-fsynced (power-loss durable)
        // before this point, so truncating the WAL can never pair an
        // empty log with the *old* snapshot.
        let retained = (self.retained)();
        let restage = (|| {
            self.wal.reset()?;
            if !retained.is_empty() {
                for (_, record) in &retained {
                    self.wal.write_encoded(record)?;
                }
                self.wal.commit()?;
            }
            Ok(())
        })();
        match &restage {
            Ok(()) => {
                // Every open session's records are freshly staged in
                // the new log: earlier poison marks are healed.
                self.poisoned.clear();
                self.shared
                    .snapshots_written
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                // The WAL was (or may have been) reset but the open
                // sessions' chunks could not be re-staged: their
                // durability is gone. Poison them so a later seal is
                // refused instead of acknowledging a session a restart
                // would drop.
                eprintln!("numa-store: WAL re-staging after compaction failed: {e}");
                let _ = self.wal.rollback_uncommitted();
                self.poisoned.extend(retained.iter().map(|(s, _)| *s));
            }
        }
        self.shared
            .wal_bytes
            .store(self.wal.len(), Ordering::Relaxed);
        restage
    }
}
