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
//! ## Compaction is a fold
//!
//! A compaction (explicit [`Persister::flush`] or automatic once the WAL
//! has grown by its bound since the last one) also runs on the persister
//! thread, and costs what was committed since the last one, not the
//! corpus. The snapshot is an append-only base log (see
//! [`crate::snapshot`]) this thread holds open beside the WAL. The
//! worker keeps the framed records of every committed group — the very
//! buffers it wrote to the WAL, moved rather than copied — and a fold
//!
//! 1. writes those bytes to the snapshot, one `write` per record, with
//!    no encode and no hash,
//! 2. `sync_data`s the snapshot — always, whatever
//!    [`PersistOptions::fsync`] says, because step 3 destroys the only
//!    other copy,
//! 3. truncates the WAL to its header.
//!
//! A failure in step 1 or 2 truncates the snapshot back to its last
//! synced length and leaves the WAL alone: nothing acknowledged is at
//! risk and the next fold retries the same records. A crash between 2
//! and 3 leaves the folded records in both files; replay dedups them,
//! and because only WAL rows that admitted as *new* are re-framed at
//! open, none is folded twice. The snapshot is created by the first
//! fold, not at open (header → `sync_data` → directory fsync, like the
//! WAL's).
//!
//! The kept records are the WAL's own records, so they cost at most
//! [`PersistOptions::snapshot_wal_bytes`] plus one commit group of
//! memory; a store opened with `u64::MAX` holds its whole WAL until
//! [`Persister::flush`].

use crate::snapshot::snapshot_path;
use crate::wal::{WalWriter, SNAPSHOT_MAGIC};
use crate::{PersistOptions, PersistStats};
use numa_faults::Storage;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Why a record could not be made durable: its commit group failed and
/// was rolled back. Converted to [`crate::StoreError::Persist`] at the
/// ingest API boundary.
pub(crate) type AppendResult = Result<(), String>;

/// One record written since the last commit point: its framed bytes,
/// which the next fold appends to the snapshot, and where to send its
/// outcome.
type Staged = (Vec<u8>, SyncSender<AppendResult>);

enum Op {
    /// One pre-encoded WAL record; ack fires once its commit group is
    /// flushed (`Ok`) or has failed and been rolled back (`Err`).
    Append {
        record: Vec<u8>,
        ack: SyncSender<AppendResult>,
    },
    /// Commit pending appends, then fold the WAL into the snapshot.
    Flush { ack: SyncSender<io::Result<()>> },
}

/// Runtime counters shared between the persister thread and
/// [`Persister::stats`] readers.
#[derive(Default)]
struct Shared {
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_bytes: AtomicU64,
    records_folded: AtomicU64,
    io_errors: AtomicU64,
    group_commits: AtomicU64,
}

/// What recovery hands the writer thread: the two files positioned after
/// their intact prefixes, and what it learned scanning them.
pub(crate) struct Recovered {
    pub(crate) wal: WalWriter,
    /// `None` when the directory has no snapshot yet; the first fold
    /// creates it.
    pub(crate) snapshot: Option<WalWriter>,
    /// Records the WAL holds and the snapshot does not: the replayed
    /// rows that admitted as new, re-framed, in log order.
    pub(crate) unfolded: Vec<Vec<u8>>,
    /// Recovery-time constants (replay counts, truncation).
    pub(crate) stats: PersistStats,
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
        recovered: Recovered,
        opts: PersistOptions,
        storage: Arc<dyn Storage>,
    ) -> io::Result<Persister> {
        let Recovered {
            wal,
            snapshot,
            unfolded,
            stats: base,
        } = recovered;
        let shared = Arc::new(Shared::default());
        shared.wal_bytes.store(wal.len(), Ordering::Relaxed);
        let snapshot_bytes = snapshot.as_ref().map_or(0, WalWriter::len);
        shared
            .snapshot_bytes
            .store(snapshot_bytes, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("numa-store-persist".to_string())
            .spawn(move || {
                Worker {
                    dir,
                    wal,
                    snapshot,
                    unfolded,
                    opts,
                    shared: worker_shared,
                    storage,
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
    /// is flushed or has failed.
    /// Enqueueing the whole batch before waiting lets the persister
    /// commit it (plus anything other threads queued) with a single
    /// flush. Returns one result per record, in input order; a stopped
    /// persister fails the records it never wrote rather than
    /// acknowledging them.
    pub(crate) fn append_all(&self, records: Vec<Vec<u8>>) -> Vec<AppendResult> {
        let n = records.len();
        if n == 0 {
            return Vec::new();
        }
        let mut waits = Vec::with_capacity(n);
        {
            let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(tx) = guard.as_ref() {
                for record in records {
                    let (ack, wait) = sync_channel(1);
                    if tx.send(Op::Append { record, ack }).is_err() {
                        break;
                    }
                    waits.push(wait);
                }
            }
        }
        let mut out: Vec<AppendResult> = waits
            .into_iter()
            .map(|wait| wait.recv().unwrap_or_else(|_| Err(STOPPED.to_string())))
            .collect();
        out.resize_with(n, || Err(STOPPED.to_string()));
        out
    }

    /// Commit pending appends and fold the WAL into the snapshot now.
    pub(crate) fn flush(&self) -> io::Result<()> {
        let wait = {
            let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
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
            snapshot_bytes: self.shared.snapshot_bytes.load(Ordering::Relaxed),
            records_folded: self.shared.records_folded.load(Ordering::Relaxed),
            io_errors: self.shared.io_errors.load(Ordering::Relaxed),
            wal_group_commits: self.shared.group_commits.load(Ordering::Relaxed),
            ..self.base
        }
    }

    /// Close the queue and join the writer thread. Everything already
    /// enqueued is committed first; later appends fail their acks
    /// (never a hang, never a false durability claim).
    pub(crate) fn stop(&self) {
        drop(take(&self.tx));
        if let Some(worker) = take(&self.worker) {
            let _ = worker.join();
        }
    }
}

/// Empty one of the handle's slots. A poisoned lock is taken as it is
/// (DESIGN.md, "Concurrency model").
fn take<T>(slot: &Mutex<Option<T>>) -> Option<T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// State owned by the persister thread.
struct Worker {
    dir: PathBuf,
    wal: WalWriter,
    /// The snapshot, open for append; `None` until the first fold
    /// creates it (or after a roll-back of it failed — the next fold
    /// reopens it at its last synced length).
    snapshot: Option<WalWriter>,
    /// Records committed to the WAL since the last fold, in commit
    /// order: what the next fold appends to the snapshot.
    unfolded: Vec<Vec<u8>>,
    opts: PersistOptions,
    shared: Arc<Shared>,
    storage: Arc<dyn Storage>,
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
    /// batch's single commit and any threshold fold — so counters
    /// an ingester reads right after its ack (`snapshots_written`,
    /// `wal_appends`) already reflect its record, exactly as the old
    /// synchronous appender behaved.
    fn process(&mut self, batch: Vec<Op>) {
        // Acks of records staged since the last commit point; one write
        // error poisons the rest of the group (its bytes may sit torn
        // in the log, so nothing written after it could commit
        // cleanly anyway).
        let mut staged: Vec<Staged> = Vec::new();
        let mut group_err: Option<String> = None;
        for op in batch {
            match op {
                Op::Append { record, ack } => {
                    if group_err.is_none() {
                        if let Err(e) = self.wal.write_encoded(&record) {
                            self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("numa-store: WAL append failed: {e}");
                            group_err = Some(e.to_string());
                        }
                    }
                    staged.push((record, ack));
                }
                Op::Flush { ack } => {
                    let pending = self.finish_group(&mut staged, &mut group_err);
                    let result = self.fold();
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
            if let Err(e) = self.fold() {
                self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("numa-store: snapshot compaction failed: {e}");
            }
        }
        Self::dispatch(pending);
    }

    /// Deliver the acks a [`Worker::finish_group`] decided. Delivery is
    /// deferred past any fold the group triggered so counters read right
    /// after an ack already reflect it (a failed fold does not change the
    /// results — the group's records are committed either way).
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
    /// [`Worker::dispatch`]) once any triggered fold is done.
    fn finish_group(
        &mut self,
        staged: &mut Vec<Staged>,
        group_err: &mut Option<String>,
    ) -> Vec<(SyncSender<AppendResult>, AppendResult)> {
        if staged.is_empty() {
            *group_err = None;
            return Vec::new();
        }
        let result: AppendResult = match group_err.take() {
            Some(e) => Err(e),
            None => self.wal.commit().map_err(|e| {
                self.shared.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("numa-store: WAL commit failed: {e}");
                e.to_string()
            }),
        };
        let (records, acks): (Vec<Vec<u8>>, Vec<_>) = staged.drain(..).unzip();
        match &result {
            Ok(()) => {
                self.shared
                    .wal_appends
                    .fetch_add(records.len() as u64, Ordering::Relaxed);
                self.shared.group_commits.fetch_add(1, Ordering::Relaxed);
                self.unfolded.extend(records);
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
        acks.into_iter().map(|ack| (ack, result.clone())).collect()
    }

    /// Append the records committed since the last fold to the snapshot
    /// and sync it. On failure the snapshot is back at its last synced
    /// length and `unfolded` is kept for the retry.
    fn fold_into_snapshot(&mut self) -> io::Result<()> {
        let snapshot = match &mut self.snapshot {
            Some(open) => open,
            None => self.snapshot.insert(WalWriter::open_with(
                &*self.storage,
                &snapshot_path(&self.dir),
                SNAPSHOT_MAGIC,
                self.shared.snapshot_bytes.load(Ordering::Relaxed),
                self.opts.fsync,
            )?),
        };
        let appended = (|| {
            for record in &self.unfolded {
                snapshot.write_encoded(record)?;
            }
            // Unconditional: the WAL reset that follows destroys the only
            // other copy of these records.
            snapshot.sync()
        })();
        match appended {
            Ok(()) => {
                self.shared
                    .snapshot_bytes
                    .store(snapshot.len(), Ordering::Relaxed);
                self.shared
                    .records_folded
                    .fetch_add(self.unfolded.len() as u64, Ordering::Relaxed);
                self.unfolded.clear();
            }
            // A writer that cannot cut its own torn tail is dropped; the
            // next fold reopens the file at the last synced length.
            Err(_) => {
                if snapshot.rollback_uncommitted().is_err() {
                    self.snapshot = None;
                }
            }
        }
        appended
    }

    /// Fold the WAL generation into the snapshot, then truncate the WAL.
    fn fold(&mut self) -> io::Result<()> {
        // A failure up to and including the snapshot sync leaves the
        // old snapshot + full WAL pair intact: nothing acknowledged is
        // at risk, the fold can simply be retried later.
        self.fold_into_snapshot()?;
        // The folded records are synced (power-loss durable) before this
        // point, so truncating the WAL can never leave a record in
        // neither file. A failed truncate leaves them in both, which
        // replay dedups.
        let reset = self.wal.reset();
        if reset.is_ok() {
            self.shared
                .snapshots_written
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared
            .wal_bytes
            .store(self.wal.len(), Ordering::Relaxed);
        reset
    }
}
