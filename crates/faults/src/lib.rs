//! Deterministic fault injection for the durability stack.
//!
//! The store's WAL + snapshot layer performs a small, fixed vocabulary
//! of filesystem operations: open or create a file, append bytes, flush,
//! fsync, truncate, seek, and fsync the containing directory.
//! [`Storage`] (and its per-file handle [`StorageFile`]) captures that
//! vocabulary as a trait so the persistence code can run against:
//!
//! * [`StdStorage`] — the production passthrough over `std::fs`.
//! * [`FaultyStorage`] — the same operations, but driven by a
//!   [`FaultSpec`] schedule that deterministically fails the Nth sync,
//!   short-writes the Nth write, errors the Nth truncate, or returns
//!   ENOSPC once a byte budget is spent. A [`FaultyStorage::kill`]
//!   switch fails *everything* from that moment on, simulating the
//!   process dying mid-operation: bytes already handed to `write_all`
//!   survive (exactly like a SIGKILL, where the OS keeps the page
//!   cache), later operations never happen.
//! * [`RecordingStorage`] — a decorator that logs every operation in
//!   order, so tests can assert *ordering* properties (e.g. "the
//!   snapshot is synced before the WAL is truncated") instead of only
//!   end states.
//!
//! Schedules are deterministic: the same [`FaultSpec`] against the same
//! operation sequence injects the same faults, which is what lets a
//! proptest matrix replay a failing seed exactly.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One open file handle: the operations the WAL and snapshot writer
/// performs on a file.
// `len()` here is a fallible size query (it mirrors `File::metadata`),
// so a clippy-style `is_empty` companion has no meaningful contract.
#[allow(clippy::len_without_is_empty)]
pub trait StorageFile: Send {
    /// Read up to `buf.len()` bytes at the current position.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write every byte of `buf` at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush userspace buffers to the OS.
    fn flush(&mut self) -> io::Result<()>;
    /// Force file contents (and the metadata needed to read them) to
    /// stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncate (or extend) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Reposition the read/write cursor.
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64>;
    /// Current file size in bytes.
    fn len(&mut self) -> io::Result<u64>;

    /// Fill `buf` exactly, or report how many bytes were available.
    /// `Ok(n < buf.len())` is a clean end-of-file, not an error.
    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        Ok(filled)
    }
}

/// The filesystem operations the persistence layer performs, behind a
/// trait so tests can substitute a fault-injecting implementation.
pub trait Storage: Send + Sync {
    /// Open `path` for reading and appending, creating it if absent.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Open `path` for reading; `Ok(None)` when it does not exist.
    fn open_read(&self, path: &Path) -> io::Result<Option<Box<dyn StorageFile>>>;
    /// Fsync the directory itself, making file creations within it
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// StdStorage: the production passthrough
// ---------------------------------------------------------------------

/// Production storage: every operation maps 1:1 onto `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdStorage;

struct StdFile(File);

impl StorageFile for StdFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.0.seek(pos)
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Storage for StdStorage {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(StdFile(f)))
    }

    fn open_read(&self, path: &Path) -> io::Result<Option<Box<dyn StorageFile>>> {
        match File::open(path) {
            Ok(f) => Ok(Some(Box::new(StdFile(f)))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX
        // idiom for making creates inside it durable.
        File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------
// Fault schedule
// ---------------------------------------------------------------------

/// SplitMix64 step — the same tiny deterministic generator the vendored
/// proptest uses, so seeds here need no external crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic fault schedule. All counters are 1-based and count
/// operations across every file of one [`FaultyStorage`]; `None`
/// disables that fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fail the Nth sync (`sync_data` and `sync_dir` share the count).
    pub fail_sync: Option<u64>,
    /// On the Nth `write_all`, persist only the first `keep` bytes and
    /// then error — a torn write.
    pub short_write: Option<(u64, u64)>,
    /// Fail the Nth `set_len` (the file keeps its length) — the step
    /// that resets the WAL after a compaction and that rolls a failed
    /// group back.
    pub fail_set_len: Option<u64>,
    /// Total byte budget: once cumulative written bytes would exceed
    /// it, writes persist up to the budget and then fail with
    /// `ErrorKind::StorageFull` — a full disk.
    pub enospc_after: Option<u64>,
}

impl FaultSpec {
    /// Derive a schedule from a seed. Each fault class is enabled with
    /// ~1/2 probability and given a small deterministic trigger point,
    /// so a few hundred seeds cover singletons and combinations of
    /// every class (including the fault-free schedule).
    pub fn seeded(seed: u64) -> FaultSpec {
        let mut s = seed;
        let mut next = || splitmix64(&mut s);
        let fail_sync = (next() % 2 == 0).then(|| 1 + next() % 12);
        let short_write = (next() % 2 == 0).then(|| (1 + next() % 16, next() % 48));
        let fail_set_len = (next() % 4 == 0).then(|| 1 + next() % 6);
        let enospc_after = (next() % 4 == 0).then(|| 256 + next() % (48 << 10));
        FaultSpec {
            fail_sync,
            short_write,
            fail_set_len,
            enospc_after,
        }
    }

    /// Parse a CLI schedule: comma-separated `sync=N`, `write=N:KEEP`,
    /// `truncate=N`, `enospc=BYTES` terms (e.g. `"enospc=16384"`,
    /// `"sync=2,truncate=1"`).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for term in spec.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = term
                .split_once('=')
                .ok_or_else(|| format!("fault term {term:?} is not key=value"))?;
            let parse = |v: &str| {
                v.parse::<u64>()
                    .map_err(|e| format!("fault term {term:?}: {e}"))
            };
            match key {
                "sync" => out.fail_sync = Some(parse(value)?),
                "truncate" => out.fail_set_len = Some(parse(value)?),
                "enospc" => out.enospc_after = Some(parse(value)?),
                "write" => {
                    let (n, keep) = value
                        .split_once(':')
                        .ok_or_else(|| format!("fault term {term:?} wants write=N:KEEP"))?;
                    out.short_write = Some((parse(n)?, parse(keep)?));
                }
                _ => return Err(format!("unknown fault class {key:?} in {term:?}")),
            }
        }
        Ok(out)
    }

    /// Whether this schedule injects anything at all.
    pub fn is_noop(&self) -> bool {
        *self == FaultSpec::default()
    }
}

// ---------------------------------------------------------------------
// FaultyStorage
// ---------------------------------------------------------------------

/// Shared between the storage and every file handle it opened.
struct FaultCtl {
    spec: FaultSpec,
    killed: AtomicBool,
    counts: Mutex<FaultCounts>,
}

#[derive(Default)]
struct FaultCounts {
    writes: u64,
    syncs: u64,
    set_lens: u64,
    bytes_written: u64,
    injected: u64,
}

impl FaultCtl {
    /// The schedule's counters. A poisoned lock is taken as it is
    /// (DESIGN.md, "Concurrency model").
    fn counts(&self) -> MutexGuard<'_, FaultCounts> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.killed.load(Ordering::SeqCst) {
            Err(io::Error::other("injected crash: storage is dead"))
        } else {
            Ok(())
        }
    }
}

/// What a faulty write should do, decided under the counts lock.
enum WriteAction {
    Full,
    /// Persist this prefix, then fail with the given error.
    Torn(usize, io::Error),
}

/// Fault-injecting storage over [`StdStorage`], driven by a
/// [`FaultSpec`]. Clone-cheap handles are not provided — share it as
/// `Arc<FaultyStorage>` (which coerces to `Arc<dyn Storage>`) so tests
/// keep a handle for [`FaultyStorage::kill`] and counters.
pub struct FaultyStorage {
    inner: StdStorage,
    ctl: Arc<FaultCtl>,
}

impl FaultyStorage {
    pub fn new(spec: FaultSpec) -> FaultyStorage {
        FaultyStorage {
            inner: StdStorage,
            ctl: Arc::new(FaultCtl {
                spec,
                killed: AtomicBool::new(false),
                counts: Mutex::new(FaultCounts::default()),
            }),
        }
    }

    /// Simulate the process dying: every operation from now on fails
    /// immediately. Bytes already written stay (the OS survives a
    /// SIGKILL); syncs and truncates never happen.
    pub fn kill(&self) {
        self.ctl.killed.store(true, Ordering::SeqCst);
    }

    /// How many faults the schedule has injected so far (kill excluded).
    pub fn injected(&self) -> u64 {
        self.ctl.counts().injected
    }
}

struct FaultyFile {
    inner: Box<dyn StorageFile>,
    ctl: Arc<FaultCtl>,
}

impl FaultyFile {
    /// Count one write of `len` bytes and decide its fate.
    fn plan_write(&self, len: usize) -> WriteAction {
        let mut c = self.ctl.counts();
        c.writes += 1;
        if let Some(budget) = self.ctl.spec.enospc_after {
            if c.bytes_written + len as u64 > budget {
                let keep = budget.saturating_sub(c.bytes_written) as usize;
                c.bytes_written += keep as u64;
                c.injected += 1;
                return WriteAction::Torn(
                    keep,
                    io::Error::new(
                        io::ErrorKind::StorageFull,
                        "injected ENOSPC: no space left on device",
                    ),
                );
            }
        }
        if let Some((nth, keep)) = self.ctl.spec.short_write {
            if c.writes == nth {
                let keep = (keep as usize).min(len);
                c.bytes_written += keep as u64;
                c.injected += 1;
                return WriteAction::Torn(
                    keep,
                    io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("injected short write: {keep} of {len} bytes"),
                    ),
                );
            }
        }
        c.bytes_written += len as u64;
        WriteAction::Full
    }
}

impl StorageFile for FaultyFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.ctl.check_alive()?;
        self.inner.read(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.ctl.check_alive()?;
        match self.plan_write(buf.len()) {
            WriteAction::Full => self.inner.write_all(buf),
            WriteAction::Torn(keep, err) => {
                self.inner.write_all(&buf[..keep])?;
                Err(err)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.ctl.check_alive()?;
        self.inner.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.ctl.check_alive()?;
        fail_nth_sync(&self.ctl)?;
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.ctl.check_alive()?;
        {
            let mut c = self.ctl.counts();
            c.set_lens += 1;
            if self.ctl.spec.fail_set_len == Some(c.set_lens) {
                c.injected += 1;
                return Err(io::Error::other("injected truncate failure"));
            }
        }
        self.inner.set_len(len)
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.ctl.check_alive()?;
        self.inner.seek(pos)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.ctl.check_alive()?;
        self.inner.len()
    }
}

fn fail_nth_sync(ctl: &FaultCtl) -> io::Result<()> {
    let mut c = ctl.counts();
    c.syncs += 1;
    if ctl.spec.fail_sync == Some(c.syncs) {
        c.injected += 1;
        return Err(io::Error::other("injected fsync failure"));
    }
    Ok(())
}

impl Storage for FaultyStorage {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.ctl.check_alive()?;
        Ok(Box::new(FaultyFile {
            inner: self.inner.open_rw(path)?,
            ctl: Arc::clone(&self.ctl),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Option<Box<dyn StorageFile>>> {
        self.ctl.check_alive()?;
        Ok(self.inner.open_read(path)?.map(|f| {
            Box::new(FaultyFile {
                inner: f,
                ctl: Arc::clone(&self.ctl),
            }) as Box<dyn StorageFile>
        }))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.ctl.check_alive()?;
        fail_nth_sync(&self.ctl)?;
        self.inner.sync_dir(dir)
    }
}

// ---------------------------------------------------------------------
// RecordingStorage
// ---------------------------------------------------------------------

/// Decorator that logs every operation (by file name, not full path) in
/// the order the persistence layer issued it, for ordering assertions
/// like "the snapshot sync comes before any WAL truncate".
pub struct RecordingStorage {
    inner: Arc<dyn Storage>,
    ops: Arc<Mutex<Vec<String>>>,
}

impl RecordingStorage {
    pub fn new(inner: Arc<dyn Storage>) -> RecordingStorage {
        RecordingStorage {
            inner,
            ops: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The operations recorded so far, in issue order.
    pub fn ops(&self) -> Vec<String> {
        let ops = self.ops.lock().unwrap_or_else(PoisonError::into_inner);
        ops.clone()
    }

    fn log(&self, op: String) {
        record(&self.ops, op);
    }
}

/// Append one operation to a shared log. A poisoned lock is taken as it
/// is (DESIGN.md, "Concurrency model").
fn record(ops: &Mutex<Vec<String>>, op: String) {
    ops.lock().unwrap_or_else(PoisonError::into_inner).push(op);
}

fn name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

struct RecordingFile {
    inner: Box<dyn StorageFile>,
    name: String,
    ops: Arc<Mutex<Vec<String>>>,
}

impl RecordingFile {
    fn log(&self, op: String) {
        record(&self.ops, op);
    }
}

impl StorageFile for RecordingFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.log(format!("write({}, {})", self.name, buf.len()));
        self.inner.write_all(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.log(format!("sync_data({})", self.name));
        self.inner.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.log(format!("set_len({}, {len})", self.name));
        self.inner.set_len(len)
    }
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Storage for RecordingStorage {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.log(format!("open_rw({})", name_of(path)));
        Ok(Box::new(RecordingFile {
            inner: self.inner.open_rw(path)?,
            name: name_of(path),
            ops: Arc::clone(&self.ops),
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Option<Box<dyn StorageFile>>> {
        Ok(self.inner.open_read(path)?.map(|f| {
            Box::new(RecordingFile {
                inner: f,
                name: name_of(path),
                ops: Arc::clone(&self.ops),
            }) as Box<dyn StorageFile>
        }))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.log("sync_dir".to_string());
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("numa-faults-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_storage_round_trips() {
        let dir = scratch("std");
        let path = dir.join("a.bin");
        let storage = StdStorage;
        let mut f = storage.open_rw(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        assert_eq!(f.len().unwrap(), 5);
        drop(f);
        let mut r = storage.open_read(&path).unwrap().unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(r.read_exact_or_eof(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
        assert!(storage.open_read(&dir.join("absent")).unwrap().is_none());
        storage.sync_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_persists_the_prefix_then_errors() {
        let dir = scratch("short");
        let storage = FaultyStorage::new(FaultSpec {
            short_write: Some((2, 3)),
            ..FaultSpec::default()
        });
        let path = dir.join("w.bin");
        let mut f = storage.open_rw(&path).unwrap();
        f.write_all(b"first").unwrap();
        let err = f.write_all(b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"firstsec");
        assert_eq!(storage.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_budget_is_cumulative_and_sticky() {
        let dir = scratch("enospc");
        let storage = FaultyStorage::new(FaultSpec {
            enospc_after: Some(6),
            ..FaultSpec::default()
        });
        let mut f = storage.open_rw(&dir.join("w.bin")).unwrap();
        f.write_all(b"1234").unwrap();
        let err = f.write_all(b"5678").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // The budget stays spent: later writes keep failing.
        let err = f.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(dir.join("w.bin")).unwrap(), b"123456");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nth_sync_fails_once_counting_files_and_dirs_together() {
        let dir = scratch("sync");
        let storage = FaultyStorage::new(FaultSpec {
            fail_sync: Some(2),
            ..FaultSpec::default()
        });
        let mut f = storage.open_rw(&dir.join("w.bin")).unwrap();
        f.sync_data().unwrap();
        assert!(storage.sync_dir(&dir).is_err());
        f.sync_data().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nth_set_len_fails_once_and_keeps_the_length() {
        let dir = scratch("truncate");
        let storage = FaultyStorage::new(FaultSpec {
            fail_set_len: Some(2),
            ..FaultSpec::default()
        });
        let mut f = storage.open_rw(&dir.join("w.bin")).unwrap();
        f.write_all(b"12345678").unwrap();
        f.set_len(6).unwrap();
        assert!(f.set_len(2).is_err());
        assert_eq!(f.len().unwrap(), 6);
        f.set_len(2).unwrap();
        assert_eq!(f.len().unwrap(), 2);
        assert_eq!(storage.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_fails_everything_but_keeps_written_bytes() {
        let dir = scratch("kill");
        let storage = FaultyStorage::new(FaultSpec::default());
        let path = dir.join("w.bin");
        let mut f = storage.open_rw(&path).unwrap();
        f.write_all(b"durable").unwrap();
        storage.kill();
        assert!(f.write_all(b"lost").is_err());
        assert!(f.sync_data().is_err());
        assert!(f.set_len(0).is_err());
        assert!(storage.sync_dir(&dir).is_err());
        assert!(storage.open_rw(&path).is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recording_storage_logs_ops_in_order() {
        let dir = scratch("rec");
        let rec = RecordingStorage::new(Arc::new(StdStorage));
        let mut f = rec.open_rw(&dir.join("s.bin")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        f.set_len(1).unwrap();
        drop(f);
        rec.sync_dir(&dir).unwrap();
        assert_eq!(
            rec.ops(),
            vec![
                "open_rw(s.bin)".to_string(),
                "write(s.bin, 3)".to_string(),
                "sync_data(s.bin)".to_string(),
                "set_len(s.bin, 1)".to_string(),
                "sync_dir".to_string(),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_specs_are_deterministic_and_diverse() {
        for seed in 0..64u64 {
            assert_eq!(FaultSpec::seeded(seed), FaultSpec::seeded(seed));
        }
        let distinct: std::collections::HashSet<String> = (0..64u64)
            .map(|s| format!("{:?}", FaultSpec::seeded(s)))
            .collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct schedules",
            distinct.len()
        );
        assert!((0..64u64).any(|s| FaultSpec::seeded(s).is_noop()));
    }

    #[test]
    fn spec_parsing_round_trips_cli_terms() {
        assert_eq!(
            FaultSpec::parse("enospc=16384").unwrap(),
            FaultSpec {
                enospc_after: Some(16384),
                ..FaultSpec::default()
            }
        );
        assert_eq!(
            FaultSpec::parse("sync=2,truncate=1,write=5:10").unwrap(),
            FaultSpec {
                fail_sync: Some(2),
                fail_set_len: Some(1),
                short_write: Some((5, 10)),
                enospc_after: None,
            }
        );
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("rename=1").is_err());
        assert!(FaultSpec::parse("sync").is_err());
        assert!(FaultSpec::parse("").unwrap().is_noop());
    }
}
