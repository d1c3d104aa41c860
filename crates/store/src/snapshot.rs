//! Compacted snapshots of the full stored corpus.
//!
//! A snapshot is the same record stream as the WAL (see [`crate::wal`])
//! under a different magic, holding one record per stored profile. It
//! is written *power-loss atomically*: to a `.tmp` sibling, synced,
//! renamed over the live file, and then the containing directory is
//! fsynced — the rename itself lives in directory metadata, so without
//! that last sync a power loss after a "successful" compaction could
//! resurrect the old snapshot against an already-truncated WAL and lose
//! acknowledged records. A crash mid-snapshot leaves the previous
//! snapshot intact. After a successful snapshot the WAL is reset: the
//! snapshot-plus-empty-log pair is equivalent to the old
//! snapshot-plus-full-log pair.
//!
//! Recovery loads the snapshot first, then replays the WAL on top;
//! content-addressed ingestion dedups any overlap (a record present in
//! both because a crash interleaved an append with a compaction).

use crate::wal::{
    encode_bin_record, encode_file_header, scan_file_with, RecordScan, SNAPSHOT_MAGIC,
};
use numa_faults::{StdStorage, Storage};
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// One profile row a snapshot persists: label, canonical codec bytes,
/// and their FNV-1a (the content id).
pub type SnapshotRow = (String, Vec<u8>, u64);

/// Path of the snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Write a snapshot of `entries` atomically, one profile record per
/// row. Returns the snapshot's byte size.
pub fn write_snapshot(dir: &Path, entries: &[SnapshotRow]) -> io::Result<u64> {
    write_snapshot_with(&StdStorage, dir, entries)
}

/// [`write_snapshot`] through an explicit [`Storage`]. The sequence is
/// write `.tmp` → sync the file → rename over the live snapshot → sync
/// the directory; the final directory fsync is what makes the rename
/// durable, so a caller that truncates the WAL after this returns can
/// never pair a truncated log with the old snapshot.
pub fn write_snapshot_with(
    storage: &dyn Storage,
    dir: &Path,
    entries: &[SnapshotRow],
) -> io::Result<u64> {
    let live = snapshot_path(dir);
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let mut bytes = 0u64;
    {
        let mut f = storage.create(&tmp)?;
        let header = encode_file_header(SNAPSHOT_MAGIC);
        f.write_all(&header)?;
        bytes += header.len() as u64;
        for (label, payload, hash) in entries {
            let record = encode_bin_record(label, payload, *hash);
            f.write_all(&record)?;
            bytes += record.len() as u64;
        }
        f.flush()?;
        f.sync_data()?;
    }
    storage.rename(&tmp, &live)?;
    storage.sync_dir(dir)?;
    Ok(bytes)
}

/// Load the snapshot, if any. Damage is handled like WAL damage: the
/// intact record prefix is returned and the rest reported as truncated;
/// a header another build wrote fails the load with
/// [`crate::wal::UnsupportedHeader`] and the file is left as found.
pub fn load_snapshot(dir: &Path) -> io::Result<RecordScan> {
    load_snapshot_with(&StdStorage, dir)
}

/// [`load_snapshot`] through an explicit [`Storage`].
pub fn load_snapshot_with(storage: &dyn Storage, dir: &Path) -> io::Result<RecordScan> {
    scan_file_with(storage, &snapshot_path(dir), SNAPSHOT_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("numa-snap-unit-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips_and_replaces_atomically() {
        let dir = tmp("roundtrip");
        let payload = b"binary-profile-bytes".to_vec();
        let entry = |label: &str| (label.to_string(), payload.clone(), fnv1a(&payload));
        write_snapshot(&dir, &[entry("a")]).unwrap();
        write_snapshot(&dir, &[entry("a"), entry("b")]).unwrap();
        let scan = load_snapshot(&dir).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert!(matches!(
            &scan.entries[1],
            crate::wal::WalEntry::Profile(r) if r.label == "b" && r.bytes == payload
        ));
        assert_eq!(scan.truncated_bytes, 0);
        assert!(!dir.join(format!("{SNAPSHOT_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_loads_empty() {
        let dir = tmp("missing");
        let scan = load_snapshot(&dir).unwrap();
        assert!(scan.entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
