//! The snapshot: an append-only base log of every stored profile.
//!
//! It is the same record stream as the WAL (see [`crate::wal`]) under a
//! different magic, holding one profile record per stored profile in the
//! order they were committed. Stored profiles are never deleted, so
//! nothing in it ever dies: a compaction does not rewrite it, it *folds*
//! the WAL generation into it — the persister (see `persist.rs`) holds
//! the file open through a [`crate::wal::WalWriter`], writes the framed
//! records committed since the last fold exactly as it wrote them to the
//! WAL, syncs, and only then resets the WAL. The snapshot-plus-empty-log
//! pair is equivalent to the old snapshot-plus-full-log pair. A fold that fails is truncated back
//! off the end; a crash mid-fold leaves a torn tail that the next open
//! truncates the same way the WAL's is.
//!
//! Recovery loads the snapshot first, then replays the WAL on top;
//! content-addressed ingestion dedups any overlap (a record present in
//! both because a crash fell between a fold's sync and the WAL reset).

use crate::wal::{scan_file_with, RecordScan, SNAPSHOT_MAGIC};
use numa_faults::{StdStorage, Storage};
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Path of the snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
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
    use crate::wal::{encode_bin_record, WalWriter};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("numa-snap-unit-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_appends_round_trip_across_reopens() {
        let dir = tmp("roundtrip");
        let payload = b"binary-profile-bytes".to_vec();
        let mut valid_len = 0;
        for label in ["a", "b"] {
            let mut w =
                WalWriter::open_after(&snapshot_path(&dir), SNAPSHOT_MAGIC, valid_len, false)
                    .unwrap();
            w.write_encoded(&encode_bin_record(label, &payload, fnv1a(&payload)))
                .unwrap();
            w.sync().unwrap();
            valid_len = w.len();
        }
        let scan = load_snapshot(&dir).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert!(scan.entries[1].label == "b" && scan.entries[1].bytes == payload);
        assert_eq!((scan.valid_len, scan.truncated_bytes), (valid_len, 0));
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
