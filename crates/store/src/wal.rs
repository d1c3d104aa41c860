//! Append-only write-ahead log of ingested profiles.
//!
//! ## File layout (all integers big-endian)
//!
//! ```text
//! offset 0..4   magic     b"HPWL" (WAL) or b"HPSS" (snapshot)
//! offset 4..6   version   u16 — on-disk format revision
//! offset 6..8   reserved  u16 — must be zero
//! offset 8..    records
//! ```
//!
//! Each record is length-prefixed and checksummed, and its body opens
//! with a kind byte. There is one kind, and its payload is numa-codec
//! bytes:
//!
//! ```text
//! u32  body_len       byte count of `body`
//! u64  body_fnv       FNV-1a over the body's header (kind through
//!                     content_hash), not the payload
//! body:
//!   u8   kind         3 = profile
//!   u32  label_len    byte count of `label`
//!   ...  label        UTF-8 label
//!   u64  content_hash FNV-1a of `bytes` (the ProfileId)
//!   ...  bytes        canonical numa-codec profile buffer (rest of
//!                     the body)
//! ```
//!
//! The payload needs no checksum of its own: `content_hash` is its hash,
//! and the scan re-derives it. So framing a record hashes only its few
//! header bytes, a payload is hashed once on the way in (its id) and
//! once per replay (the check), and a framed record can be copied from
//! the WAL into the snapshot as it is.
//!
//! Every record commits one profile, however it arrived: a streamed
//! session is assembled in memory and logged at its seal as the same
//! record a one-shot ingest of that profile writes. A compaction appends
//! the records committed since the last one to the snapshot, byte for
//! byte, and empties the WAL.
//!
//! ## Recovery contract
//!
//! [`scan_file_with`] first checks the file header. Fewer than eight
//! bytes is a torn creation: the file scans as empty and the writer
//! reinitializes it. Eight bytes that are not exactly this build's
//! header (`magic | PERSIST_VERSION | 0`) are a file some other build
//! wrote: the scan fails with [`UnsupportedHeader`] and nothing is
//! written — an unreadable file is never truncated or compacted over.
//! Past the header, records are validated in order and the scan stops
//! at the first torn or corrupt one (short read, header checksum
//! mismatch, a payload that does not hash to its recorded id, unknown
//! kind, invalid UTF-8, inconsistent lengths). Everything before
//! that point is returned; everything after is reported as truncated
//! tail bytes, never an error. A writer reopened with
//! [`WalWriter::open_after`] physically truncates the file to the intact
//! prefix so later appends extend a clean log. The snapshot is the same
//! kind of file under [`SNAPSHOT_MAGIC`] and the persister appends to it
//! through the same writer, so both files share one open, truncate,
//! append and roll-back path.

use crate::hash::fnv1a;
use numa_faults::{StdStorage, Storage, StorageFile};
use std::fmt;
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};

/// On-disk format revision for WAL and snapshot files. Version 4 made
/// the content id the hash of the canonical codec bytes; version 5
/// retired the session chunk and seal records, leaving the profile
/// record as the only kind; version 6 made the hash word-at-a-time and
/// narrowed the record checksum to the body's header. Readers accept
/// exactly this version: a version-4 log may hold session records this
/// build cannot replay (reading them as a torn tail would drop
/// acknowledged profiles), and ids and checksums from older revisions
/// are another hash's, so any other file is refused
/// ([`UnsupportedHeader`]), not replayed.
pub const PERSIST_VERSION: u16 = 6;

/// Magic of the write-ahead log file.
pub const WAL_MAGIC: [u8; 4] = *b"HPWL";

/// Magic of the snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HPSS";

/// File header size (magic + version + reserved).
pub const FILE_HEADER_LEN: u64 = 8;

/// Per-record header size (body_len + body_fnv).
pub const RECORD_HEADER_LEN: usize = 12;

/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// The one record kind. Numbers 0, 1, 2 and 4 belonged to retired kinds
/// and are never reused.
const KIND_PROFILE: u8 = 3;

/// Path of the WAL inside `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Serialize the 8-byte file header.
pub fn encode_file_header(magic: [u8; 4]) -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&magic);
    h[4..6].copy_from_slice(&PERSIST_VERSION.to_be_bytes());
    h
}

/// A WAL or snapshot file whose complete 8-byte header is not the one
/// this build writes. Carried inside an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`] by every scan and open; the file is
/// left byte-for-byte untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedHeader {
    pub path: PathBuf,
    /// The eight bytes found at the head of the file.
    pub found: [u8; 8],
    /// The only header this build reads: `magic | PERSIST_VERSION | 0`.
    pub supported: [u8; 8],
}

impl fmt::Display for UnsupportedHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let describe = |h: &[u8; 8]| {
            format!(
                "magic \"{}\", version {}, reserved 0x{:02x}{:02x}",
                h[..4].escape_ascii(),
                u16::from_be_bytes([h[4], h[5]]),
                h[6],
                h[7]
            )
        };
        write!(
            f,
            "{}: header says {}; this build reads only {}",
            self.path.display(),
            describe(&self.found),
            describe(&self.supported)
        )
    }
}

impl std::error::Error for UnsupportedHeader {}

/// One intact profile record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinProfileRecord {
    pub label: String,
    /// FNV-1a of `bytes` — the profile's content id.
    pub content_hash: u64,
    /// Canonical numa-codec profile buffer.
    pub bytes: Vec<u8>,
}

/// Serialize one profile record (record header + body). `bytes` are the
/// canonical codec bytes and `content_hash` their FNV-1a, both as
/// `ProfileId::of` returns them; only the header is hashed here.
pub fn encode_bin_record(label: &str, bytes: &[u8], content_hash: u64) -> Vec<u8> {
    let body_len = 1 + 4 + label.len() + 8 + bytes.len();
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body_len);
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.extend_from_slice(&[0u8; 8]); // body_fnv placeholder
    out.push(KIND_PROFILE);
    out.extend_from_slice(&(label.len() as u32).to_be_bytes());
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(&content_hash.to_be_bytes());
    let fnv = fnv1a(&out[RECORD_HEADER_LEN..]);
    out[4..12].copy_from_slice(&fnv.to_be_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Result of scanning a log or snapshot file.
#[derive(Clone, Debug, Default)]
pub struct RecordScan {
    /// Intact records, in file order.
    pub entries: Vec<BinProfileRecord>,
    /// File offset just past the last intact record (or past the header
    /// when no record is intact; 0 when the file is missing or shorter
    /// than a header).
    pub valid_len: u64,
    /// Bytes after `valid_len`: the torn/corrupt tail that replay drops.
    pub truncated_bytes: u64,
}

/// Check and decode one record body. `None` means corrupt.
fn decode_body(stored_fnv: u64, mut body: Vec<u8>) -> Option<BinProfileRecord> {
    // `label_len` comes off disk unchecked: bound it before hashing.
    let label_len = u32::from_be_bytes(body.get(1..5)?.try_into().unwrap()) as usize;
    let head_len = label_len.checked_add(1 + 4 + 8)?;
    let head = body.get(..head_len)?;
    if fnv1a(head) != stored_fnv {
        return None; // bit rot in the kind, a length, the label or the id
    }
    if head[0] != KIND_PROFILE {
        return None; // not a record this format revision defines
    }
    let label = std::str::from_utf8(&head[5..5 + label_len])
        .ok()?
        .to_string();
    let content_hash = u64::from_be_bytes(head[head_len - 8..].try_into().unwrap());
    // The payload is opaque here — the WAL frames bytes, the codec crate
    // owns their meaning — and its id is its checksum.
    if fnv1a(&body[head_len..]) != content_hash {
        return None; // bit rot in the payload, or a cut body_len
    }
    body.drain(..head_len);
    Some(BinProfileRecord {
        label,
        content_hash,
        bytes: body,
    })
}

/// Scan a record file on disk. A missing file scans as empty (zero
/// records, zero truncation).
pub fn scan_file(path: &Path, magic: [u8; 4]) -> io::Result<RecordScan> {
    scan_file_with(&StdStorage, path, magic)
}

/// [`scan_file`] through an explicit [`Storage`]. The scan streams: it
/// reads one record header at a time and clamps the header's `body_len`
/// against the bytes actually remaining in the file *before* allocating
/// the body buffer — a corrupt length field is a torn tail, never a
/// multi-GiB allocation. A complete file header that is not this
/// build's fails the scan with [`UnsupportedHeader`].
pub fn scan_file_with(
    storage: &dyn Storage,
    path: &Path,
    magic: [u8; 4],
) -> io::Result<RecordScan> {
    let Some(mut file) = storage.open_read(path)? else {
        return Ok(RecordScan::default());
    };
    let total = file.len()?;
    let mut head = [0u8; FILE_HEADER_LEN as usize];
    if file.read_exact_or_eof(&mut head)? < head.len() {
        // A torn creation: the header write itself never completed, so
        // no record can follow it.
        return Ok(RecordScan {
            entries: Vec::new(),
            valid_len: 0,
            truncated_bytes: total,
        });
    }
    let supported = encode_file_header(magic);
    if head != supported {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            UnsupportedHeader {
                path: path.to_path_buf(),
                found: head,
                supported,
            },
        ));
    }
    let mut entries = Vec::new();
    let mut off = FILE_HEADER_LEN;
    loop {
        let mut rh = [0u8; RECORD_HEADER_LEN];
        if file.read_exact_or_eof(&mut rh)? < rh.len() {
            break; // clean end or torn record header
        }
        let body_len = u32::from_be_bytes(rh[..4].try_into().unwrap()) as u64;
        // Clamp against the file's remaining bytes BEFORE allocating:
        // body_len comes off disk unvalidated, so an oversized value is
        // treated as a torn/corrupt tail rather than trusted as an
        // allocation size.
        let remaining = total.saturating_sub(off + RECORD_HEADER_LEN as u64);
        if body_len > remaining {
            break;
        }
        let stored_fnv = u64::from_be_bytes(rh[4..12].try_into().unwrap());
        let mut body = vec![0u8; body_len as usize];
        if file.read_exact_or_eof(&mut body)? < body.len() {
            break; // the file shrank under us: torn tail
        }
        let Some(entry) = decode_body(stored_fnv, body) else {
            break;
        };
        entries.push(entry);
        off += RECORD_HEADER_LEN as u64 + body_len;
    }
    Ok(RecordScan {
        entries,
        valid_len: off,
        truncated_bytes: total - off,
    })
}

/// Appender over a record file: the write-ahead log, or the snapshot
/// the persister folds each WAL generation into. Each WAL append is
/// written and flushed to the OS before the ingest call returns, so an
/// acknowledged profile survives a SIGKILL of the process; `fsync`
/// additionally forces every commit to stable storage (surviving power
/// loss) at a large per-append cost.
pub struct WalWriter {
    file: Box<dyn StorageFile>,
    /// Current file length (header + intact records + appends so far).
    bytes: u64,
    /// File length at the last successful commit/reset — the intact
    /// prefix [`WalWriter::rollback_uncommitted`] falls back to when a
    /// group fails mid-write.
    committed: u64,
    fsync: bool,
}

impl WalWriter {
    /// Open the record file at `path`, truncating it to `valid_len` (the
    /// intact prefix reported by a [`scan_file`] under the same `magic`
    /// that succeeded) and positioning for appends. A missing file, or
    /// one the scan found shorter than a header (a torn creation), is
    /// (re)initialized with a fresh `magic` header.
    pub fn open_after(
        path: &Path,
        magic: [u8; 4],
        valid_len: u64,
        fsync: bool,
    ) -> io::Result<WalWriter> {
        Self::open_with(&StdStorage, path, magic, valid_len, fsync)
    }

    /// [`WalWriter::open_after`] through an explicit [`Storage`].
    pub fn open_with(
        storage: &dyn Storage,
        path: &Path,
        magic: [u8; 4],
        valid_len: u64,
        fsync: bool,
    ) -> io::Result<WalWriter> {
        let mut file = storage.open_rw(path)?;
        let mut bytes = valid_len;
        if bytes < FILE_HEADER_LEN {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&encode_file_header(magic))?;
            file.flush()?;
            // A fresh file is a *creation*: without syncing the file and
            // its parent directory, a power loss could forget it ever
            // existed while later appends' acks (or, for the snapshot,
            // a WAL reset) relied on its contents.
            file.sync_data()?;
            if let Some(parent) = path.parent() {
                storage.sync_dir(parent)?;
            }
            bytes = FILE_HEADER_LEN;
        } else {
            file.set_len(bytes)?;
            file.seek(SeekFrom::Start(bytes))?;
            // Persist the truncation of the torn tail before appending
            // over it.
            file.sync_data()?;
        }
        file.flush()?;
        Ok(WalWriter {
            file,
            bytes,
            committed: bytes,
            fsync,
        })
    }

    /// Buffer one pre-encoded record (see [`encode_bin_record`]) without
    /// flushing. A group-commit writer stages a whole batch this way and
    /// then makes it durable with one [`WalWriter::commit`].
    pub fn write_encoded(&mut self, record: &[u8]) -> io::Result<u64> {
        self.file.write_all(record)?;
        self.bytes += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Flush staged records to the OS (plus `fsync` when configured):
    /// one durability point for however many records were staged.
    pub fn commit(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.committed = self.bytes;
        Ok(())
    }

    /// Current WAL size in bytes (header included).
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// Whether the WAL holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.bytes <= FILE_HEADER_LEN
    }

    /// Bytes staged past the last successful commit.
    pub fn uncommitted(&self) -> u64 {
        self.bytes.saturating_sub(self.committed)
    }

    /// Truncate back to the last successfully committed length. Called
    /// when a group fails mid-write or mid-commit: whatever partial or
    /// unflushed record bytes sit past `committed` must not replay as if
    /// they had been acknowledged. Unconditional — a failed `write_all`
    /// can leave bytes on disk that `self.bytes` never counted.
    pub fn rollback_uncommitted(&mut self) -> io::Result<()> {
        self.file.set_len(self.committed)?;
        self.file.seek(SeekFrom::Start(self.committed))?;
        self.bytes = self.committed;
        Ok(())
    }

    /// Drop every record: truncate back to a bare header. Called after
    /// the snapshot has absorbed the log's contents — and only after the
    /// snapshot's appended records have been synced, or a power loss
    /// could pair the truncated log with a snapshot that lacks them.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(FILE_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(FILE_HEADER_LEN))?;
        // Bookkeeping tracks the *file*, not the sync outcome: the
        // truncation above already happened, so `bytes`/`committed`
        // must drop to the header even if the fsync below fails —
        // otherwise a later rollback would set_len the file back UP,
        // zero-filling a region the scanner can never get past, and
        // appends committed after it would be unrecoverable.
        self.bytes = FILE_HEADER_LEN;
        self.committed = FILE_HEADER_LEN;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Force everything staged to stable storage, whatever `fsync` says.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        self.committed = self.bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("numa-wal-unit-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Append one profile record as its own commit; returns the record's
    /// encoded size. The payload is opaque to the WAL.
    fn append(w: &mut WalWriter, label: &str, bytes: &[u8]) -> u64 {
        let n = w
            .write_encoded(&encode_bin_record(label, bytes, fnv1a(bytes)))
            .unwrap();
        w.commit().unwrap();
        n
    }

    const PAYLOAD: &[u8] = b"NPCB\xFF\x00opaque";

    #[test]
    fn records_round_trip() {
        let dir = tmp("roundtrip");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        append(&mut w, "run-a", PAYLOAD);
        append(&mut w, "run-b", PAYLOAD);
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.entries[0].label, "run-a");
        assert_eq!(scan.entries[1].bytes, PAYLOAD);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.valid_len, w.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_profile_records_round_trip() {
        let dir = tmp("binprofile");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        append(&mut w, "bin-run", PAYLOAD);
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.entries,
            vec![BinProfileRecord {
                label: "bin-run".to_string(),
                content_hash: fnv1a(PAYLOAD),
                bytes: PAYLOAD.to_vec(),
            }]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record whose header checksum holds but whose recorded id is not
    /// its payload's hash is bit rot in the payload: the scan cuts there
    /// like any torn tail, keeping the prefix and counting the cut.
    #[test]
    fn a_payload_that_is_not_its_ids_preimage_is_a_torn_tail() {
        let dir = tmp("wrongid");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        let first_end = FILE_HEADER_LEN + append(&mut w, "kept", PAYLOAD);
        let liar = w
            .write_encoded(&encode_bin_record("liar", PAYLOAD, 0xFEED_FACE))
            .unwrap();
        w.commit().unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].label, "kept");
        assert_eq!(scan.valid_len, first_end);
        assert_eq!(scan.truncated_bytes, liar);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A complete header that is not exactly this build's — an older or
    /// newer version, another magic, a non-zero reserved word — fails
    /// the scan with the typed refusal, whatever follows it.
    #[test]
    fn foreign_headers_are_refused_with_a_typed_error() {
        let dir = tmp("foreign");
        let path = wal_path(&dir);
        let ours = encode_file_header(WAL_MAGIC);
        for (at, value, says) in [
            (5, 3, "magic \"HPWL\", version 3, reserved 0x0000"),
            (5, 4, "magic \"HPWL\", version 4, reserved 0x0000"),
            (5, 5, "magic \"HPWL\", version 5, reserved 0x0000"),
            (5, 7, "magic \"HPWL\", version 7, reserved 0x0000"),
            (0, b'N', "magic \"NPWL\", version 6, reserved 0x0000"),
            (7, 1, "magic \"HPWL\", version 6, reserved 0x0001"),
        ] {
            let mut bytes = ours.to_vec();
            bytes[at] = value;
            bytes.extend_from_slice(&encode_bin_record("r", PAYLOAD, fnv1a(PAYLOAD)));
            std::fs::write(&path, &bytes).unwrap();
            let err = scan_file(&path, WAL_MAGIC).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let refusal = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<UnsupportedHeader>())
                .expect("typed refusal");
            assert_eq!(refusal.path, path);
            assert_eq!(refusal.found[..], bytes[..8]);
            assert_eq!(refusal.supported, ours);
            // The message names the file, what it holds and what is read.
            let text = err.to_string();
            assert!(text.contains("wal.log"), "{text}");
            assert!(text.contains(&format!("header says {says};")), "{text}");
            assert!(
                text.ends_with("reads only magic \"HPWL\", version 6, reserved 0x0000"),
                "{text}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "file untouched");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file shorter than a header is a torn creation, not a foreign
    /// file: it scans as empty and the writer reinitializes it.
    #[test]
    fn short_header_scans_empty_and_reinitializes() {
        let dir = tmp("shortheader");
        let path = wal_path(&dir);
        std::fs::write(&path, b"HPWL\x00").unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.truncated_bytes, 5);
        let w = WalWriter::open_after(&path, WAL_MAGIC, scan.valid_len, false).unwrap();
        assert_eq!(w.len(), FILE_HEADER_LEN);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            encode_file_header(WAL_MAGIC).to_vec()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_record_kind_truncates_the_tail() {
        let dir = tmp("unknownkind");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        let first_end = FILE_HEADER_LEN + append(&mut w, "one", PAYLOAD);
        drop(w);
        // Records with a valid checksum but a kind this revision does
        // not define: one from the future, one from the JSON era, and the
        // retired session seal and chunk.
        for kind in [9u8, 0, 2, 4] {
            let mut bytes = std::fs::read(&path).unwrap();
            let mut record = encode_bin_record("", PAYLOAD, fnv1a(PAYLOAD));
            record[RECORD_HEADER_LEN] = kind;
            let checksum = fnv1a(&record[RECORD_HEADER_LEN..RECORD_HEADER_LEN + 13]);
            record[4..12].copy_from_slice(&checksum.to_be_bytes());
            bytes.extend_from_slice(&record);
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_file(&path, WAL_MAGIC).unwrap();
            assert_eq!(scan.entries.len(), 1);
            assert_eq!(scan.valid_len, first_end);
            assert!(scan.truncated_bytes > 0);
            std::fs::write(&path, &bytes[..first_end as usize]).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        append(&mut w, "whole", PAYLOAD);
        let whole = w.len();
        drop(w);
        // Simulate a torn append: half a record of garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.valid_len, whole);
        assert_eq!(scan.truncated_bytes, 7);
        // Reopening after the intact prefix discards the tail.
        let w = WalWriter::open_after(&path, WAL_MAGIC, scan.valid_len, false).unwrap();
        assert_eq!(w.len(), whole);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_drops_record_and_tail() {
        let dir = tmp("corrupt");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        let first_end = FILE_HEADER_LEN + append(&mut w, "one", PAYLOAD);
        append(&mut w, "two", PAYLOAD);
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let hit = first_end as usize + 20; // somewhere inside record two
        bytes[hit] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].label, "one");
        assert_eq!(scan.valid_len, first_end);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_writes_commit_as_one_durability_point() {
        let dir = tmp("batch");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, WAL_MAGIC, 0, false).unwrap();
        for label in ["a", "b", "c"] {
            w.write_encoded(&encode_bin_record(label, PAYLOAD, fnv1a(PAYLOAD)))
                .unwrap();
        }
        w.commit().unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 3);
        assert_eq!(scan.valid_len, w.len());
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = tmp("missing");
        let scan = scan_file(&wal_path(&dir), WAL_MAGIC).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
