//! Append-only write-ahead log of ingested profiles and in-flight
//! streaming sessions.
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
//! with a kind byte:
//!
//! ```text
//! u32  body_len       byte count of `body`
//! u64  body_fnv       FNV-1a over the body bytes
//! body:
//!   u8   kind         0 = profile (JSON), 1 = session chunk (JSON),
//!                     2 = session seal, 3 = profile (binary codec),
//!                     4 = session chunk (binary codec).
//!                     Kinds 0 and 1 are read-only: older builds wrote
//!                     them, this one replays them but writes only 2–4.
//!
//!   kind 0 (profile — a fully ingested run, JSON payload):
//!     u32  label_len    byte count of `label`
//!     ...  label        UTF-8 label
//!     u64  content_hash FNV-1a of the canonical JSON (the ProfileId)
//!     ...  json         canonical profile JSON (rest of the body)
//!
//!   kind 1 (chunk — one staged piece of an open streaming session):
//!     u64  session      session id
//!     u64  seq          zero-based chunk sequence number
//!     ...  payload      chunk JSON (rest of the body)
//!
//!   kind 2 (seal — commits a streamed session):
//!     u64  session      session id
//!     u64  chunks       number of chunks the session must replay with
//!     u64  content_hash FNV-1a of the assembled canonical JSON
//!     u32  label_len    byte count of `label`
//!     ...  label        UTF-8 label (rest of the body, exactly)
//!
//!   kind 3 (profile — binary numa-codec payload, persist v3):
//!     u32  label_len    byte count of `label`
//!     ...  label        UTF-8 label
//!     u64  content_hash FNV-1a of the canonical JSON (the ProfileId —
//!                       the content id stays defined over the canonical
//!                       JSON even when the payload is binary)
//!     u32  json_len     byte length the canonical JSON would have
//!                       (memory-accounting metadata; replay skips the
//!                       re-serialization that would otherwise be needed
//!                       to recover it)
//!     ...  bytes        numa-codec profile buffer (rest of the body)
//!
//!   kind 4 (chunk — binary numa-codec payload):
//!     u64  session      session id
//!     u64  seq          zero-based chunk sequence number
//!     ...  bytes        binary chunk payload (rest of the body)
//! ```
//!
//! A sealed session replays as a profile only when every chunk
//! `0..chunks` is present and the assembled canonical JSON hashes to the
//! seal's `content_hash`; chunks with no seal (the client or daemon died
//! mid-stream) are dropped wholesale. Snapshot compaction folds profile
//! records into the snapshot and re-stages the chunk records of still
//! open sessions into the fresh WAL, so an open stream survives a
//! compaction that happens underneath it.
//!
//! ## Recovery contract
//!
//! [`scan_bytes`] validates records in order and stops at the first
//! torn or corrupt one (bad header, short read, checksum mismatch,
//! unknown kind, invalid UTF-8, inconsistent lengths). Everything before
//! that point is returned; everything after is reported as truncated
//! tail bytes, never an error. A writer reopened with
//! [`WalWriter::open_after`] physically truncates the file to the intact
//! prefix so later appends extend a clean log.

use crate::hash::fnv1a;
use numa_faults::{StdStorage, Storage, StorageFile};
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};

/// On-disk format revision for WAL and snapshot files. Version 2 added
/// the record kind byte (streaming-session chunk and seal records);
/// version 3 added the binary-codec profile and chunk kinds. Readers
/// accept any version `1..=PERSIST_VERSION` — every record kind is
/// self-describing, so an old file replays under a new build unchanged
/// (and compaction rewrites it forward to the current version).
pub const PERSIST_VERSION: u16 = 3;

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

const KIND_PROFILE: u8 = 0;
const KIND_CHUNK: u8 = 1;
const KIND_SEAL: u8 = 2;
const KIND_PROFILE_BIN: u8 = 3;
const KIND_CHUNK_BIN: u8 = 4;

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

/// Whether an 8-byte file header is readable by this build: right
/// magic, version `1..=PERSIST_VERSION`, reserved bytes zero. Version
/// range rather than equality so data directories written by older
/// builds keep replaying.
fn header_readable(head: &[u8; 8], magic: [u8; 4]) -> bool {
    let version = u16::from_be_bytes([head[4], head[5]]);
    head[..4] == magic && (1..=PERSIST_VERSION).contains(&version) && head[6..8] == [0, 0]
}

/// One intact profile record pulled off a log or snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    pub label: String,
    /// Canonical profile JSON.
    pub json: String,
    /// FNV-1a of `json` — the profile's content id.
    pub content_hash: u64,
}

/// One intact binary-codec profile record (persist v3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinProfileRecord {
    pub label: String,
    /// FNV-1a of the canonical JSON — the profile's content id. The
    /// invariant holds across formats: a binary record and the JSON
    /// record of the same profile carry the same hash.
    pub content_hash: u64,
    /// Byte length the canonical JSON would have (memory accounting).
    pub json_len: u32,
    /// numa-codec profile buffer.
    pub bytes: Vec<u8>,
}

/// A chunk payload as a record holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkData {
    /// Chunk JSON from a kind-1 record an older build wrote; only the
    /// decoder produces this.
    Json(String),
    /// Binary chunk payload (kind 4), the form every build stages now.
    Binary(Vec<u8>),
}

/// One staged chunk of an open streaming session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    pub session: u64,
    /// Zero-based sequence number within the session.
    pub seq: u64,
    pub payload: ChunkData,
}

/// The commit record of a streamed session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealRecord {
    pub session: u64,
    /// Number of chunks (`seq` 0..chunks) the session must replay with.
    pub chunks: u64,
    /// FNV-1a of the assembled canonical JSON — the resulting ProfileId.
    pub content_hash: u64,
    pub label: String,
}

/// Any intact record pulled off a log or snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalEntry {
    Profile(WalRecord),
    ProfileBin(BinProfileRecord),
    Chunk(ChunkRecord),
    Seal(SealRecord),
}

/// Serialize one legacy JSON profile record (kind 0). No ingest path
/// writes these any more; the encoder stays for the fixtures that prove
/// old data directories still replay.
pub fn encode_record(label: &str, json: &str, content_hash: u64) -> Vec<u8> {
    let body_len = 1 + 4 + label.len() + 8 + json.len();
    let mut out = begin_record(body_len, KIND_PROFILE);
    out.extend_from_slice(&(label.len() as u32).to_be_bytes());
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(&content_hash.to_be_bytes());
    out.extend_from_slice(json.as_bytes());
    finish_record(out)
}

/// Serialize one binary-codec profile record (record header + body).
/// `content_hash` is still the FNV-1a of the canonical JSON and
/// `json_len` its byte length — the content id is format-independent.
pub fn encode_bin_record(label: &str, bytes: &[u8], content_hash: u64, json_len: u32) -> Vec<u8> {
    let body_len = 1 + 4 + label.len() + 8 + 4 + bytes.len();
    let mut out = begin_record(body_len, KIND_PROFILE_BIN);
    out.extend_from_slice(&(label.len() as u32).to_be_bytes());
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(&content_hash.to_be_bytes());
    out.extend_from_slice(&json_len.to_be_bytes());
    out.extend_from_slice(bytes);
    finish_record(out)
}

/// Serialize one session-chunk record (record header + body) around a
/// binary chunk payload — the only chunk form written (kind 4).
pub fn encode_chunk_record(session: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = 1 + 8 + 8 + payload.len();
    let mut out = begin_record(body_len, KIND_CHUNK_BIN);
    out.extend_from_slice(&session.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(payload);
    finish_record(out)
}

/// Serialize one session-seal record (record header + body).
pub fn encode_seal_record(session: u64, chunks: u64, content_hash: u64, label: &str) -> Vec<u8> {
    let body_len = 1 + 8 + 8 + 8 + 4 + label.len();
    let mut out = begin_record(body_len, KIND_SEAL);
    out.extend_from_slice(&session.to_be_bytes());
    out.extend_from_slice(&chunks.to_be_bytes());
    out.extend_from_slice(&content_hash.to_be_bytes());
    out.extend_from_slice(&(label.len() as u32).to_be_bytes());
    out.extend_from_slice(label.as_bytes());
    finish_record(out)
}

fn begin_record(body_len: usize, kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body_len);
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    out.extend_from_slice(&[0u8; 8]); // body_fnv placeholder
    out.push(kind);
    out
}

fn finish_record(mut out: Vec<u8>) -> Vec<u8> {
    let fnv = fnv1a(&out[RECORD_HEADER_LEN..]);
    out[4..12].copy_from_slice(&fnv.to_be_bytes());
    out
}

/// Result of scanning a log or snapshot file.
#[derive(Clone, Debug, Default)]
pub struct RecordScan {
    /// Intact records, in file order.
    pub entries: Vec<WalEntry>,
    /// File offset just past the last intact record (or past the header
    /// when no record is intact; 0 when even the header is invalid).
    pub valid_len: u64,
    /// Bytes after `valid_len`: the torn/corrupt tail that replay drops.
    pub truncated_bytes: u64,
}

impl RecordScan {
    /// The profile records among [`RecordScan::entries`], in file order.
    pub fn profiles(&self) -> impl Iterator<Item = &WalRecord> {
        self.entries.iter().filter_map(|e| match e {
            WalEntry::Profile(r) => Some(r),
            _ => None,
        })
    }
}

/// Scan a record file's raw bytes, stopping at the first torn or
/// corrupt record. Never fails: damage is reported as truncation.
pub fn scan_bytes(bytes: &[u8], magic: [u8; 4]) -> RecordScan {
    let total = bytes.len() as u64;
    if bytes.len() < FILE_HEADER_LEN as usize
        || !header_readable(bytes[..8].try_into().unwrap(), magic)
    {
        return RecordScan {
            entries: Vec::new(),
            valid_len: 0,
            truncated_bytes: total,
        };
    }
    let mut entries = Vec::new();
    let mut off = FILE_HEADER_LEN as usize;
    while let Some((entry, next)) = decode_record_at(bytes, off) {
        entries.push(entry);
        off = next;
    }
    RecordScan {
        entries,
        valid_len: off as u64,
        truncated_bytes: total - off as u64,
    }
}

/// Decode the record starting at `off`, returning it plus the offset of
/// the next record. `None` means torn/corrupt (or clean end of file).
fn decode_record_at(bytes: &[u8], off: usize) -> Option<(WalEntry, usize)> {
    let rest = &bytes[off..];
    if rest.len() < RECORD_HEADER_LEN {
        return None; // clean end or torn record header
    }
    let body_len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
    if rest.len() - RECORD_HEADER_LEN < body_len {
        return None; // body truncated (or corrupt length field)
    }
    let stored_fnv = u64::from_be_bytes(rest[4..12].try_into().unwrap());
    let body = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + body_len];
    let entry = decode_body(stored_fnv, body)?;
    Some((entry, off + RECORD_HEADER_LEN + body_len))
}

/// Checksum and decode one record body. `None` means corrupt.
fn decode_body(stored_fnv: u64, body: &[u8]) -> Option<WalEntry> {
    if fnv1a(body) != stored_fnv {
        return None; // bit rot anywhere in the body
    }
    // The checksum held, so the body should parse — but lengths are
    // re-validated anyway: a writer bug must not become a panic here.
    let (&kind, body) = body.split_first()?;
    match kind {
        KIND_PROFILE => decode_profile_body(body),
        KIND_CHUNK => decode_chunk_body(body, false),
        KIND_SEAL => decode_seal_body(body),
        KIND_PROFILE_BIN => decode_bin_profile_body(body),
        KIND_CHUNK_BIN => decode_chunk_body(body, true),
        _ => None, // record from a future format revision
    }
}

fn decode_profile_body(body: &[u8]) -> Option<WalEntry> {
    if body.len() < 12 {
        return None;
    }
    let label_len = u32::from_be_bytes(body[..4].try_into().unwrap()) as usize;
    if body.len() < 4 + label_len + 8 {
        return None;
    }
    let label = std::str::from_utf8(&body[4..4 + label_len]).ok()?;
    let content_hash =
        u64::from_be_bytes(body[4 + label_len..4 + label_len + 8].try_into().unwrap());
    let json = std::str::from_utf8(&body[4 + label_len + 8..]).ok()?;
    if fnv1a(json.as_bytes()) != content_hash {
        return None; // label and JSON were swapped / mis-framed
    }
    Some(WalEntry::Profile(WalRecord {
        label: label.to_string(),
        json: json.to_string(),
        content_hash,
    }))
}

fn decode_bin_profile_body(body: &[u8]) -> Option<WalEntry> {
    if body.len() < 16 {
        return None;
    }
    let label_len = u32::from_be_bytes(body[..4].try_into().unwrap()) as usize;
    if body.len() < 4 + label_len + 12 {
        return None;
    }
    let label = std::str::from_utf8(&body[4..4 + label_len]).ok()?;
    let at = 4 + label_len;
    let content_hash = u64::from_be_bytes(body[at..at + 8].try_into().unwrap());
    let json_len = u32::from_be_bytes(body[at + 8..at + 12].try_into().unwrap());
    // The payload is opaque here: the WAL frames bytes, the codec crate
    // owns their meaning. The record checksum already vouched for them.
    Some(WalEntry::ProfileBin(BinProfileRecord {
        label: label.to_string(),
        content_hash,
        json_len,
        bytes: body[at + 12..].to_vec(),
    }))
}

fn decode_chunk_body(body: &[u8], binary: bool) -> Option<WalEntry> {
    if body.len() < 16 {
        return None;
    }
    let session = u64::from_be_bytes(body[..8].try_into().unwrap());
    let seq = u64::from_be_bytes(body[8..16].try_into().unwrap());
    let payload = if binary {
        ChunkData::Binary(body[16..].to_vec())
    } else {
        ChunkData::Json(std::str::from_utf8(&body[16..]).ok()?.to_string())
    };
    Some(WalEntry::Chunk(ChunkRecord {
        session,
        seq,
        payload,
    }))
}

fn decode_seal_body(body: &[u8]) -> Option<WalEntry> {
    if body.len() < 28 {
        return None;
    }
    let session = u64::from_be_bytes(body[..8].try_into().unwrap());
    let chunks = u64::from_be_bytes(body[8..16].try_into().unwrap());
    let content_hash = u64::from_be_bytes(body[16..24].try_into().unwrap());
    let label_len = u32::from_be_bytes(body[24..28].try_into().unwrap()) as usize;
    if body.len() != 28 + label_len {
        return None;
    }
    let label = std::str::from_utf8(&body[28..]).ok()?;
    Some(WalEntry::Seal(SealRecord {
        session,
        chunks,
        content_hash,
        label: label.to_string(),
    }))
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
/// multi-GiB allocation.
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
    if file.read_exact_or_eof(&mut head)? < head.len() || !header_readable(&head, magic) {
        return Ok(RecordScan {
            entries: Vec::new(),
            valid_len: 0,
            truncated_bytes: total,
        });
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
        let Some(entry) = decode_body(stored_fnv, &body) else {
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

/// Appender over the write-ahead log. Each append is written and
/// flushed to the OS before the ingest call returns, so an acknowledged
/// profile survives a SIGKILL of the process; `fsync` additionally
/// forces it to stable storage (surviving power loss) at a large
/// per-append cost.
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
    /// Open the WAL at `path`, truncating it to `valid_len` (the intact
    /// prefix reported by [`scan_file`]) and positioning for appends. A
    /// missing or headerless file is (re)initialized with a fresh
    /// header.
    pub fn open_after(path: &Path, valid_len: u64, fsync: bool) -> io::Result<WalWriter> {
        Self::open_with(&StdStorage, path, valid_len, fsync)
    }

    /// [`WalWriter::open_after`] through an explicit [`Storage`].
    pub fn open_with(
        storage: &dyn Storage,
        path: &Path,
        valid_len: u64,
        fsync: bool,
    ) -> io::Result<WalWriter> {
        let mut file = storage.open_rw(path)?;
        let mut bytes = valid_len;
        if bytes < FILE_HEADER_LEN {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&encode_file_header(WAL_MAGIC))?;
            file.flush()?;
            // A fresh log is a *file creation*: without syncing the file
            // and its parent directory, a power loss could forget the
            // log ever existed while later appends' acks claimed
            // durability.
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

    /// Buffer one pre-encoded record (see [`encode_bin_record`],
    /// [`encode_chunk_record`], [`encode_seal_record`]) without
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

    /// Drop every record: truncate back to a bare header. Called after a
    /// snapshot has absorbed the log's contents — and only after the
    /// snapshot's rename has been made durable (directory fsync), or a
    /// power loss could pair the truncated log with the *old* snapshot.
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

    /// Force the log to stable storage.
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

    /// Append one legacy JSON profile record as its own commit; returns
    /// the record's encoded size.
    fn append(w: &mut WalWriter, label: &str, json: &str) -> u64 {
        let n = w
            .write_encoded(&encode_record(label, json, fnv1a(json.as_bytes())))
            .unwrap();
        w.commit().unwrap();
        n
    }

    /// A kind-1 (JSON chunk) record as pre-codec builds wrote it.
    fn legacy_chunk_record(session: u64, seq: u64, json: &str) -> Vec<u8> {
        let mut out = begin_record(1 + 8 + 8 + json.len(), KIND_CHUNK);
        out.extend_from_slice(&session.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(json.as_bytes());
        finish_record(out)
    }

    #[test]
    fn records_round_trip() {
        let dir = tmp("roundtrip");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let json = "{\"k\":1}";
        append(&mut w, "run-a", json);
        append(&mut w, "run-b", json);
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        let profiles: Vec<_> = scan.profiles().collect();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].label, "run-a");
        assert_eq!(profiles[1].json, json);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.valid_len, w.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_records_round_trip() {
        let dir = tmp("session");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let json = "{\"k\":1}";
        w.write_encoded(&legacy_chunk_record(7, 0, "{\"threads\":[]}"))
            .unwrap();
        w.write_encoded(&encode_record("oneshot", json, fnv1a(json.as_bytes())))
            .unwrap();
        w.write_encoded(&encode_chunk_record(7, 1, &[0xAB, 0x00, 0xCD]))
            .unwrap();
        w.write_encoded(&encode_seal_record(7, 2, 0xDEAD_BEEF, "streamed"))
            .unwrap();
        w.commit().unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 4);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.entries[0],
            WalEntry::Chunk(ChunkRecord {
                session: 7,
                seq: 0,
                payload: ChunkData::Json("{\"threads\":[]}".to_string()),
            })
        );
        assert!(matches!(&scan.entries[1], WalEntry::Profile(r) if r.label == "oneshot"));
        assert!(matches!(
            &scan.entries[2],
            WalEntry::Chunk(c) if c.seq == 1 && c.payload == ChunkData::Binary(vec![0xAB, 0x00, 0xCD])
        ));
        assert_eq!(
            scan.entries[3],
            WalEntry::Seal(SealRecord {
                session: 7,
                chunks: 2,
                content_hash: 0xDEAD_BEEF,
                label: "streamed".to_string(),
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_profile_records_round_trip() {
        let dir = tmp("binprofile");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let bytes = vec![0x4E, 0x50, 0x43, 0x42, 0xFF, 0x00]; // opaque to the WAL
        w.write_encoded(&encode_bin_record("bin-run", &bytes, 0xFEED_FACE, 4242))
            .unwrap();
        w.commit().unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.entries,
            vec![WalEntry::ProfileBin(BinProfileRecord {
                label: "bin-run".to_string(),
                content_hash: 0xFEED_FACE,
                json_len: 4242,
                bytes,
            })]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_version_headers_still_scan() {
        let dir = tmp("oldversion");
        let path = wal_path(&dir);
        // A v2-era file: old header version, records of the old kinds.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&[0, 0]);
        let json = "{\"k\":1}";
        bytes.extend_from_slice(&encode_record("legacy", json, fnv1a(json.as_bytes())));
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.truncated_bytes, 0);
        assert!(matches!(&scan.entries[0], WalEntry::Profile(r) if r.label == "legacy"));
        // Version 0 and versions from the future are not readable.
        for bad in [0u16, PERSIST_VERSION + 1] {
            bytes[4..6].copy_from_slice(&bad.to_be_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_file(&path, WAL_MAGIC).unwrap();
            assert!(scan.entries.is_empty(), "version {bad} must not scan");
            assert_eq!(scan.valid_len, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_record_kind_truncates_the_tail() {
        let dir = tmp("unknownkind");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let json = "{\"k\":1}";
        let first_end = FILE_HEADER_LEN + append(&mut w, "one", json);
        drop(w);
        // A record with a valid checksum but a kind from the future.
        let mut bytes = std::fs::read(&path).unwrap();
        let mut body = vec![9u8]; // unknown kind
        body.extend_from_slice(b"payload");
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&fnv1a(&body).to_be_bytes());
        bytes.extend_from_slice(&body);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.valid_len, first_end);
        assert!(scan.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp("torn");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let json = "{\"k\":1}";
        append(&mut w, "whole", json);
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
        let w = WalWriter::open_after(&path, scan.valid_len, false).unwrap();
        assert_eq!(w.len(), whole);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_drops_record_and_tail() {
        let dir = tmp("corrupt");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let json = "{\"k\":1}";
        let first_end = FILE_HEADER_LEN + append(&mut w, "one", json);
        append(&mut w, "two", json);
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let hit = first_end as usize + 20; // somewhere inside record two
        bytes[hit] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        let profiles: Vec<_> = scan.profiles().collect();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].label, "one");
        assert_eq!(scan.valid_len, first_end);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_writes_commit_as_one_durability_point() {
        let dir = tmp("batch");
        let path = wal_path(&dir);
        let mut w = WalWriter::open_after(&path, 0, false).unwrap();
        let json = "{\"k\":1}";
        for label in ["a", "b", "c"] {
            w.write_encoded(&encode_record(label, json, fnv1a(json.as_bytes())))
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

    #[test]
    fn bad_header_invalidates_whole_file() {
        let dir = tmp("badheader");
        let path = wal_path(&dir);
        std::fs::write(&path, b"NOPE0000somebytes").unwrap();
        let scan = scan_file(&path, WAL_MAGIC).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.truncated_bytes, 17);
        std::fs::remove_dir_all(&dir).ok();
    }
}
