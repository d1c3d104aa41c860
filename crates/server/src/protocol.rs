//! The `hpcd` wire protocol: length-prefixed JSON frames with a
//! versioned header, shared by the daemon and the client.
//!
//! ## Frame layout (all integers big-endian)
//!
//! ```text
//! offset 0..4    magic      b"HPCD"
//! offset 4..6    version    u16 — protocol revision, see [`PROTOCOL_VERSION`]
//! offset 6..8    flags      u16 — capability bits, see [`caps`]
//! offset 8..12   length     u32 — payload byte count
//! offset 12..    payload    `length` bytes: UTF-8 JSON, or — for the two
//!                           profile-bearing requests — the binary
//!                           envelope (BINARY_REQUEST_MAGIC)
//! ```
//!
//! A peer validates the header as soon as its 12 bytes arrive, so an
//! oversized or garbage frame is rejected *before* any payload is read
//! or reserved for. Truncation (EOF inside a frame) is reported
//! distinctly from a clean EOF at a frame boundary. [`read_frame`]
//! consumes exactly one frame per call, so pipelined frames are each
//! answered; [`FrameDecoder`] parses the same format from pushed bytes.
//!
//! ## Version and capability rules
//!
//! Every frame carries the sender's protocol version. The daemon
//! accepts exactly [`PROTOCOL_VERSION`]; on mismatch it answers with a
//! [`WireError::UnsupportedVersion`] response (framed with its *own*
//! version) and closes the connection.
//!
//! The flags word (the header field that was required-zero before
//! capability bits existed) carries [`caps`] bits. A client sets the
//! capability a request relies on (e.g. [`caps::STREAMING`] on session
//! ops); the daemon answers a request whose bits it does not implement
//! with a typed [`WireError::Unsupported`] — the connection stays
//! usable, unlike the old behavior of hanging up on any non-zero word.
//! Every daemon response frame advertises the full [`caps::SUPPORTED`]
//! set, so one `ping` round trip tells a client what the server can do.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Current protocol revision.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"HPCD";

/// Header size in bytes (magic + version + reserved + length).
pub const HEADER_LEN: usize = 12;

/// Default cap on payload size: 4 MiB holds any profile the simulator
/// emits with generous headroom while bounding per-connection memory.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Capability bits carried in the frame header's flags word.
///
/// A request frame sets the bits the request relies on; a response
/// frame advertises everything the daemon implements. Unknown bits in a
/// request draw a typed [`WireError::Unsupported`] instead of a closed
/// connection, so a newer client downgrades gracefully against an older
/// daemon.
pub mod caps {
    /// Streaming ingestion sessions: `OpenSession` /
    /// `AppendChunkBinary` / `SealSession` / `AbortSession`.
    pub const STREAMING: u16 = 1 << 0;

    /// Binary columnar profile payloads (`IngestBinary` /
    /// `AppendChunkBinary`): request payloads framed as numa-codec
    /// containers instead of JSON — the only encoding the two
    /// profile-bearing ops have. A daemon predating the codec answers
    /// them with a typed `Unsupported`.
    pub const BINARY_CODEC: u16 = 1 << 1;

    /// The `Metrics` op: Prometheus text exposition of every daemon
    /// counter over the wire. A daemon predating the metrics registry
    /// answers the op with a typed `Unsupported` instead of a closed
    /// connection.
    pub const METRICS: u16 = 1 << 2;

    /// Every capability this build implements; response frames carry
    /// this set.
    pub const SUPPORTED: u16 = STREAMING | BINARY_CODEC | METRICS;

    /// Render a capability set for display (`ping` output, errors).
    pub fn render(flags: u16) -> String {
        let mut names = Vec::new();
        if flags & STREAMING != 0 {
            names.push("streaming");
        }
        if flags & BINARY_CODEC != 0 {
            names.push("binary-codec");
        }
        if flags & METRICS != 0 {
            names.push("metrics");
        }
        let unknown = flags & !SUPPORTED;
        if unknown != 0 {
            names.push("unknown");
        }
        if names.is_empty() {
            format!("{flags:#06x} (none)")
        } else {
            format!("{flags:#06x} ({})", names.join(", "))
        }
    }
}

// ---------------------------------------------------------------------------
// Framing errors
// ---------------------------------------------------------------------------

/// Structural frame failures, detected from the header alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Declared payload length exceeds the receiver's cap.
    Oversized { len: usize, max: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?} (expected {MAGIC:?})"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Failures while pulling a frame off a blocking reader.
#[derive(Debug)]
pub enum RecvError {
    /// Underlying transport error (including read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// Structurally invalid frame.
    Frame(FrameError),
    /// The stream ended in the middle of a frame.
    TruncatedEof { got: usize },
}

impl RecvError {
    /// Whether this is a read timeout rather than a hard failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            RecvError::Io(e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Frame(e) => write!(f, "frame error: {e}"),
            RecvError::TruncatedEof { got } => {
                write!(f, "connection closed mid-frame after {got} byte(s)")
            }
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

impl From<FrameError> for RecvError {
    fn from(e: FrameError) -> Self {
        RecvError::Frame(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// One decoded frame: the sender's version and capability flags plus
/// the raw payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub version: u16,
    /// Capability bits ([`caps`]). Requests set what they rely on;
    /// responses advertise what the daemon implements.
    pub flags: u16,
    pub payload: Vec<u8>,
}

/// Checked header length for a payload. The wire format stores the
/// length as a `u32`, so anything past `u32::MAX` bytes cannot be
/// framed at all — this is where that is enforced (a plain `as u32`
/// cast would silently truncate and emit a corrupt header).
pub fn frame_len(payload_len: usize) -> Result<u32, FrameError> {
    u32::try_from(payload_len).map_err(|_| FrameError::Oversized {
        len: payload_len,
        max: u32::MAX as usize,
    })
}

/// Serialize a frame with no capability flags. Fails (rather than
/// emitting a corrupt header) when the payload does not fit the `u32`
/// length field.
pub fn encode_frame(version: u16, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    encode_frame_flags(version, 0, payload)
}

/// Serialize a frame carrying capability flags.
pub fn encode_frame_flags(version: u16, flags: u16, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let len = frame_len(payload.len())?;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one flag-less frame to a blocking writer. See
/// [`write_frame_flags`].
pub fn write_frame(
    w: &mut impl Write,
    version: u16,
    payload: &[u8],
    max: usize,
) -> Result<(), RecvError> {
    write_frame_flags(w, version, 0, payload, max)
}

/// Write one frame to a blocking writer. Refuses payloads above `max`
/// locally so a well-behaved peer never triggers the remote cap; the
/// wire format's own `u32` ceiling applies even when `max` is larger.
pub fn write_frame_flags(
    w: &mut impl Write,
    version: u16,
    flags: u16,
    payload: &[u8],
    max: usize,
) -> Result<(), RecvError> {
    if payload.len() > max {
        return Err(RecvError::Frame(FrameError::Oversized {
            len: payload.len(),
            max,
        }));
    }
    w.write_all(&encode_frame_flags(version, flags, payload)?)?;
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental decoding
// ---------------------------------------------------------------------------

/// Push-style frame parser: feed bytes as they arrive (in arbitrary
/// chunks), pull complete frames out. Survives any split of the byte
/// stream, which is exactly what TCP delivers.
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    buf: Vec<u8>,
    /// Set once a structural error is seen; the stream is unrecoverable
    /// past that point and every later poll repeats the error.
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            max_frame,
            buf: Vec::new(),
            poisoned: None,
        }
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Try to pull the next complete frame. `Ok(None)` means "need more
    /// bytes"; a structural error poisons the decoder permanently.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let Some(header) = self.buf.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (version, flags, len) =
            parse_header(header, self.max_frame).map_err(|e| self.poison(e))?;
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.buf.drain(..HEADER_LEN + len);
        Ok(Some(Frame {
            version,
            flags,
            payload,
        }))
    }

    fn poison(&mut self, e: FrameError) -> FrameError {
        self.poisoned = Some(e.clone());
        e
    }
}

/// Validate a frame header: `(version, flags, payload length)`, or the
/// structural error that makes the stream unusable. The one header
/// check, shared by [`FrameDecoder`] and [`read_frame`], so a bad magic
/// or an over-cap length is refused before a payload byte is read or
/// reserved for.
fn parse_header(
    header: &[u8; HEADER_LEN],
    max_frame: usize,
) -> Result<(u16, u16, usize), FrameError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    // Capability bits are policy, not framing: unknown bits are the
    // *receiver's* call (the daemon answers with a typed error), so
    // any flags word is accepted here.
    let flags = u16::from_be_bytes([header[6], header[7]]);
    let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    Ok((version, flags, len))
}

/// The most [`read_frame`] reserves for a payload before any of it has
/// arrived. A frame up to this size lands in one exactly-sized buffer;
/// a longer one grows the buffer as its bytes come in, so a peer cannot
/// make the receiver allocate by *declaring* a length.
const PAYLOAD_RESERVE: usize = 64 << 10;

/// Read exactly one frame from a blocking reader — the header, then the
/// `length` payload bytes it declares, and never a byte past them, so
/// frames a peer pipelined behind this one stay in the transport for
/// the next call. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; EOF mid-frame is [`RecvError::TruncatedEof`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Frame>, RecvError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(RecvError::TruncatedEof { got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let (version, flags, len) = parse_header(&header, max_frame)?;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(RecvError::TruncatedEof {
            got: HEADER_LEN + payload.len(),
        });
    }
    Ok(Some(Frame {
        version,
        flags,
        payload,
    }))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Output shape for report queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportFormat {
    Text,
    Json,
}

/// Every operation the daemon serves — the stack's one verb table,
/// reached over TCP or in-process. Profile references are resolved by
/// the store: an id prefix or a label.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List stored profiles.
    List,
    /// Resolve an id prefix or label to a stored profile.
    Resolve { reference: String },
    /// Cross-run aggregate over the whole stored set.
    Aggregate,
    /// Top-n hottest variables across the stored set.
    Top { n: usize },
    /// Per-profile report, text or JSON.
    Report {
        profile: String,
        format: ReportFormat,
    },
    /// Code-centric CCT view; subtrees below `min_share_permille`/1000
    /// of program cost are elided.
    CodeView {
        profile: String,
        min_share_permille: u16,
    },
    /// Address-centric view of one variable.
    AddressView { profile: String, var: String },
    /// Pairwise diff of two stored runs.
    Diff { before: String, after: String },
    /// Store accounting (profile count, dedup, cache counters).
    StoreStats,
    /// Daemon observability: per-op counters + latency percentiles.
    ServerStats,
    /// Prometheus text exposition of every registered metric (requires
    /// [`caps::METRICS`]); the same text `GET /metrics` serves.
    Metrics,
    /// Drop every memoized artifact (admin; used to measure cold paths).
    ClearCache,
    /// Ask the daemon to drain and exit (admin).
    Shutdown,
    /// Open a streaming ingestion session (requires
    /// [`caps::STREAMING`]). The reply carries the session id, the lease
    /// the client must renew by appending, and the buffer limits.
    OpenSession { label: String },
    /// Seal a session: assemble its chunks and commit the profile
    /// through the ordinary ingest path.
    SealSession { session: u64 },
    /// Abort a session, discarding everything buffered for it.
    AbortSession { session: u64 },
    /// Ingest one binary-codec profile container (requires
    /// [`caps::BINARY_CODEC`]). Travels as a [`BINARY_REQUEST_MAGIC`]
    /// envelope, not JSON.
    IngestBinary { label: String, bytes: Vec<u8> },
    /// Append chunk `seq` (strictly sequential from 0) to an open
    /// session; `bytes` is a binary-codec `ChunkPayload` (requires
    /// [`caps::STREAMING`] | [`caps::BINARY_CODEC`]). Travels as a
    /// [`BINARY_REQUEST_MAGIC`] envelope, not JSON.
    AppendChunkBinary {
        session: u64,
        seq: u64,
        bytes: Vec<u8>,
    },
}

impl Request {
    /// Stable op name, used for per-op metrics and display.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::List => "list",
            Request::Resolve { .. } => "resolve",
            Request::Aggregate => "aggregate",
            Request::Top { .. } => "top",
            Request::Report { .. } => "report",
            Request::CodeView { .. } => "code-view",
            Request::AddressView { .. } => "address-view",
            Request::Diff { .. } => "diff",
            Request::StoreStats => "store-stats",
            Request::ServerStats => "server-stats",
            Request::Metrics => "metrics",
            Request::ClearCache => "clear-cache",
            Request::Shutdown => "shutdown",
            Request::OpenSession { .. } => "open-session",
            Request::SealSession { .. } => "seal-session",
            Request::AbortSession { .. } => "abort-session",
            Request::IngestBinary { .. } => "ingest-binary",
            Request::AppendChunkBinary { .. } => "append-chunk-binary",
        }
    }

    /// The capability bits this request relies on; the client stamps
    /// them on the request frame, and the daemon rejects a streaming op
    /// whose frame failed to declare [`caps::STREAMING`].
    pub fn required_caps(&self) -> u16 {
        match self {
            Request::OpenSession { .. }
            | Request::SealSession { .. }
            | Request::AbortSession { .. } => caps::STREAMING,
            Request::IngestBinary { .. } => caps::BINARY_CODEC,
            Request::AppendChunkBinary { .. } => caps::STREAMING | caps::BINARY_CODEC,
            Request::Metrics => caps::METRICS,
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One row of a `List` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Hex content id.
    pub id: String,
    pub label: String,
    pub threads: usize,
    /// Length of the profile's canonical codec bytes.
    pub codec_bytes: usize,
}

/// Per-op counter row in a `ServerStats` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpStat {
    pub op: String,
    pub requests: u64,
    pub errors: u64,
}

/// Latency summary from the daemon's fixed-bucket histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// One store shard's accounting row in a `ServerStats` response.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStatRow {
    pub shard: usize,
    pub profiles: usize,
    pub ingests: u64,
    /// Shelf read-lock acquisitions that had to block.
    pub read_contended: u64,
    /// Shelf write-lock acquisitions that had to block.
    pub write_contended: u64,
}

/// One retained slow-op span in a `ServerStats` response: a request
/// whose total service time crossed the daemon's `--slow-op-ms`
/// threshold, with the structured facts its trace collected.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SlowOpRow {
    /// Trace sequence number (strictly monotonic per daemon).
    pub seq: u64,
    pub op: String,
    /// Request payload size in bytes.
    pub bytes: u64,
    /// Store shard the request touched, if any.
    pub shard: Option<u32>,
    /// Memo-cache outcome, if the request consulted the cache.
    pub cache_hit: Option<bool>,
    /// Microseconds spent blocked on the WAL ack, if the request
    /// committed a profile.
    pub wal_ack_us: Option<u64>,
    /// End-to-end service time in microseconds.
    pub total_us: u64,
    /// Whether the request drew a typed error.
    pub error: bool,
}

/// The `server-stats` payload: request observability plus the store's
/// cache counters, one round trip.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerStatsReport {
    pub uptime_ms: u64,
    pub connections_accepted: u64,
    pub connections_closed: u64,
    pub requests_total: u64,
    pub errors_total: u64,
    pub rejected_oversized: u64,
    pub malformed_frames: u64,
    pub timeouts: u64,
    pub per_op: Vec<OpStat>,
    pub latency: LatencySummary,
    pub store_profiles: usize,
    /// Hex content hash of the stored set — two daemons (or a daemon
    /// before and after a crash-restart) holding the same corpus report
    /// the same value.
    pub store_set_hash: String,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    /// Whether the store is backed by a `--data-dir`.
    pub durable: bool,
    /// Startup recovery: records loaded from the snapshot.
    pub snapshot_records_loaded: u64,
    /// Startup recovery: records replayed from the WAL.
    pub wal_records_replayed: u64,
    /// Startup recovery: torn/corrupt tail bytes dropped (WAL +
    /// snapshot).
    pub wal_truncated_bytes: u64,
    /// Records appended to the WAL since startup.
    pub wal_appends: u64,
    /// Group commits since startup: WAL flushes that made a batch of
    /// appends durable. `wal_appends / wal_group_commits` is the
    /// achieved batching factor. Defaults to zero when talking to a
    /// daemon predating group commit.
    #[serde(default)]
    pub wal_group_commits: u64,
    /// Snapshot compactions since startup.
    pub snapshots_written: u64,
    /// Persistence I/O failures since startup (serving continued from
    /// memory).
    pub persist_io_errors: u64,
    /// Per-shard store accounting (empty when talking to a daemon
    /// predating the sharded store).
    #[serde(default)]
    pub store_shards: Vec<ShardStatRow>,
    /// Streaming sessions open right now.
    #[serde(default)]
    pub live_sessions: u64,
    /// Bytes buffered across all open streaming sessions.
    #[serde(default)]
    pub live_open_bytes: u64,
    /// Sessions opened since startup.
    #[serde(default)]
    pub live_sessions_opened: u64,
    /// Sessions sealed (committed) since startup.
    #[serde(default)]
    pub live_sessions_sealed: u64,
    /// Sessions aborted (client abort or failed seal) since startup.
    #[serde(default)]
    pub live_sessions_aborted: u64,
    /// Expired leases reclaimed by the janitor since startup.
    #[serde(default)]
    pub live_leases_reaped: u64,
    /// Chunks accepted since startup.
    #[serde(default)]
    pub live_chunks_appended: u64,
    /// Capacity-induced rejections (too many sessions, buffer budgets)
    /// since startup.
    #[serde(default)]
    pub live_backpressure: u64,
    /// Recent requests that crossed the slow-op threshold, oldest
    /// first (empty when talking to a daemon predating tracing).
    #[serde(default)]
    pub recent_slow_ops: Vec<SlowOpRow>,
}

impl ServerStatsReport {
    pub fn render(&self) -> String {
        let mut out = format!(
            "uptime: {:.1} s\n\
             connections: {} accepted, {} closed\n\
             requests: {} total, {} error(s)\n\
             frames: {} oversized rejected, {} malformed, {} timeout(s)\n\
             latency: p50 {} µs, p95 {} µs, p99 {} µs, max {} µs over {} request(s)\n\
             store: {} profile(s), set hash {}; cache {} hit(s), {} miss(es), {} insertion(s), {} eviction(s)\n",
            self.uptime_ms as f64 / 1e3,
            self.connections_accepted,
            self.connections_closed,
            self.requests_total,
            self.errors_total,
            self.rejected_oversized,
            self.malformed_frames,
            self.timeouts,
            self.latency.p50_us,
            self.latency.p95_us,
            self.latency.p99_us,
            self.latency.max_us,
            self.latency.count,
            self.store_profiles,
            self.store_set_hash,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
        );
        out.push_str(&format!(
            "live: {} session(s) open holding {} byte(s); {} opened, {} sealed, {} aborted, \
             {} lease(s) reaped, {} chunk(s) appended, {} backpressure rejection(s)\n",
            self.live_sessions,
            self.live_open_bytes,
            self.live_sessions_opened,
            self.live_sessions_sealed,
            self.live_sessions_aborted,
            self.live_leases_reaped,
            self.live_chunks_appended,
            self.live_backpressure,
        ));
        if self.durable {
            out.push_str(&format!(
                "persistence: recovered {} snapshot + {} wal record(s), {} truncated byte(s); \
                 {} append(s) in {} group commit(s), {} snapshot(s) written, {} io error(s)\n",
                self.snapshot_records_loaded,
                self.wal_records_replayed,
                self.wal_truncated_bytes,
                self.wal_appends,
                self.wal_group_commits,
                self.snapshots_written,
                self.persist_io_errors,
            ));
        } else {
            out.push_str("persistence: off (in-memory store)\n");
        }
        for s in &self.store_shards {
            out.push_str(&format!(
                "  shard {:>2}: {} profile(s), {} ingest(s), \
                 {} contended read(s), {} contended write(s)\n",
                s.shard, s.profiles, s.ingests, s.read_contended, s.write_contended,
            ));
        }
        for op in &self.per_op {
            out.push_str(&format!(
                "  op {:<14} {:>8} request(s) {:>6} error(s)\n",
                op.op, op.requests, op.errors
            ));
        }
        if !self.recent_slow_ops.is_empty() {
            out.push_str("recent slow ops:\n");
            for s in &self.recent_slow_ops {
                out.push_str(&format!(
                    "  #{} {:<14} {:>8} µs, {} byte(s){}{}{}{}\n",
                    s.seq,
                    s.op,
                    s.total_us,
                    s.bytes,
                    match s.shard {
                        Some(sh) => format!(", shard {sh}"),
                        None => String::new(),
                    },
                    match s.cache_hit {
                        Some(true) => ", cache hit",
                        Some(false) => ", cache miss",
                        None => "",
                    },
                    match s.wal_ack_us {
                        Some(us) => format!(", wal ack {us} µs"),
                        None => String::new(),
                    },
                    if s.error { ", error" } else { "" },
                ));
            }
        }
        out
    }
}

/// Typed error taxonomy every failure maps into. The connection stays
/// usable after a request-level error; frame-level errors
/// ([`WireError::Malformed`], [`WireError::Oversized`],
/// [`WireError::UnsupportedVersion`]) close it, since the byte stream
/// can no longer be trusted.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// Payload was not valid UTF-8 JSON for a known request.
    Malformed { detail: String },
    /// Frame payload exceeded the daemon's cap.
    Oversized { len: usize, max: usize },
    /// Client spoke a protocol revision the daemon does not serve.
    UnsupportedVersion { got: u16, supported: u16 },
    /// A profile reference matched nothing in the store.
    UnknownProfile { reference: String },
    /// A profile reference matched more than one stored profile.
    /// Candidates are rendered `"{id}  {label}"` rows so a client can
    /// show the user what to disambiguate between.
    AmbiguousReference {
        reference: String,
        candidates: Vec<String>,
    },
    /// The profile never recorded that variable.
    UnknownVariable { name: String },
    /// A set-level query hit an empty store.
    EmptyStore,
    /// An ingested payload was not a valid profile.
    ProfileParse { label: String, message: String },
    /// The daemon failed internally (a bug, not a client error).
    Internal { detail: String },
    /// The request relies on capability bits the daemon does not
    /// implement (or a streaming op arrived without declaring
    /// [`caps::STREAMING`]). The connection stays usable.
    Unsupported { feature: u16, supported: u16 },
    /// No such open session (never opened, already sealed or aborted,
    /// or lease-expired and reaped).
    UnknownSession { session: u64 },
    /// Chunks must arrive strictly in sequence, exactly once.
    BadChunkSequence {
        session: u64,
        got: u64,
        expected: u64,
    },
    /// One chunk exceeded the daemon's per-chunk limit.
    ChunkTooLarge { session: u64, len: u64, max: u64 },
    /// The session (or daemon-wide) buffer budget is exhausted; retry
    /// later or fall back to one-shot ingestion.
    SessionBufferFull { session: u64, bytes: u64, max: u64 },
    /// The daemon cannot take more streaming work right now (too many
    /// sessions or global backpressure); retry later.
    Busy { detail: String },
    /// A chunk payload did not parse.
    ChunkParse {
        session: u64,
        seq: u64,
        message: String,
    },
    /// A sealed chunk set did not assemble into a profile; the session
    /// was discarded.
    SessionIncomplete { session: u64, detail: String },
    /// The daemon could not make the operation durable (WAL append or
    /// commit failed — full disk, I/O error). The operation was rolled
    /// back, **not** applied: an ingest can be retried as-is; a failed
    /// seal discards the session, which must be re-streamed (a chunk
    /// append does no I/O and never fails this way). The daemon keeps
    /// serving reads, and the connection stays usable.
    NotDurable { detail: String },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the server cap of {max}")
            }
            WireError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "protocol version {got} unsupported (server speaks {supported})"
                )
            }
            WireError::UnknownProfile { reference } => {
                write!(f, "{reference:?} matches no stored profile")
            }
            WireError::AmbiguousReference {
                reference,
                candidates,
            } => {
                write!(
                    f,
                    "{reference:?} is ambiguous: {} profiles match",
                    candidates.len()
                )?;
                for row in candidates.iter().take(8) {
                    write!(f, "\n  {row}")?;
                }
                if candidates.len() > 8 {
                    write!(f, "\n  ... and {} more", candidates.len() - 8)?;
                }
                Ok(())
            }
            WireError::UnknownVariable { name } => {
                write!(f, "variable {name:?} not present in the profile")
            }
            WireError::EmptyStore => write!(f, "the store holds no profiles"),
            WireError::ProfileParse { label, message } => {
                write!(f, "cannot parse profile {label:?}: {message}")
            }
            WireError::Internal { detail } => write!(f, "internal server error: {detail}"),
            WireError::Unsupported { feature, supported } => write!(
                f,
                "capability {} not supported (server implements {})",
                caps::render(*feature),
                caps::render(*supported)
            ),
            WireError::UnknownSession { session } => {
                write!(
                    f,
                    "no open session {session:#x} (sealed, aborted, or lease expired)"
                )
            }
            WireError::BadChunkSequence {
                session,
                got,
                expected,
            } => write!(
                f,
                "session {session:#x}: chunk seq {got} out of order (expected {expected})"
            ),
            WireError::ChunkTooLarge { session, len, max } => write!(
                f,
                "session {session:#x}: chunk of {len} bytes exceeds the {max}-byte limit"
            ),
            WireError::SessionBufferFull {
                session,
                bytes,
                max,
            } => write!(
                f,
                "session {session:#x}: buffer would reach {bytes} bytes (limit {max})"
            ),
            WireError::Busy { detail } => write!(f, "daemon busy: {detail}"),
            WireError::ChunkParse {
                session,
                seq,
                message,
            } => write!(
                f,
                "session {session:#x}: chunk {seq} does not parse: {message}"
            ),
            WireError::SessionIncomplete { session, detail } => {
                write!(f, "session {session:#x} does not assemble: {detail}")
            }
            WireError::NotDurable { detail } => {
                write!(f, "operation not durable (rolled back): {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Every reply the daemon sends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    Ingested {
        id: String,
        added: bool,
    },
    Profiles(Vec<ProfileEntry>),
    Resolved {
        id: String,
        label: String,
    },
    /// Rendered artifact text (aggregate, top, report, views, diff,
    /// store-stats).
    Text(String),
    /// Boxed: the report (per-op rows + per-shard rows) dwarfs every
    /// other variant, and `Response` values move through channels.
    ServerStats(Box<ServerStatsReport>),
    CacheCleared,
    ShuttingDown,
    /// A streaming session is open; stream chunks under this id and
    /// within these limits, appending at least once per `lease_ms`.
    SessionOpened {
        session: u64,
        lease_ms: u64,
        max_chunk_bytes: u64,
        max_session_bytes: u64,
    },
    /// Chunk accepted: buffered in the daemon's memory until the seal.
    /// `open_bytes` is the daemon-wide buffered total after the append.
    ChunkAppended {
        session: u64,
        seq: u64,
        open_bytes: u64,
    },
    /// The session assembled and committed. `added` is false when the
    /// identical profile was already stored (content-addressed dedup).
    SessionSealed {
        id: String,
        added: bool,
        chunks: u64,
    },
    SessionAborted {
        session: u64,
    },
    Error(WireError),
}

// ---------------------------------------------------------------------------
// Payload helpers (JSON requests + the binary request envelope)
// ---------------------------------------------------------------------------

/// Magic opening a binary request payload. JSON payloads cannot start
/// with these bytes (`N` opens no JSON value), so the two request
/// encodings are disjoint and a receiver dispatches on the first four
/// bytes alone.
pub const BINARY_REQUEST_MAGIC: [u8; 4] = *b"NBRQ";

const BINOP_INGEST: u8 = 0;
const BINOP_APPEND_CHUNK: u8 = 1;

/// Binary envelope layout (all integers big-endian):
///
/// ```text
/// offset 0..4  magic   b"NBRQ"
/// offset 4     opcode  0 = IngestBinary, 1 = AppendChunkBinary
///
/// opcode 0:  u32 label_len, label bytes, codec bytes (rest)
/// opcode 1:  u64 session, u64 seq, chunk bytes (rest)
/// ```
fn encode_binary_request(req: &Request) -> Option<Vec<u8>> {
    match req {
        Request::IngestBinary { label, bytes } => {
            let mut out = Vec::with_capacity(9 + label.len() + bytes.len());
            out.extend_from_slice(&BINARY_REQUEST_MAGIC);
            out.push(BINOP_INGEST);
            out.extend_from_slice(&(label.len() as u32).to_be_bytes());
            out.extend_from_slice(label.as_bytes());
            out.extend_from_slice(bytes);
            Some(out)
        }
        Request::AppendChunkBinary {
            session,
            seq,
            bytes,
        } => {
            let mut out = Vec::with_capacity(21 + bytes.len());
            out.extend_from_slice(&BINARY_REQUEST_MAGIC);
            out.push(BINOP_APPEND_CHUNK);
            out.extend_from_slice(&session.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(bytes);
            Some(out)
        }
        _ => None,
    }
}

fn decode_binary_request(payload: &[u8]) -> Result<Request, WireError> {
    let malformed = |detail: &str| WireError::Malformed {
        detail: detail.to_string(),
    };
    let body = &payload[BINARY_REQUEST_MAGIC.len()..];
    let (&opcode, body) = body
        .split_first()
        .ok_or_else(|| malformed("binary request truncated before opcode"))?;
    match opcode {
        BINOP_INGEST => {
            if body.len() < 4 {
                return Err(malformed("binary ingest truncated before label length"));
            }
            let label_len = u32::from_be_bytes(body[..4].try_into().unwrap()) as usize;
            if body.len() < 4 + label_len {
                return Err(malformed("binary ingest label exceeds payload"));
            }
            let label = std::str::from_utf8(&body[4..4 + label_len])
                .map_err(|_| malformed("binary ingest label is not UTF-8"))?
                .to_string();
            Ok(Request::IngestBinary {
                label,
                bytes: body[4 + label_len..].to_vec(),
            })
        }
        BINOP_APPEND_CHUNK => {
            if body.len() < 16 {
                return Err(malformed("binary chunk append truncated before header"));
            }
            let session = u64::from_be_bytes(body[..8].try_into().unwrap());
            let seq = u64::from_be_bytes(body[8..16].try_into().unwrap());
            Ok(Request::AppendChunkBinary {
                session,
                seq,
                bytes: body[16..].to_vec(),
            })
        }
        other => Err(WireError::Malformed {
            detail: format!("unknown binary request opcode {other}"),
        }),
    }
}

/// Decode a frame payload into a request: the binary envelope when it
/// opens with [`BINARY_REQUEST_MAGIC`], UTF-8 JSON otherwise.
/// Distinguishes "not UTF-8" from "not a request" in the error detail.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    if payload.starts_with(&BINARY_REQUEST_MAGIC) {
        return decode_binary_request(payload);
    }
    let text = std::str::from_utf8(payload).map_err(|e| WireError::Malformed {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })
}

/// Encode a request as a frame payload. Binary-codec requests take the
/// [`BINARY_REQUEST_MAGIC`] envelope; everything else is JSON.
pub fn encode_request(req: &Request) -> Vec<u8> {
    if let Some(bin) = encode_binary_request(req) {
        return bin;
    }
    serde_json::to_string(req)
        .expect("requests always serialize")
        .into_bytes()
}

/// Encode a response as a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    serde_json::to_string(resp)
        .expect("responses always serialize")
        .into_bytes()
}

/// Decode a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let text = std::str::from_utf8(payload).map_err(|e| WireError::Malformed {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })
}
