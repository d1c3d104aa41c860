//! The `hpcd` wire protocol: length-prefixed binary frames with a
//! versioned header, shared by the daemon and the client.
//!
//! ## Frame layout (all integers big-endian)
//!
//! ```text
//! offset 0..4    magic      b"HPCD"
//! offset 4..6    version    u16 — protocol revision, see [`PROTOCOL_VERSION`]
//! offset 6..8    flags      u16 — capability bits, see [`caps`]
//! offset 8..12   length     u32 — payload byte count
//! offset 12..    payload    `length` bytes: one tagged binary message
//! ```
//!
//! A peer validates the header as soon as its 12 bytes arrive, so an
//! oversized or garbage frame is rejected *before* any payload is read
//! or reserved for. Truncation (EOF inside a frame) is reported
//! distinctly from a clean EOF at a frame boundary. [`read_frame`]
//! consumes exactly one frame per call, so pipelined frames are each
//! answered; [`FrameDecoder`] parses the same format from pushed bytes.
//!
//! ## Payload grammar
//!
//! A payload is one tag byte naming the [`Request`] or [`Response`]
//! variant (the two number their tags separately), then the variant's
//! fields in declaration order:
//!
//! * `u8`/`u16`/`u32`/`u64` big-endian; `usize` travels as `u64`;
//! * `bool` one byte, 0 or 1;
//! * `String` a `u32` length, then UTF-8 (validated);
//! * `Vec<T>` a `u32` count, then the items — the count is checked
//!   against the bytes left before anything is allocated;
//! * a [`WireError`] is its own tag byte, then its fields;
//! * the trailing blob of `IngestBinary`, `AppendChunkBinary` and
//!   `Text` is the rest of the payload, unprefixed — a rendered text
//!   travels as its own bytes.
//!
//! An unknown tag, a short field, a bad UTF-8 string or flag byte, and
//! bytes left over after the last field are all a typed
//! [`WireError::Malformed`]. The tags are the `= N` after each variant
//! below — the one table of them. A retired tag is never reused: it
//! stays an unknown tag.
//!
//! ## Version and capability rules
//!
//! Every frame carries the sender's protocol version. The daemon
//! accepts exactly [`PROTOCOL_VERSION`]; on mismatch it answers with a
//! [`WireError::UnsupportedVersion`] response (framed with its *own*
//! version) and closes the connection.
//!
//! The flags word carries [`caps`] bits. A client sets the capability
//! a request relies on (e.g. [`caps::STREAMING`] on session ops); the
//! daemon answers a request whose bits it does not implement with a
//! typed [`WireError::Unsupported`] and keeps the connection. Every
//! daemon response frame advertises the full [`caps::SUPPORTED`] set,
//! so one `ping` round trip tells a client what the server can do.

use std::fmt;
use std::io::{self, Read, Write};

/// Current protocol revision. 3 retired the `store-stats` and
/// `server-stats` ops, so a revision-2 peer is told so by
/// [`WireError::UnsupportedVersion`] instead of meeting an unknown tag.
pub const PROTOCOL_VERSION: u16 = 3;

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
/// connection.
pub mod caps {
    /// Streaming ingestion sessions: `OpenSession` /
    /// `AppendChunkBinary` / `SealSession` / `AbortSession`.
    pub const STREAMING: u16 = 1 << 0;

    // Bit 1 is retired (it marked binary request payloads, which every
    // request now is) and is never reused: a frame that sets it draws
    // the `Unsupported` any unknown bit draws.

    /// The `Metrics` op: Prometheus text exposition of every daemon
    /// counter over the wire.
    pub const METRICS: u16 = 1 << 2;

    /// Every capability this build implements; response frames carry
    /// this set.
    pub const SUPPORTED: u16 = STREAMING | METRICS;

    /// Render a capability set for display (`ping` output, errors).
    pub fn render(flags: u16) -> String {
        let mut names = Vec::new();
        if flags & STREAMING != 0 {
            names.push("streaming");
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

/// Capacity of a connection's read buffer, on either end: a request, or
/// a rendered answer of tens of KB, arrives in one `read` together with
/// its header, and frames a peer pipelined stay buffered for the next
/// [`read_frame`].
pub(crate) const READ_BUFFER: usize = 64 << 10;

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
// The payload grammar
// ---------------------------------------------------------------------------

/// A field type's binary encoding: [`Wire::put`] appends it,
/// [`Wire::take`] reads it off the front of the input, and `MIN` is the
/// fewest bytes any value of the type occupies — what a list count is
/// checked against before anything is allocated.
trait Wire: Sized {
    const MIN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn take(input: &mut &[u8]) -> Result<Self, WireError>;
}

/// A message's trailing blob: the rest of the payload, unprefixed.
trait Rest: Sized {
    fn put_rest(&self, out: &mut Vec<u8>);
    fn take_rest(input: &mut &[u8]) -> Result<Self, WireError>;
}

fn malformed(detail: String) -> WireError {
    WireError::Malformed { detail }
}

fn truncated(what: &str, left: usize) -> WireError {
    malformed(format!(
        "payload truncated in a {what} ({left} byte(s) left)"
    ))
}

fn utf8(bytes: &[u8]) -> Result<String, WireError> {
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|e| malformed(format!("string is not UTF-8: {e}")))
}

/// A string length or list count as its `u32` word. Nothing longer fits
/// a frame, whose own length field is a `u32`.
fn put_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len)
        .expect("a string or list longer than a frame")
        .put(out);
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn take(input: &mut &[u8]) -> Result<Self, WireError> {
                let (head, tail) = input
                    .split_first_chunk()
                    .ok_or_else(|| truncated(stringify!($t), input.len()))?;
                *input = tail;
                Ok(<$t>::from_be_bytes(*head))
            }
        }
    )*};
}
wire_uint!(u8, u16, u32, u64);

impl Wire for usize {
    const MIN: usize = <u64 as Wire>::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let n = u64::take(input)?;
        usize::try_from(n).map_err(|_| malformed(format!("{n} does not fit a usize")))
    }
}

impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::take(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("flag byte {b:#04x} is not 0 or 1"))),
        }
    }
}

impl Wire for String {
    const MIN: usize = <u32 as Wire>::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::take(input)? as usize;
        let (bytes, tail) = input
            .split_at_checked(len)
            .ok_or_else(|| truncated("string", input.len()))?;
        *input = tail;
        utf8(bytes)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = <u32 as Wire>::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for item in self {
            item.put(out);
        }
    }
    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = u32::take(input)? as usize;
        if count.saturating_mul(T::MIN) > input.len() {
            return Err(malformed(format!(
                "a list of {count} item(s) cannot fit in {} byte(s)",
                input.len()
            )));
        }
        (0..count).map(|_| T::take(input)).collect()
    }
}

impl Rest for Vec<u8> {
    fn put_rest(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn take_rest(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(std::mem::take(input).to_vec())
    }
}

impl Rest for String {
    fn put_rest(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn take_rest(input: &mut &[u8]) -> Result<Self, WireError> {
        utf8(std::mem::take(input))
    }
}

/// Declare a struct whose encoding is its fields in declaration order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl Wire for $name {
            const MIN: usize = 0 $(+ <$ty as Wire>::MIN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $( self.$field.put(out); )*
            }
            fn take(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok($name { $( $field: Wire::take(input)?, )* })
            }
        }
    };
}

/// Declare an enum whose encoding is the variant's `= TAG` byte, then
/// its fields in declaration order. A field written `..name` is the
/// trailing blob; a tuple variant names its one field, `Text(..text:
/// String)`, so that the table can bind it.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($what:literal) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $({
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty ),*
                    $(, ..$rest:ident: $rty:ty )? $(,)?
                })?
                $(( $one:ident: $oty:ty ))?
                $(( ..$tail:ident: $tty:ty ))?
                = $tag:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $({ $( $(#[$fmeta])* $field: $ty, )* $( $rest: $rty, )? })?
                $(($oty))?
                $(($tty))?,
            )*
        }

        impl Wire for $name {
            const MIN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        $name::$variant
                        $({ $($field,)* $($rest,)? })?
                        $(($one))?
                        $(($tail))? => {
                            out.push($tag);
                            $( $( $field.put(out); )* $( $rest.put_rest(out); )? )?
                            $( $one.put(out); )?
                            $( $tail.put_rest(out); )?
                        }
                    )*
                }
            }
            fn take(input: &mut &[u8]) -> Result<Self, WireError> {
                match u8::take(input)? {
                    $(
                        $tag => {
                            $(
                                $( let $field = Wire::take(input)?; )*
                                $( let $rest = Rest::take_rest(input)?; )?
                            )?
                            $( let $one = Wire::take(input)?; )?
                            $( let $tail = Rest::take_rest(input)?; )?
                            Ok($name::$variant
                                $({ $($field,)* $($rest,)? })?
                                $(($one))?
                                $(($tail))?)
                        }
                    )*
                    tag => Err(malformed(format!(concat!("unknown ", $what, " tag {:#04x}"), tag))),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

wire_enum! {
    /// Output shape for report queries.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ReportFormat ("report format") {
        Text = 0,
        Json = 1,
    }
}

wire_enum! {
    /// Every operation the daemon serves — the stack's one verb table,
    /// reached over TCP or in-process. Profile references are resolved
    /// by the store: an id prefix or a label.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request ("request") {
        /// Liveness probe.
        Ping = 0,
        /// List stored profiles.
        List = 1,
        /// Resolve an id prefix or label to a stored profile.
        Resolve { reference: String } = 2,
        /// Cross-run aggregate over the whole stored set.
        Aggregate = 3,
        /// Top-n hottest variables across the stored set.
        Top { n: usize } = 4,
        /// Per-profile report, text or JSON.
        Report { profile: String, format: ReportFormat } = 5,
        /// Code-centric CCT view; subtrees below `min_share_permille`/1000
        /// of program cost are elided.
        CodeView { profile: String, min_share_permille: u16 } = 6,
        /// Address-centric view of one variable.
        AddressView { profile: String, var: String } = 7,
        /// Pairwise diff of two stored runs.
        Diff { before: String, after: String } = 8,
        // Tags 9 and 10 are retired (the `store-stats` and `server-stats`
        // reports, which duplicated `Metrics`) and are never reused: a
        // payload that opens with either is an unknown request tag.
        /// Prometheus text exposition of every registered metric, then
        /// a `# slow-op` comment per retained slow span (requires
        /// [`caps::METRICS`]); the same text `GET /metrics` serves.
        Metrics = 11,
        /// Drop every memoized artifact (admin; used to measure cold
        /// paths).
        ClearCache = 12,
        /// Ask the daemon to drain and exit (admin).
        Shutdown = 13,
        /// Open a streaming ingestion session (requires
        /// [`caps::STREAMING`]). The reply carries the session id, the
        /// lease the client must renew by appending, and the buffer
        /// limits.
        OpenSession { label: String } = 14,
        /// Seal a session: assemble its chunks and commit the profile
        /// through the ordinary ingest path.
        SealSession { session: u64 } = 15,
        /// Abort a session, discarding everything buffered for it.
        AbortSession { session: u64 } = 16,
        /// Ingest one numa-codec profile container; the container is
        /// the rest of the payload.
        IngestBinary { label: String, ..bytes: Vec<u8> } = 17,
        /// Append chunk `seq` (strictly sequential from 0) to an open
        /// session (requires [`caps::STREAMING`]); `bytes`, the rest of
        /// the payload, is a numa-codec `ChunkPayload`.
        AppendChunkBinary { session: u64, seq: u64, ..bytes: Vec<u8> } = 18,
    }
}

impl Request {
    /// The capability bits this request relies on; the client stamps
    /// them on the request frame, and the daemon rejects a streaming op
    /// whose frame failed to declare [`caps::STREAMING`].
    pub fn required_caps(&self) -> u16 {
        match self {
            Request::OpenSession { .. }
            | Request::SealSession { .. }
            | Request::AbortSession { .. }
            | Request::AppendChunkBinary { .. } => caps::STREAMING,
            Request::Metrics => caps::METRICS,
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

wire_struct! {
    /// One row of a `List` response.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ProfileEntry {
        /// Hex content id.
        pub id: String,
        pub label: String,
        pub threads: usize,
        /// Length of the profile's canonical codec bytes.
        pub codec_bytes: usize,
    }
}

wire_enum! {
    /// Typed error taxonomy every failure maps into. The connection
    /// stays usable after a request-level error; frame-level errors
    /// ([`WireError::Malformed`], [`WireError::Oversized`],
    /// [`WireError::UnsupportedVersion`]) close it, since the byte
    /// stream can no longer be trusted.
    #[derive(Clone, Debug, PartialEq)]
    pub enum WireError ("wire error") {
        /// Payload was not a well-formed message of a known request.
        Malformed { detail: String } = 0,
        /// Frame payload exceeded the daemon's cap.
        Oversized { len: usize, max: usize } = 1,
        /// Client spoke a protocol revision the daemon does not serve.
        UnsupportedVersion { got: u16, supported: u16 } = 2,
        /// A profile reference matched nothing in the store.
        UnknownProfile { reference: String } = 3,
        /// A profile reference matched more than one stored profile.
        /// Candidates are rendered `"{id}  {label}"` rows so a client
        /// can show the user what to disambiguate between.
        AmbiguousReference { reference: String, candidates: Vec<String> } = 4,
        /// The profile never recorded that variable.
        UnknownVariable { name: String } = 5,
        /// A set-level query hit an empty store.
        EmptyStore = 6,
        /// An ingested payload was not a valid profile.
        ProfileParse { label: String, message: String } = 7,
        /// The daemon failed internally (a bug, not a client error).
        Internal { detail: String } = 8,
        /// The request relies on capability bits the daemon does not
        /// implement (or a streaming op arrived without declaring
        /// [`caps::STREAMING`]). The connection stays usable.
        Unsupported { feature: u16, supported: u16 } = 9,
        /// No such open session (never opened, already sealed or
        /// aborted, or lease-expired and reaped).
        UnknownSession { session: u64 } = 10,
        /// Chunks must arrive strictly in sequence, exactly once.
        BadChunkSequence { session: u64, got: u64, expected: u64 } = 11,
        /// One chunk exceeded the daemon's per-chunk limit.
        ChunkTooLarge { session: u64, len: u64, max: u64 } = 12,
        /// The session (or daemon-wide) buffer budget is exhausted;
        /// retry later or fall back to one-shot ingestion.
        SessionBufferFull { session: u64, bytes: u64, max: u64 } = 13,
        /// The daemon cannot take more streaming work right now (too
        /// many sessions or global backpressure); retry later.
        Busy { detail: String } = 14,
        /// A chunk payload did not parse.
        ChunkParse { session: u64, seq: u64, message: String } = 15,
        /// A sealed chunk set did not assemble into a profile; the
        /// session was discarded.
        SessionIncomplete { session: u64, detail: String } = 16,
        /// The daemon could not make the operation durable (WAL append
        /// or commit failed — full disk, I/O error). The operation was
        /// rolled back, **not** applied: an ingest can be retried
        /// as-is; a failed seal discards the session, which must be
        /// re-streamed (a chunk append does no I/O and never fails this
        /// way). The daemon keeps serving reads, and the connection
        /// stays usable.
        NotDurable { detail: String } = 17,
    }
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

wire_enum! {
    /// Every reply the daemon sends.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response ("response") {
        Pong = 0,
        Ingested { id: String, added: bool } = 1,
        Profiles(entries: Vec<ProfileEntry>) = 2,
        Resolved { id: String, label: String } = 3,
        /// Rendered artifact text (aggregate, top, report, views, diff,
        /// metrics): the rest of the payload, as its own bytes.
        Text(..text: String) = 4,
        // Tag 5 is retired (the `server-stats` report) and never reused.
        CacheCleared = 6,
        ShuttingDown = 7,
        /// A streaming session is open; stream chunks under this id and
        /// within these limits, appending at least once per `lease_ms`.
        SessionOpened {
            session: u64,
            lease_ms: u64,
            max_chunk_bytes: u64,
            max_session_bytes: u64,
        } = 8,
        /// Chunk accepted: buffered in the daemon's memory until the
        /// seal. `open_bytes` is the daemon-wide buffered total after
        /// the append.
        ChunkAppended { session: u64, seq: u64, open_bytes: u64 } = 9,
        /// The session assembled and committed. `added` is false when
        /// the identical profile was already stored (content-addressed
        /// dedup).
        SessionSealed { id: String, added: bool, chunks: u64 } = 10,
        SessionAborted { session: u64 } = 11,
        Error(error: WireError) = 12,
    }
}

// ---------------------------------------------------------------------------
// Payload entry points
// ---------------------------------------------------------------------------

/// Decode one whole payload: the message, and not a byte more.
fn decode<T: Wire>(mut payload: &[u8]) -> Result<T, WireError> {
    let message = T::take(&mut payload)?;
    if !payload.is_empty() {
        return Err(malformed(format!(
            "{} byte(s) left over after the message",
            payload.len()
        )));
    }
    Ok(message)
}

fn encode<T: Wire>(message: &T) -> Vec<u8> {
    let mut out = Vec::new();
    message.put(&mut out);
    out
}

/// Decode a frame payload into a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    decode(payload)
}

/// Encode a request as a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Encode a response as a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode(resp)
}

/// Decode a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    decode(payload)
}
