//! Blocking client for the `hpcd` daemon: one TCP connection, one
//! request/response exchange per call, typed errors throughout.

use crate::protocol::{
    caps, decode_response, encode_request, read_frame, write_frame_flags, ProfileEntry, RecvError,
    ReportFormat, Request, Response, ServerStatsReport, WireError, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use numa_profiler::NumaProfile;
use numa_store::stream::split_profile;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The byte stream was not valid protocol frames.
    Transport(RecvError),
    /// The daemon answered with a typed error.
    Server(WireError),
    /// The daemon answered something other than what the call expects
    /// (a protocol-level surprise, not a server-reported error).
    Unexpected { expected: &'static str, got: String },
    /// The daemon closed the connection without answering.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Transport(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected { expected, got } => {
                write!(f, "unexpected response (wanted {expected}): {got}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            other => ClientError::Transport(other),
        }
    }
}

/// What [`Client::open_session`] hands back: the session id plus the
/// limits and lease the daemon imposes.
#[derive(Clone, Copy, Debug)]
pub struct SessionInfo {
    pub session: u64,
    /// Append at least once per lease or the janitor reaps the session.
    pub lease_ms: u64,
    pub max_chunk_bytes: u64,
    pub max_session_bytes: u64,
}

/// A blocking connection to an `hpcd-sim` daemon. Requests on one
/// client are serialized (the protocol has no pipelining); use one
/// client per thread for concurrency.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    server_caps: Option<u16>,
}

impl Client {
    /// Connect with default timeouts (5 s on every socket operation).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            server_caps: None,
        })
    }

    /// Connect to a daemon that may still be starting: retry with
    /// capped exponential backoff (10 ms doubling to 500 ms) until a
    /// connection succeeds or `deadline` elapses, then return the last
    /// connect error. Replaces the ping-poll loops tests and scripts
    /// used to spin while a daemon bound its port.
    pub fn connect_retry(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> Result<Client, ClientError> {
        let give_up = Instant::now() + deadline;
        let mut backoff = Duration::from_millis(10);
        loop {
            let remaining = give_up.saturating_duration_since(Instant::now());
            let attempt = remaining.clamp(Duration::from_millis(10), Duration::from_secs(5));
            match Self::connect_with_timeout(&addr, attempt) {
                Ok(c) => {
                    // The attempt timeout can be tiny near the deadline;
                    // restore sane per-op socket timeouts for the
                    // connection's working life.
                    c.stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                    c.stream.set_write_timeout(Some(Duration::from_secs(5)))?;
                    return Ok(c);
                }
                Err(e) => {
                    if Instant::now() + backoff >= give_up {
                        return Err(e);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
            }
        }
    }

    /// Capability bits the daemon advertised on its most recent
    /// response frame; `None` before the first exchange.
    pub fn server_caps(&self) -> Option<u16> {
        self.server_caps
    }

    /// Capability bits the daemon supports, probing with a
    /// [`Client::ping`] on the first call (cached for the connection's
    /// life afterwards — every response frame refreshes it).
    pub fn negotiated_caps(&mut self) -> Result<u16, ClientError> {
        match self.server_caps {
            Some(c) => Ok(c),
            None => self.ping(),
        }
    }

    /// Whether the daemon speaks the binary profile codec
    /// ([`caps::BINARY_CODEC`]). Probes with a ping on first use.
    pub fn binary_codec(&mut self) -> Result<bool, ClientError> {
        Ok(self.negotiated_caps()? & caps::BINARY_CODEC != 0)
    }

    /// Override the local frame cap (must match the daemon's to ingest
    /// very large profiles).
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max;
    }

    /// One raw request/response exchange. Server-reported errors come
    /// back as `Ok(Response::Error(..))`; use [`Client::call`] to have
    /// them folded into `Err`.
    pub fn call_raw(&mut self, req: &Request) -> Result<Response, ClientError> {
        // The request frame declares the capabilities the op relies on
        // (e.g. STREAMING on session ops) so an older daemon answers
        // with a typed `Unsupported` instead of killing the connection.
        write_frame_flags(
            &mut self.stream,
            PROTOCOL_VERSION,
            req.required_caps(),
            &encode_request(req),
            self.max_frame,
        )?;
        let frame =
            read_frame(&mut self.stream, self.max_frame)?.ok_or(ClientError::Disconnected)?;
        if frame.version != PROTOCOL_VERSION {
            return Err(ClientError::Server(WireError::UnsupportedVersion {
                got: frame.version,
                supported: PROTOCOL_VERSION,
            }));
        }
        self.server_caps = Some(frame.flags);
        decode_response(&frame.payload).map_err(ClientError::Server)
    }

    /// One exchange with server errors mapped to [`ClientError::Server`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.call_raw(req)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            resp => Ok(resp),
        }
    }

    // -- typed convenience wrappers ------------------------------------

    /// Liveness probe. Returns the capability bits the daemon
    /// advertises (see [`crate::protocol::caps`]).
    pub fn ping(&mut self) -> Result<u16, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(self.server_caps.unwrap_or(0)),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Returns `(id, newly_added)`.
    pub fn ingest(&mut self, label: &str, json: &str) -> Result<(String, bool), ClientError> {
        let req = Request::Ingest {
            label: label.to_string(),
            json: json.to_string(),
        };
        match self.call(&req)? {
            Response::Ingested { id, added } => Ok((id, added)),
            other => Err(unexpected("Ingested", &other)),
        }
    }

    /// Ingest already-encoded `numa-codec` profile bytes. Requires a
    /// daemon advertising [`caps::BINARY_CODEC`]; older daemons answer
    /// with a typed `Unsupported` error. Returns `(id, newly_added)`.
    pub fn ingest_binary(
        &mut self,
        label: &str,
        bytes: Vec<u8>,
    ) -> Result<(String, bool), ClientError> {
        let req = Request::IngestBinary {
            label: label.to_string(),
            bytes,
        };
        match self.call(&req)? {
            Response::Ingested { id, added } => Ok((id, added)),
            other => Err(unexpected("Ingested", &other)),
        }
    }

    /// Ingest an in-memory profile, negotiating the encoding: the
    /// binary codec when the daemon advertises [`caps::BINARY_CODEC`]
    /// (probing with a ping if this is the connection's first
    /// exchange), canonical JSON otherwise. Either way the stored
    /// profile — content id, dedup, queries — is identical.
    pub fn ingest_profile(
        &mut self,
        label: &str,
        profile: &NumaProfile,
    ) -> Result<(String, bool), ClientError> {
        if self.binary_codec()? {
            self.ingest_binary(label, numa_codec::encode_profile(profile))
        } else {
            self.ingest(label, &profile.to_json())
        }
    }

    pub fn list(&mut self) -> Result<Vec<ProfileEntry>, ClientError> {
        match self.call(&Request::List)? {
            Response::Profiles(entries) => Ok(entries),
            other => Err(unexpected("Profiles", &other)),
        }
    }

    pub fn resolve(&mut self, reference: &str) -> Result<(String, String), ClientError> {
        let req = Request::Resolve {
            reference: reference.to_string(),
        };
        match self.call(&req)? {
            Response::Resolved { id, label } => Ok((id, label)),
            other => Err(unexpected("Resolved", &other)),
        }
    }

    pub fn aggregate(&mut self) -> Result<String, ClientError> {
        self.text(&Request::Aggregate)
    }

    pub fn top(&mut self, n: usize) -> Result<String, ClientError> {
        self.text(&Request::Top { n })
    }

    pub fn report(&mut self, profile: &str, format: ReportFormat) -> Result<String, ClientError> {
        self.text(&Request::Report {
            profile: profile.to_string(),
            format,
        })
    }

    pub fn code_view(
        &mut self,
        profile: &str,
        min_share_permille: u16,
    ) -> Result<String, ClientError> {
        self.text(&Request::CodeView {
            profile: profile.to_string(),
            min_share_permille,
        })
    }

    pub fn address_view(&mut self, profile: &str, var: &str) -> Result<String, ClientError> {
        self.text(&Request::AddressView {
            profile: profile.to_string(),
            var: var.to_string(),
        })
    }

    pub fn diff(&mut self, before: &str, after: &str) -> Result<String, ClientError> {
        self.text(&Request::Diff {
            before: before.to_string(),
            after: after.to_string(),
        })
    }

    pub fn store_stats(&mut self) -> Result<String, ClientError> {
        self.text(&Request::StoreStats)
    }

    pub fn server_stats(&mut self) -> Result<ServerStatsReport, ClientError> {
        match self.call(&Request::ServerStats)? {
            Response::ServerStats(s) => Ok(*s),
            other => Err(unexpected("ServerStats", &other)),
        }
    }

    /// Prometheus text exposition of every daemon metric — the same
    /// text `GET /metrics` serves. Requires a daemon advertising
    /// [`caps::METRICS`]; older daemons answer a typed `Unsupported`.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.text(&Request::Metrics)
    }

    pub fn clear_cache(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::ClearCache)? {
            Response::CacheCleared => Ok(()),
            other => Err(unexpected("CacheCleared", &other)),
        }
    }

    /// Ask the daemon to drain and exit; the daemon closes the
    /// connection after answering.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }

    // -- streaming sessions --------------------------------------------

    /// Open a streaming ingestion session.
    pub fn open_session(&mut self, label: &str) -> Result<SessionInfo, ClientError> {
        let req = Request::OpenSession {
            label: label.to_string(),
        };
        match self.call(&req)? {
            Response::SessionOpened {
                session,
                lease_ms,
                max_chunk_bytes,
                max_session_bytes,
            } => Ok(SessionInfo {
                session,
                lease_ms,
                max_chunk_bytes,
                max_session_bytes,
            }),
            other => Err(unexpected("SessionOpened", &other)),
        }
    }

    /// Append chunk `seq` (strictly sequential from 0). Returns the
    /// daemon-wide buffered bytes after the append.
    pub fn append_chunk(
        &mut self,
        session: u64,
        seq: u64,
        chunk: &str,
    ) -> Result<u64, ClientError> {
        let req = Request::AppendChunk {
            session,
            seq,
            chunk: chunk.to_string(),
        };
        match self.call(&req)? {
            Response::ChunkAppended { open_bytes, .. } => Ok(open_bytes),
            other => Err(unexpected("ChunkAppended", &other)),
        }
    }

    /// [`Client::append_chunk`] with a binary-codec chunk payload
    /// (requires [`caps::BINARY_CODEC`] on top of streaming).
    pub fn append_chunk_binary(
        &mut self,
        session: u64,
        seq: u64,
        bytes: Vec<u8>,
    ) -> Result<u64, ClientError> {
        let req = Request::AppendChunkBinary {
            session,
            seq,
            bytes,
        };
        match self.call(&req)? {
            Response::ChunkAppended { open_bytes, .. } => Ok(open_bytes),
            other => Err(unexpected("ChunkAppended", &other)),
        }
    }

    /// Seal a session. Returns `(id, newly_added, chunks)`.
    pub fn seal_session(&mut self, session: u64) -> Result<(String, bool, u64), ClientError> {
        match self.call(&Request::SealSession { session })? {
            Response::SessionSealed { id, added, chunks } => Ok((id, added, chunks)),
            other => Err(unexpected("SessionSealed", &other)),
        }
    }

    /// Abort a session, discarding everything buffered for it.
    pub fn abort_session(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::AbortSession { session })? {
            Response::SessionAborted { .. } => Ok(()),
            other => Err(unexpected("SessionAborted", &other)),
        }
    }

    /// Stream a whole profile through a session: open, split into
    /// chunks of `threads_per_chunk` threads, append in sequence, seal.
    /// Returns `(id, newly_added, chunks)` — identical to what one-shot
    /// [`Client::ingest`] of the same profile would have stored.
    /// Chunk encoding is negotiated per connection: binary codec when
    /// the daemon advertises [`caps::BINARY_CODEC`], JSON otherwise.
    pub fn stream_profile(
        &mut self,
        label: &str,
        profile: &NumaProfile,
        threads_per_chunk: usize,
    ) -> Result<(String, bool, u64), ClientError> {
        self.stream_profile_paced(label, profile, threads_per_chunk, |_| {})
    }

    /// [`Client::stream_profile`] calling `before_chunk(seq)` ahead of
    /// each append — where a paced sender sleeps (demos, and tests that
    /// need a window to kill the client mid-session).
    pub fn stream_profile_paced(
        &mut self,
        label: &str,
        profile: &NumaProfile,
        threads_per_chunk: usize,
        mut before_chunk: impl FnMut(u64),
    ) -> Result<(String, bool, u64), ClientError> {
        let binary = self.binary_codec()?;
        let info = self.open_session(label)?;
        for (seq, chunk) in split_profile(profile, threads_per_chunk).iter().enumerate() {
            let seq = seq as u64;
            before_chunk(seq);
            if binary {
                self.append_chunk_binary(info.session, seq, chunk.to_binary())?;
            } else {
                self.append_chunk(info.session, seq, &chunk.to_json())?;
            }
        }
        self.seal_session(info.session)
    }

    fn text(&mut self, req: &Request) -> Result<String, ClientError> {
        match self.call(req)? {
            Response::Text(s) => Ok(s),
            other => Err(unexpected("Text", &other)),
        }
    }
}

fn unexpected(expected: &'static str, got: &Response) -> ClientError {
    ClientError::Unexpected {
        expected,
        got: format!("{got:?}"),
    }
}
