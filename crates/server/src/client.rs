//! Blocking client for the `hpcd` stack: one request/response exchange
//! per call, typed errors throughout, over one TCP connection to a
//! daemon or straight into an in-process [`Backend`].

use crate::protocol::{
    caps, decode_response, encode_request, read_frame, write_frame_flags, ProfileEntry, RecvError,
    ReportFormat, Request, Response, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION, READ_BUFFER,
};
use crate::server::Backend;
use numa_profiler::NumaProfile;
use numa_store::stream::split_profile;
use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
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

/// Where a [`Client`]'s requests execute. Only [`Client::call_raw`]
/// looks inside.
enum Transport {
    /// Frames over a connection to an `hpcd-sim` daemon, read through
    /// one buffer for the connection's life.
    Tcp(BufReader<TcpStream>),
    /// Direct calls into a [`Backend`] in this process.
    InProcess(Arc<Backend>),
}

/// A blocking handle on the `hpcd` verb table: a connection to an
/// `hpcd-sim` daemon, or an in-process [`Backend`]. Requests on one
/// client are serialized (the protocol has no pipelining); use one
/// client per thread for concurrency.
pub struct Client {
    transport: Transport,
    max_frame: usize,
    server_caps: Option<u16>,
}

impl Client {
    /// A client whose requests execute directly against `backend`: the
    /// same verbs and typed errors as a daemon connection, without a
    /// socket or a frame in between.
    pub fn in_process(backend: Arc<Backend>) -> Client {
        Client {
            transport: Transport::InProcess(backend),
            max_frame: DEFAULT_MAX_FRAME,
            server_caps: None,
        }
    }

    /// Connect with default timeouts (5 s on every socket operation).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        Self::over(
            TcpStream::connect_timeout(&resolve(&addr)?, timeout)?,
            timeout,
        )
    }

    /// Wrap a connected stream, bounding each of its reads and writes
    /// by `timeout`.
    fn over(stream: TcpStream, timeout: Duration) -> Result<Client, ClientError> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            transport: Transport::Tcp(BufReader::with_capacity(READ_BUFFER, stream)),
            max_frame: DEFAULT_MAX_FRAME,
            server_caps: None,
        })
    }

    /// Connect to a daemon that may still be starting: retry with
    /// capped exponential backoff (10 ms doubling to 500 ms) until a
    /// connection succeeds or `deadline` elapses, then return the last
    /// connect error. `timeout` bounds every socket operation of the
    /// connection's working life, as in [`Client::connect_with_timeout`].
    pub fn connect_retry(
        addr: impl ToSocketAddrs,
        deadline: Duration,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let give_up = Instant::now() + deadline;
        let mut backoff = Duration::from_millis(10);
        loop {
            let remaining = give_up.saturating_duration_since(Instant::now());
            let attempt = remaining.clamp(Duration::from_millis(10), Duration::from_secs(5));
            match resolve(&addr).and_then(|a| TcpStream::connect_timeout(&a, attempt)) {
                Ok(stream) => return Self::over(stream, timeout),
                Err(e) => {
                    if Instant::now() + backoff >= give_up {
                        return Err(e.into());
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

    /// One raw request/response exchange. Server-reported errors come
    /// back as `Ok(Response::Error(..))`; use [`Client::call`] to have
    /// them folded into `Err`.
    pub fn call_raw(&mut self, req: &Request) -> Result<Response, ClientError> {
        let reader = match &mut self.transport {
            Transport::Tcp(reader) => reader,
            Transport::InProcess(backend) => {
                self.server_caps = Some(caps::SUPPORTED);
                return Ok(backend.execute(req));
            }
        };
        // The request frame declares the capabilities the op relies on
        // (e.g. STREAMING on session ops); a daemon without them answers
        // with a typed `Unsupported` and keeps the connection.
        write_frame_flags(
            &mut reader.get_ref(),
            PROTOCOL_VERSION,
            req.required_caps(),
            &encode_request(req),
            self.max_frame,
        )?;
        let frame = read_frame(reader, self.max_frame)?.ok_or(ClientError::Disconnected)?;
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

    /// Ingest already-encoded `numa-codec` profile bytes. Returns
    /// `(id, newly_added)`.
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

    /// Ingest an in-memory profile as codec bytes. Returns
    /// `(id, newly_added)`.
    pub fn ingest_profile(
        &mut self,
        label: &str,
        profile: &NumaProfile,
    ) -> Result<(String, bool), ClientError> {
        self.ingest_binary(label, numa_codec::encode_profile(profile))
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

    /// The daemon's statistics: the Prometheus text exposition of every
    /// metric plus its `# slow-op` lines, the same text `GET /metrics`
    /// serves ([`crate::Backend::exposition`]). Read the series with
    /// [`crate::parse_exposition`]. Requires a daemon advertising
    /// [`caps::METRICS`].
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

    /// Append chunk `seq` (strictly sequential from 0), a numa-codec
    /// chunk payload. Returns the daemon-wide buffered bytes after the
    /// append.
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
    /// [`Client::ingest_profile`] of the same profile would have stored.
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
        let info = self.open_session(label)?;
        for (seq, chunk) in split_profile(profile, threads_per_chunk).iter().enumerate() {
            let seq = seq as u64;
            before_chunk(seq);
            self.append_chunk_binary(info.session, seq, chunk.to_binary())?;
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

fn resolve(addr: &impl ToSocketAddrs) -> io::Result<std::net::SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))
}

fn unexpected(expected: &'static str, got: &Response) -> ClientError {
    ClientError::Unexpected {
        expected,
        got: format!("{got:?}"),
    }
}
