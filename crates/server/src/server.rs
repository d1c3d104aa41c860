//! The daemon: a [`Backend`] — the store, its streaming sessions and
//! the observability around them, behind the one function that
//! executes a [`Request`] — and a multi-threaded TCP server in front
//! of it. [`crate::Client`] reaches the same `Backend` either through
//! that server or in-process.
//!
//! ## Threading model
//!
//! A connection is a thread. One blocking accept loop spawns a thread
//! per accepted connection, which serves its requests in order (frame
//! in → execute → frame out), so per-connection ordering is trivial.
//! Two counting gates bound the work: at most `workers` + 64
//! connections are open at once (at the cap the loop stops accepting,
//! so backpressure lands in the kernel backlog), and at most `workers`
//! requests execute at once. A connection holds an execution permit
//! only around [`Backend::execute`], never while it reads or writes, so
//! an idle or trickling peer ties up its own thread and nothing else.
//! Thread safety across connections comes from the store's own locks.
//!
//! ## Shutdown
//!
//! A client's `Shutdown` request sets a shared [`AtomicBool`]; the
//! connection that answers it then connects once to each listener, so
//! the blocked `accept` returns and sees the flag. The loop then shuts
//! the read side of every open connection: a read blocked on an idle
//! peer returns EOF at once, while a request already on the wire is
//! still read and answered. `run` returns only after every connection
//! thread is gone, so no accepted request is left unanswered.

use crate::http;
use crate::metrics::{Metrics, OpSlot};
use crate::protocol::{
    caps, decode_request, encode_response, read_frame, write_frame_flags, FrameError, ProfileEntry,
    RecvError, ReportFormat, Request, Response, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
    READ_BUFFER,
};
use numa_live::{LiveConfig, SessionError, SessionManager};
use numa_obs::trace::Span;
use numa_obs::{trace, Registry, SpanRing};
use numa_store::{ProfileStore, Query, StoreError};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Requests executing at once. Connections are not counted here:
    /// each has its own thread, and up to `workers` + 64 may be open.
    pub workers: usize,
    /// Payload-size cap enforced on every received frame.
    pub max_frame: usize,
    /// Per-connection socket read timeout (idle clients are dropped).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Streaming-session limits (lease, buffer budgets, janitor
    /// cadence).
    pub live: LiveConfig,
    /// Where to serve `GET /metrics` (Prometheus text exposition);
    /// `None` disables the embedded HTTP responder. Use port 0 for an
    /// ephemeral port ([`Server::metrics_addr`] reports it).
    pub metrics_addr: Option<String>,
    /// Requests slower than this get a slow-op log line and their span
    /// retained as a `# slow-op` line of [`Backend::exposition`].
    pub slow_op_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            live: LiveConfig::default(),
            metrics_addr: None,
            slow_op_threshold: Duration::from_millis(500),
        }
    }
}

/// Connections open beyond `workers` before the accept loop stops
/// accepting.
const QUEUED_CONNECTIONS: usize = 64;
/// Slow-op spans retained for the exposition.
const SLOW_OP_CAPACITY: usize = 64;
/// Slow-op lines per exposition.
const SLOW_OPS_REPORTED: usize = 16;
/// How long the shutdown wake-up waits to reach a listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What every request executes against: the store, the streaming
/// sessions over it, and the metrics, slow-op ring and shutdown flag
/// that observe them. One per daemon (or per in-process
/// [`crate::Client`]); [`Backend::execute`] is the stack's only
/// `Request` → `Response` mapping.
pub struct Backend {
    store: Arc<ProfileStore>,
    sessions: Arc<SessionManager>,
    metrics: Arc<Metrics>,
    registry: Arc<Registry>,
    /// The next served request's span number.
    next_seq: AtomicU64,
    slow_ops: SpanRing,
    shutdown: Arc<AtomicBool>,
}

impl Backend {
    /// Build the session manager over `store` and assemble the metric
    /// registry: every server, store, and live counter is adopted here,
    /// so [`Backend::exposition`] is the daemon's one statistics report.
    pub fn new(store: Arc<ProfileStore>, config: &ServerConfig) -> Arc<Backend> {
        let sessions = SessionManager::new(Arc::clone(&store), config.live.clone());
        let metrics = Arc::new(Metrics::new());
        let started = Instant::now();

        let registry = Arc::new(Registry::new());
        metrics.register(&registry);
        store.register_metrics(&registry);
        sessions.register_metrics(&registry);
        registry.gauge_fn(
            "numa_server_uptime_seconds",
            "Seconds since the daemon started.",
            &[],
            move || started.elapsed().as_secs().min(i64::MAX as u64) as i64,
        );

        Arc::new(Backend {
            store,
            sessions,
            metrics,
            registry,
            next_seq: AtomicU64::new(0),
            slow_ops: SpanRing::new(SLOW_OP_CAPACITY),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The daemon's statistics, as the `metrics` op, `GET /metrics` and
    /// `hpcd-sim`'s shutdown print all serve them: the registry's text
    /// exposition, then one `# slow-op` comment per retained slow span,
    /// oldest first.
    pub fn exposition(&self) -> String {
        let mut out = self.registry.render();
        // Slow spans arrive from racing connections; order them by
        // sequence number so "oldest first" holds for readers.
        let mut slow = self.slow_ops.recent(SLOW_OPS_REPORTED);
        slow.sort_by_key(|s| s.seq);
        for span in slow {
            trace::write_slow_op(&mut out, &span);
        }
        out
    }
}

/// The bound daemon. [`Server::run`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    backend: Arc<Backend>,
    metrics_listener: Option<(TcpListener, SocketAddr)>,
    config: ServerConfig,
}

impl Server {
    /// Bind the listener (use port 0 for an ephemeral port) without
    /// starting to serve. Also binds the `--metrics-addr` HTTP
    /// listener, if configured.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        store: Arc<ProfileStore>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(http::bind(addr)?),
            None => None,
        };
        Ok(Server {
            listener,
            local_addr,
            backend: Backend::new(store, &config),
            metrics_listener,
            config,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where `GET /metrics` is served, if `metrics_addr` was
    /// configured (reports the real port when bound ephemerally).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().map(|(_, addr)| *addr)
    }

    /// Serve until shutdown, then drain every connection. Returns the
    /// final [`Backend::exposition`].
    pub fn run(self) -> io::Result<String> {
        let shutdown = &self.backend.shutdown;
        let mut wake = vec![reachable(self.local_addr)];
        let scraper = match self.metrics_listener {
            Some((listener, addr)) => {
                wake.push(reachable(addr));
                let backend = Arc::clone(&self.backend);
                let shutdown = Arc::clone(shutdown);
                Some(
                    std::thread::Builder::new()
                        .name("hpcd-metrics-http".to_string())
                        .spawn(move || {
                            http::serve(&listener, move || backend.exposition(), &shutdown)
                        })?,
                )
            }
            None => None,
        };

        let workers = self.config.workers.max(1);
        let ctx = Arc::new(ConnCtx {
            backend: Arc::clone(&self.backend),
            executing: Gate::new(workers),
            wake,
            config: self.config,
        });
        serve_each(
            &self.listener,
            workers + QUEUED_CONNECTIONS,
            shutdown,
            "hpcd-conn",
            move |stream| {
                ctx.backend.metrics.connection_accepted();
                serve_connection(&ctx, &stream);
                ctx.backend.metrics.connection_closed();
            },
        )?;
        if let Some(s) = scraper {
            let _ = s.join();
        }
        // Connections are gone, so no session op can race the janitor's
        // teardown; open sessions die with the daemon (they were only
        // ever in its memory).
        self.backend.sessions.stop();
        Ok(self.backend.exposition())
    }
}

/// An unspecified bind address (`0.0.0.0`, `[::]`) is reached through
/// the loopback address of its family.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// A counting gate: at most `cap` [`Permit`]s are out at once.
struct Gate {
    slots: Mutex<Slots>,
    freed: Condvar,
    idle: Condvar,
    cap: usize,
}

/// A gate's count, and who waits on it: a release signals a condvar
/// only when someone waits there (signalling is a system call).
#[derive(Default)]
struct Slots {
    held: usize,
    waiting: usize,
    watched: bool,
}

/// One slot of a [`Gate`], released on drop — by a panicking thread's
/// unwind too.
struct Permit(Arc<Gate>);

impl Gate {
    fn new(cap: usize) -> Arc<Gate> {
        Arc::new(Gate {
            slots: Mutex::default(),
            freed: Condvar::new(),
            idle: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Take a slot, blocking while all `cap` are out.
    fn acquire(self: &Arc<Gate>) -> Permit {
        let mut slots = lock(&self.slots);
        while slots.held >= self.cap {
            slots.waiting += 1;
            slots = self
                .freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
            slots.waiting -= 1;
        }
        slots.held += 1;
        Permit(Arc::clone(self))
    }

    /// Block until every permit has been released.
    fn wait_idle(&self) {
        let mut slots = lock(&self.slots);
        slots.watched = true;
        while slots.held > 0 {
            slots = self
                .idle
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let gate = &self.0;
        let mut slots = lock(&gate.slots);
        slots.held -= 1;
        if slots.waiting > 0 {
            gate.freed.notify_one();
        }
        if slots.held == 0 && slots.watched {
            gate.idle.notify_all();
        }
    }
}

/// Accept on `listener` until `shutdown` is set, handing each
/// connection to `handle` on its own thread, with at most `cap` open at
/// once. Then shut the read side of every open connection and wait for
/// their threads to finish. Someone must connect once after setting
/// `shutdown`, so the blocked `accept` returns.
pub(crate) fn serve_each(
    listener: &TcpListener,
    cap: usize,
    shutdown: &AtomicBool,
    name: &str,
    handle: impl Fn(TcpStream) + Send + Sync + 'static,
) -> io::Result<()> {
    let open = Gate::new(cap);
    // A second handle on each open connection, for the sweep below.
    let live = Arc::new(Mutex::new(HashMap::<u64, TcpStream>::new()));
    let handle = Arc::new(handle);
    let mut result = Ok(());
    for id in 0u64.. {
        let permit = open.acquire();
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection, or one that lost the race
        }
        // Registered before the spawn, so the sweep cannot miss it.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        lock(&live).insert(id, clone);
        let (live_, handle) = (Arc::clone(&live), Arc::clone(&handle));
        let spawned = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let _permit = permit;
                handle(stream);
                lock(&live_).remove(&id);
            });
        if spawned.is_err() {
            lock(&live).remove(&id);
        }
    }
    for stream in lock(&live).values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    open.wait_idle();
    result
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a connection thread serves with.
struct ConnCtx {
    backend: Arc<Backend>,
    /// Bounds the requests executing at once (`workers`).
    executing: Arc<Gate>,
    /// The listeners to connect to once after answering `Shutdown`.
    wake: Vec<SocketAddr>,
    config: ServerConfig,
}

/// Serve one connection until EOF, error, timeout, or drain.
fn serve_connection(ctx: &ConnCtx, stream: &TcpStream) {
    let metrics = &ctx.backend.metrics;
    let _ = stream.set_read_timeout(Some(ctx.config.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.config.write_timeout));
    let _ = stream.set_nodelay(true);
    // Frames are read through one buffer for the connection's life, so
    // a request and its header arrive in one `read`.
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    loop {
        // Once draining, answer what is already on the wire (the sweep
        // turns an empty socket into EOF), but take on no more.
        let draining = ctx.backend.shutdown.load(Ordering::SeqCst);
        match read_frame(&mut reader, ctx.config.max_frame) {
            Ok(None) => return, // clean EOF
            Ok(Some(frame)) => {
                if frame.version != PROTOCOL_VERSION {
                    let resp = Response::Error(WireError::UnsupportedVersion {
                        got: frame.version,
                        supported: PROTOCOL_VERSION,
                    });
                    let _ = send(stream, &resp);
                    return;
                }
                let start = Instant::now();
                // Open the thread-local trace so the store can deposit
                // facts (shard, cache outcome, WAL-ack wait) into the
                // span this request is building.
                trace::begin();
                let payload_bytes = frame.payload.len() as u64;
                let mut malformed = false;
                let unknown_caps = frame.flags & !caps::SUPPORTED;
                let (op, resp) = if unknown_caps != 0 {
                    // The frame is structurally sound, so the byte
                    // stream stays trustworthy: answer with a typed
                    // capability error and keep serving.
                    (
                        OpSlot::UNKNOWN,
                        Response::Error(WireError::Unsupported {
                            feature: frame.flags,
                            supported: caps::SUPPORTED,
                        }),
                    )
                } else {
                    match decode_request(&frame.payload) {
                        Ok(req) => {
                            let op = OpSlot::of(&req);
                            let missing = req.required_caps() & !frame.flags;
                            if missing != 0 {
                                // An op whose frame did not declare
                                // the capability it relies on: tell
                                // the client precisely what it lacks.
                                (
                                    op,
                                    Response::Error(WireError::Unsupported {
                                        feature: missing,
                                        supported: caps::SUPPORTED,
                                    }),
                                )
                            } else {
                                let _permit = ctx.executing.acquire();
                                (op, ctx.backend.execute(&req))
                            }
                        }
                        Err(e) => {
                            malformed = true;
                            metrics.malformed_frame();
                            (OpSlot::UNKNOWN, Response::Error(e))
                        }
                    }
                };
                let is_error = matches!(resp, Response::Error(_));
                let sent = send(stream, &resp);
                let elapsed = start.elapsed();
                metrics.record_request(op, elapsed, is_error);
                record_span(ctx, op, payload_bytes, is_error, elapsed);
                if matches!(resp, Response::ShuttingDown) {
                    // Unblock every accept loop so it sees the flag.
                    for addr in &ctx.wake {
                        let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
                    }
                    return;
                }
                // Request-level errors keep the connection; stream-level
                // ones (undecodable payload) already poisoned the byte
                // stream, so close.
                if sent.is_err() || malformed || draining {
                    return;
                }
            }
            Err(RecvError::Frame(FrameError::Oversized { len, max })) => {
                metrics.rejected_oversized();
                let resp = Response::Error(WireError::Oversized { len, max });
                let _ = send(stream, &resp);
                return;
            }
            Err(RecvError::Frame(e)) => {
                metrics.malformed_frame();
                let resp = Response::Error(WireError::Malformed {
                    detail: e.to_string(),
                });
                let _ = send(stream, &resp);
                return;
            }
            Err(e) if e.is_timeout() => {
                if !draining {
                    metrics.timeout();
                }
                return;
            }
            Err(_) => return, // reset / truncated: nothing to answer
        }
    }
}

/// Close the request's trace and, when it crossed the slow-op
/// threshold, log a line and retain its span for the exposition.
fn record_span(ctx: &ConnCtx, op: OpSlot, bytes: u64, error: bool, elapsed: Duration) {
    let notes = trace::take();
    let seq = ctx.backend.next_seq.fetch_add(1, Ordering::Relaxed);
    if elapsed >= ctx.config.slow_op_threshold {
        let span = Span {
            seq,
            op: op.name(),
            bytes,
            shard: notes.shard,
            cache_hit: notes.cache_hit,
            wal_ack_us: notes.wal_ack_us,
            total_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
            error,
        };
        eprintln!("hpcd-sim: slow-op {span}");
        ctx.backend.slow_ops.retain(span);
    }
}

/// Send a response. The `max_frame` config bounds *inbound* frames (it
/// protects the daemon's memory from untrusted peers); outbound
/// responses are limited only by the wire format's own `u32` length
/// field, so tightening the inbound cap never makes stats or listing
/// responses unsendable.
fn send(mut stream: &TcpStream, resp: &Response) -> Result<(), RecvError> {
    // Every response frame advertises the daemon's full capability set,
    // so one ping round trip tells a client what this build can do.
    write_frame_flags(
        &mut stream,
        PROTOCOL_VERSION,
        caps::SUPPORTED,
        &encode_response(resp),
        u32::MAX as usize,
    )
}

impl Backend {
    /// Execute one request. Panics in analysis code are converted to a
    /// typed `Internal` error so a bad profile can never take a worker
    /// (or an in-process caller) down.
    pub fn execute(&self, req: &Request) -> Response {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(req))) {
            Ok(resp) => resp,
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic in request handler")
                    .to_string();
                Response::Error(WireError::Internal { detail })
            }
        }
    }

    fn dispatch(&self, req: &Request) -> Response {
        let store = &self.store;
        match req {
            Request::Ping => Response::Pong,
            Request::List => Response::Profiles(
                store
                    .entries()
                    .into_iter()
                    .map(|e| ProfileEntry {
                        id: e.id.to_string(),
                        label: e.label.to_string(),
                        threads: e.threads,
                        codec_bytes: e.codec_bytes,
                    })
                    .collect(),
            ),
            Request::Resolve { reference } => match store.resolve(reference) {
                Ok(sp) => Response::Resolved {
                    id: sp.id.to_string(),
                    label: sp.label.to_string(),
                },
                Err(e) => Response::Error(wire_error(e)),
            },
            Request::Aggregate => self.text_query(Query::Aggregate),
            Request::Top { n } => self.text_query(Query::TopVariables(*n)),
            Request::Report { profile, format } => match self.resolve_id(profile) {
                Err(e) => Response::Error(e),
                Ok(id) => match format {
                    ReportFormat::Text => self.text_query(Query::TextReport(id)),
                    ReportFormat::Json => self.text_query(Query::ReportJson(id)),
                },
            },
            Request::CodeView {
                profile,
                min_share_permille,
            } => match self.resolve_id(profile) {
                Err(e) => Response::Error(e),
                Ok(id) => self.text_query(Query::CodeView {
                    profile: id,
                    min_share_permille: *min_share_permille,
                }),
            },
            Request::AddressView { profile, var } => match self.resolve_id(profile) {
                Err(e) => Response::Error(e),
                Ok(id) => self.text_query(Query::AddressView {
                    profile: id,
                    var: var.clone(),
                }),
            },
            Request::Diff { before, after } => {
                match (self.resolve_id(before), self.resolve_id(after)) {
                    (Ok(b), Ok(a)) => self.text_query(Query::Diff {
                        before: b,
                        after: a,
                    }),
                    (Err(e), _) | (_, Err(e)) => Response::Error(e),
                }
            }
            Request::Metrics => Response::Text(self.exposition()),
            Request::ClearCache => {
                store.clear_cache();
                Response::CacheCleared
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
            Request::OpenSession { label } => match self.sessions.open(label) {
                Ok(t) => Response::SessionOpened {
                    session: t.session,
                    lease_ms: t.lease.as_millis().min(u64::MAX as u128) as u64,
                    max_chunk_bytes: t.max_chunk_bytes as u64,
                    max_session_bytes: t.max_session_bytes as u64,
                },
                Err(e) => Response::Error(session_error(e)),
            },
            Request::SealSession { session } => match self.sessions.seal(*session) {
                Ok(sealed) => Response::SessionSealed {
                    id: sealed.id.to_string(),
                    added: sealed.added,
                    chunks: sealed.chunks,
                },
                Err(e) => Response::Error(session_error(e)),
            },
            Request::AbortSession { session } => match self.sessions.abort(*session) {
                Ok(()) => Response::SessionAborted { session: *session },
                Err(e) => Response::Error(session_error(e)),
            },
            Request::IngestBinary { label, bytes } => match store.ingest_binary(label, bytes) {
                Ok((id, added)) => Response::Ingested {
                    id: id.to_string(),
                    added,
                },
                Err(e) => Response::Error(wire_error(e)),
            },
            Request::AppendChunkBinary {
                session,
                seq,
                bytes,
            } => match self.sessions.append_binary(*session, *seq, bytes) {
                Ok(open_bytes) => Response::ChunkAppended {
                    session: *session,
                    seq: *seq,
                    open_bytes: open_bytes as u64,
                },
                Err(e) => Response::Error(session_error(e)),
            },
        }
    }

    fn resolve_id(&self, reference: &str) -> Result<numa_store::ProfileId, WireError> {
        self.store
            .resolve(reference)
            .map(|sp| sp.id)
            .map_err(wire_error)
    }

    fn text_query(&self, q: Query) -> Response {
        match self.store.query(q) {
            Ok(artifact) => Response::Text(artifact.text()),
            Err(e) => Response::Error(wire_error(e)),
        }
    }
}

/// Map typed session failures onto the wire taxonomy. Capacity-induced
/// rejections become [`WireError::Busy`] (retry later); the rest keep
/// their structure so a client can react programmatically.
fn session_error(e: SessionError) -> WireError {
    match e {
        SessionError::UnknownSession { session } => WireError::UnknownSession { session },
        SessionError::BadSequence {
            session,
            got,
            expected,
        } => WireError::BadChunkSequence {
            session,
            got,
            expected,
        },
        SessionError::ChunkTooLarge { session, len, max } => WireError::ChunkTooLarge {
            session,
            len: len as u64,
            max: max as u64,
        },
        SessionError::SessionFull {
            session,
            bytes,
            max,
        } => WireError::SessionBufferFull {
            session,
            bytes: bytes as u64,
            max: max as u64,
        },
        e @ (SessionError::TooManySessions { .. } | SessionError::Backpressure { .. }) => {
            WireError::Busy {
                detail: e.to_string(),
            }
        }
        SessionError::ChunkParse {
            session,
            seq,
            message,
        } => WireError::ChunkParse {
            session,
            seq,
            message,
        },
        SessionError::Incomplete { session, reason } => WireError::SessionIncomplete {
            session,
            detail: reason,
        },
        e @ SessionError::NotDurable { .. } => WireError::NotDurable {
            detail: e.to_string(),
        },
    }
}

fn wire_error(e: StoreError) -> WireError {
    match e {
        StoreError::Parse { label, message } => WireError::ProfileParse { label, message },
        StoreError::UnknownProfile(id) => WireError::UnknownProfile {
            reference: id.to_string(),
        },
        StoreError::NoMatch(reference) => WireError::UnknownProfile { reference },
        StoreError::Ambiguous { needle, candidates } => WireError::AmbiguousReference {
            reference: needle,
            candidates: candidates
                .into_iter()
                .map(|(id, label)| format!("{id}  {label}"))
                .collect(),
        },
        StoreError::EmptyStore => WireError::EmptyStore,
        StoreError::UnknownVariable(name) => WireError::UnknownVariable { name },
        StoreError::Persist { message } => WireError::NotDurable { detail: message },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn a_gate_blocks_at_its_cap_and_every_dropped_permit_frees_a_slot() {
        let gate = Gate::new(2);
        let first = gate.acquire();
        let second = gate.acquire();

        // A third acquire blocks until a permit goes.
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let permit = gate.acquire();
                tx.send(()).unwrap();
                permit
            })
        };
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(first);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("a dropped permit frees its slot");
        let third = waiter.join().unwrap();

        // A permit dropped by a panicking thread's unwind frees its slot.
        let panicked = std::thread::spawn(move || {
            let _held = second;
            panic!("handler failed");
        })
        .join();
        assert!(panicked.is_err());
        let fourth = gate.acquire();

        // wait_idle returns only once the count is back to zero.
        let (tx, rx) = mpsc::channel();
        let idler = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait_idle();
                tx.send(()).unwrap();
            })
        };
        drop(third);
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(fourth);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("wait_idle returns at zero");
        idler.join().unwrap();
        gate.wait_idle();
    }
}
