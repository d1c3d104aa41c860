//! The daemon: a [`Backend`] — the store, its streaming sessions and
//! the observability around them, behind the one function that
//! executes a [`Request`] — and a multi-threaded TCP server in front
//! of it. [`crate::Client`] reaches the same `Backend` either through
//! that server or in-process.
//!
//! ## Threading model
//!
//! One accept loop + a fixed pool of worker threads. Accepted
//! connections flow through a bounded queue (`std::sync::mpsc::
//! sync_channel`); when every worker is busy and the queue is full the
//! accept loop stops pulling connections off the listener, so
//! backpressure lands in the kernel backlog instead of unbounded
//! daemon memory. Each worker owns one connection at a time and serves
//! its requests sequentially (frame in → execute → frame out), so
//! per-connection ordering is trivial; cross-connection concurrency
//! comes from the pool, and thread safety from the store's own locks.
//!
//! ## Shutdown
//!
//! A shared [`AtomicBool`] flag (set by a client's `Shutdown` request)
//! makes the accept loop stop, closes
//! the queue, and puts workers into *drain* mode: each worker finishes
//! the request it is executing, answers any request already in flight
//! on its connection (bounded by a short drain timeout), then closes.
//! `run` joins every worker before returning, so when it returns no
//! request is left unanswered.

use crate::http;
use crate::metrics::{Metrics, OpSlot};
use crate::protocol::{
    caps, decode_request, encode_response, read_frame, write_frame_flags, FrameError, ProfileEntry,
    RecvError, ReportFormat, Request, Response, WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
    READ_BUFFER,
};
use numa_live::{LiveConfig, SessionError, SessionManager};
use numa_obs::trace::{Span, SpanBody};
use numa_obs::{trace, Registry, SpanRing};
use numa_store::{ProfileStore, Query, StoreError};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads; also the number of connections served
    /// concurrently.
    pub workers: usize,
    /// Accepted-but-unserved connections the daemon will hold before
    /// the accept loop applies backpressure.
    pub max_pending_connections: usize,
    /// Payload-size cap enforced on every received frame.
    pub max_frame: usize,
    /// Per-connection socket read timeout (idle clients are dropped).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// How long a draining worker waits for one last in-flight request
    /// before closing the connection.
    pub drain_timeout: Duration,
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
    /// Spans kept in the request-trace ring buffer. 0 disables span
    /// capture entirely (used by the overhead A/B bench).
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_pending_connections: 64,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_millis(100),
            live: LiveConfig::default(),
            metrics_addr: None,
            slow_op_threshold: Duration::from_millis(500),
            trace_capacity: 256,
        }
    }
}

/// Slow-op spans retained for the exposition (a burst of fast requests
/// cannot evict them from the main trace ring).
const SLOW_OP_CAPACITY: usize = 64;
/// Slow-op lines per exposition.
const SLOW_OPS_REPORTED: usize = 16;

/// What every request executes against: the store, the streaming
/// sessions over it, and the metrics, trace rings and shutdown flag
/// that observe them. One per daemon (or per in-process
/// [`crate::Client`]); [`Backend::execute`] is the stack's only
/// `Request` → `Response` mapping.
pub struct Backend {
    store: Arc<ProfileStore>,
    sessions: Arc<SessionManager>,
    metrics: Arc<Metrics>,
    registry: Arc<Registry>,
    trace: SpanRing,
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
            trace: SpanRing::new(config.trace_capacity),
            slow_ops: SpanRing::new(if config.trace_capacity == 0 {
                0
            } else {
                SLOW_OP_CAPACITY
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The daemon's statistics, as the `metrics` op, `GET /metrics` and
    /// `hpcd-sim`'s shutdown print all serve them: the registry's text
    /// exposition, then one `# slow-op` comment per retained slow span,
    /// oldest first.
    pub fn exposition(&self) -> String {
        let mut out = self.registry.render();
        // Slow spans arrive from racing workers; order them by the
        // trace sequence so "oldest first" holds for readers.
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

    /// Serve until shutdown, then drain and join every worker. Returns
    /// the final [`Backend::exposition`].
    pub fn run(self) -> io::Result<String> {
        // Non-blocking accept so the loop can observe the shutdown flag
        // promptly; the listener has no other wake-up mechanism without
        // an async reactor.
        self.listener.set_nonblocking(true)?;
        let (tx, rx) =
            std::sync::mpsc::sync_channel::<TcpStream>(self.config.max_pending_connections.max(1));
        let rx = Arc::new(parking_lot::Mutex::new(rx));

        let scraper = match self.metrics_listener {
            Some((listener, _)) => {
                let backend = Arc::clone(&self.backend);
                let shutdown = Arc::clone(&self.backend.shutdown);
                Some(
                    std::thread::Builder::new()
                        .name("hpcd-metrics-http".to_string())
                        .spawn(move || {
                            http::serve(listener, move || backend.exposition(), shutdown)
                        })?,
                )
            }
            None => None,
        };

        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for i in 0..self.config.workers.max(1) {
            let ctx = WorkerCtx {
                rx: Arc::clone(&rx),
                backend: Arc::clone(&self.backend),
                config: self.config.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hpcd-worker-{i}"))
                    .spawn(move || worker_loop(ctx))?,
            );
        }

        let shutdown = &self.backend.shutdown;
        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.backend.metrics.connection_accepted();
                    let _ = stream.set_read_timeout(Some(self.config.read_timeout));
                    let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                    let _ = stream.set_nodelay(true);
                    let mut pending = stream;
                    // Backpressure: when the queue is full, keep the
                    // connection and retry instead of accepting more.
                    loop {
                        if shutdown.load(Ordering::SeqCst) {
                            break; // drop the connection; we are exiting
                        }
                        match tx.try_send(pending) {
                            Ok(()) => break,
                            Err(TrySendError::Full(s)) => {
                                pending = s;
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Closing the queue lets workers drain what was already
        // accepted and then exit.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        if let Some(s) = scraper {
            let _ = s.join();
        }
        // Workers are gone, so no session op can race the janitor's
        // teardown; open sessions die with the daemon (they were only
        // ever in its memory).
        self.backend.sessions.stop();
        Ok(self.backend.exposition())
    }
}

struct WorkerCtx {
    rx: Arc<parking_lot::Mutex<Receiver<TcpStream>>>,
    backend: Arc<Backend>,
    config: ServerConfig,
}

fn worker_loop(ctx: WorkerCtx) {
    loop {
        // Lock only to receive; serving happens with the queue free so
        // other workers keep pulling connections.
        let stream = {
            let guard = ctx.rx.lock();
            guard.recv()
        };
        match stream {
            Ok(s) => {
                serve_connection(&ctx, s);
                ctx.backend.metrics.connection_closed();
            }
            Err(_) => return, // queue closed: shutdown drained
        }
    }
}

/// Serve one connection until EOF, error, timeout, or drain.
fn serve_connection(ctx: &WorkerCtx, stream: TcpStream) {
    let metrics = &ctx.backend.metrics;
    // Frames are read through one buffer for the connection's life, so
    // a request and its header arrive in one `read`.
    let mut reader = BufReader::with_capacity(READ_BUFFER, &stream);
    loop {
        let draining = ctx.backend.shutdown.load(Ordering::SeqCst);
        if draining {
            // One short grace read: answer a request already on the
            // wire, but do not wait for new work.
            let _ = stream.set_read_timeout(Some(ctx.config.drain_timeout));
        }
        match read_frame(&mut reader, ctx.config.max_frame) {
            Ok(None) => return, // clean EOF
            Ok(Some(frame)) => {
                if frame.version != PROTOCOL_VERSION {
                    let resp = Response::Error(WireError::UnsupportedVersion {
                        got: frame.version,
                        supported: PROTOCOL_VERSION,
                    });
                    let _ = send(&stream, &resp);
                    return;
                }
                let start = Instant::now();
                // Open the thread-local trace so the store can deposit
                // facts (shard, cache outcome, WAL-ack wait) into the
                // span this request is building.
                let tracing = ctx.config.trace_capacity > 0;
                if tracing {
                    trace::begin();
                }
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
                let sent = send(&stream, &resp);
                let elapsed = start.elapsed();
                metrics.record_request(op, elapsed, is_error);
                if tracing {
                    record_span(ctx, op, payload_bytes, is_error, elapsed);
                }
                if sent.is_err() || matches!(resp, Response::ShuttingDown) {
                    return;
                }
                // Request-level errors keep the connection; stream-level
                // ones (undecodable payload) already poisoned the byte
                // stream, so close.
                if malformed || draining {
                    return;
                }
            }
            Err(RecvError::Frame(FrameError::Oversized { len, max })) => {
                metrics.rejected_oversized();
                let resp = Response::Error(WireError::Oversized { len, max });
                let _ = send(&stream, &resp);
                return;
            }
            Err(RecvError::Frame(e)) => {
                metrics.malformed_frame();
                let resp = Response::Error(WireError::Malformed {
                    detail: e.to_string(),
                });
                let _ = send(&stream, &resp);
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

/// Close the request's trace, push its span into the ring, and — when
/// it crossed the slow-op threshold — log a line and retain the span
/// where fast requests cannot evict it.
fn record_span(ctx: &WorkerCtx, op: OpSlot, bytes: u64, error: bool, elapsed: Duration) {
    let notes = trace::take();
    let total_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
    let seq = ctx.backend.trace.push(SpanBody {
        op: op.name(),
        bytes,
        shard: notes.shard,
        cache_hit: notes.cache_hit,
        wal_ack_us: notes.wal_ack_us,
        total_us,
        error,
    });
    if elapsed >= ctx.config.slow_op_threshold {
        let span = Span {
            seq,
            op: op.name(),
            bytes,
            shard: notes.shard,
            cache_hit: notes.cache_hit,
            wal_ack_us: notes.wal_ack_us,
            total_us,
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
