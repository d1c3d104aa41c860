//! Streaming sample-ingestion sessions for the `hpcd-sim` daemon.
//!
//! One-shot ingestion ships a finished profile as a single blob. Live
//! capture — the norm for NUMA tooling — produces data *while the
//! program runs*, so the daemon needs a way to absorb long, write-heavy
//! streams without holding half-finished runs in its store. This crate
//! provides that layer:
//!
//! * A client **opens** a session ([`SessionManager::open`]) and gets a
//!   session id plus a lease.
//! * It **appends** sequence-numbered chunks
//!   ([`SessionManager::append_binary`]) — a binary-codec
//!   [`ChunkPayload`] header or thread batch per chunk. Buffers are
//!   bounded per chunk, per session, and across all sessions;
//!   exceeding a bound is a typed [`SessionError`], never a stall or a
//!   disconnect. An append is check → parse → buffer: it does no I/O,
//!   and its ack promises only that the chunk is held in memory for as
//!   long as the lease is renewed.
//! * It **seals** ([`SessionManager::seal`]): the chunks are assembled
//!   into a canonical profile and committed by
//!   [`ProfileStore::ingest_profile`] — a seal *is* an ingest, so a
//!   streamed profile is byte-identical — content hash, set hash,
//!   aggregate text, and on a durable store the WAL record — to the same
//!   profile ingested one-shot, and a seal's ack promises what an
//!   ingest's does.
//!
//! Every `open`/`append` renews the session's lease. A client that dies
//! mid-stream stops renewing; the janitor thread reaps the expired
//! session and reclaims its buffers — partial data is never
//! half-ingested. An open session lives in this process's memory and
//! nowhere else: it costs the daemon no disk write, and if the *daemon*
//! dies mid-stream the session is simply gone and the client re-streams.

use numa_obs::{Counter, Gauge, Registry};
use numa_store::stream::{assemble, ChunkPayload};
use numa_store::{ProfileId, ProfileStore};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Sizing and lifetime knobs for [`SessionManager::new`].
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// How long a session may sit idle before the janitor reaps it.
    /// Every open and every accepted append renews the lease.
    pub lease: Duration,
    /// Largest accepted chunk (serialized bytes).
    pub max_chunk_bytes: usize,
    /// Largest buffered session (sum of its chunk bytes).
    pub max_session_bytes: usize,
    /// Total buffered bytes across all open sessions; appends beyond
    /// this are rejected with [`SessionError::Backpressure`].
    pub max_open_bytes: usize,
    /// Most sessions open at once.
    pub max_sessions: usize,
    /// How often the janitor thread checks for expired leases.
    pub janitor_period: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            lease: Duration::from_secs(30),
            max_chunk_bytes: 4 << 20,
            max_session_bytes: 64 << 20,
            max_open_bytes: 256 << 20,
            max_sessions: 64,
            janitor_period: Duration::from_millis(250),
        }
    }
}

/// Typed streaming failures. Backpressure variants
/// ([`SessionError::TooManySessions`], [`SessionError::Backpressure`],
/// [`SessionError::SessionFull`]) tell a well-behaved client to retry
/// later or fall back to one-shot ingestion; the rest are client bugs
/// or expired leases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// No such open session (never opened, already sealed/aborted, or
    /// lease-reaped).
    UnknownSession { session: u64 },
    /// Chunks must arrive strictly in sequence, exactly once.
    BadSequence {
        session: u64,
        got: u64,
        expected: u64,
    },
    /// One chunk exceeded [`LiveConfig::max_chunk_bytes`].
    ChunkTooLarge {
        session: u64,
        len: usize,
        max: usize,
    },
    /// The session's buffer would exceed
    /// [`LiveConfig::max_session_bytes`].
    SessionFull {
        session: u64,
        bytes: usize,
        max: usize,
    },
    /// Too many sessions are already open.
    TooManySessions { open: usize, max: usize },
    /// The daemon-wide open-bytes budget is exhausted.
    Backpressure { open_bytes: usize, max: usize },
    /// The chunk was not a valid [`ChunkPayload`].
    ChunkParse {
        session: u64,
        seq: u64,
        message: String,
    },
    /// The sealed chunk set does not assemble into a profile (missing
    /// or duplicate header, duplicate thread ids, no threads).
    Incomplete { session: u64, reason: String },
    /// The durable store could not log the sealed profile: the WAL
    /// append failed and was rolled back, and the profile was **not**
    /// added. The session is discarded and must be re-streamed.
    NotDurable { session: u64, message: String },
}

impl SessionError {
    /// Whether this rejection is capacity-induced (retry later) rather
    /// than a client error.
    pub fn is_backpressure(&self) -> bool {
        matches!(
            self,
            SessionError::TooManySessions { .. }
                | SessionError::Backpressure { .. }
                | SessionError::SessionFull { .. }
        )
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownSession { session } => {
                write!(
                    f,
                    "no open session {session:#x} (sealed, aborted, or lease expired)"
                )
            }
            SessionError::BadSequence {
                session,
                got,
                expected,
            } => write!(
                f,
                "session {session:#x}: chunk seq {got} out of order (expected {expected})"
            ),
            SessionError::ChunkTooLarge { session, len, max } => write!(
                f,
                "session {session:#x}: chunk of {len} bytes exceeds the {max}-byte limit"
            ),
            SessionError::SessionFull {
                session,
                bytes,
                max,
            } => write!(
                f,
                "session {session:#x}: buffer would reach {bytes} bytes (limit {max})"
            ),
            SessionError::TooManySessions { open, max } => {
                write!(f, "{open} sessions already open (limit {max})")
            }
            SessionError::Backpressure { open_bytes, max } => write!(
                f,
                "daemon-wide session buffers would reach {open_bytes} bytes (limit {max})"
            ),
            SessionError::ChunkParse {
                session,
                seq,
                message,
            } => write!(
                f,
                "session {session:#x}: chunk {seq} does not parse: {message}"
            ),
            SessionError::Incomplete { session, reason } => {
                write!(f, "session {session:#x} does not assemble: {reason}")
            }
            SessionError::NotDurable { session, message } => {
                write!(
                    f,
                    "session {session:#x}: operation not durable (rolled back): {message}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What [`SessionManager::open`] hands back: the session id plus the
/// limits the client must respect.
#[derive(Clone, Copy, Debug)]
pub struct SessionTicket {
    pub session: u64,
    pub lease: Duration,
    pub max_chunk_bytes: usize,
    pub max_session_bytes: usize,
}

/// Outcome of a successful [`SessionManager::seal`].
#[derive(Clone, Copy, Debug)]
pub struct Sealed {
    pub id: ProfileId,
    /// `false`: the assembled profile deduplicated against an existing
    /// one (identical content already stored).
    pub added: bool,
    /// Chunks the session accumulated.
    pub chunks: u64,
}

/// Live-ingestion counters, the same numbers the `numa_live_*` series
/// carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Sessions open right now.
    pub open_sessions: usize,
    /// Bytes buffered across open sessions right now.
    pub open_bytes: usize,
    pub opened: u64,
    pub sealed: u64,
    pub aborted: u64,
    /// Expired leases the janitor reclaimed.
    pub reaped: u64,
    pub chunks_appended: u64,
    /// Appends/opens rejected for capacity (see
    /// [`SessionError::is_backpressure`]).
    pub backpressure_rejections: u64,
}

struct LiveSession {
    label: String,
    chunks: Vec<ChunkPayload>,
    bytes: usize,
    next_seq: u64,
    deadline: Instant,
}

#[derive(Default)]
struct Inner {
    sessions: HashMap<u64, LiveSession>,
    open_bytes: usize,
}

/// The streaming-session registry: one per daemon, shared by every
/// worker thread. Construction spawns the janitor thread; call
/// [`SessionManager::stop`] to join it (sessions themselves live until
/// sealed, aborted, or lease-reaped).
pub struct SessionManager {
    store: Arc<ProfileStore>,
    config: LiveConfig,
    inner: Mutex<Inner>,
    /// Session ids are time-seeded (`unix seconds << 20`, plus a
    /// counter) so ids never repeat across daemon restarts — a client
    /// still holding a session id from before a restart can never land
    /// its chunks in a stranger's new session.
    next_id: AtomicU64,
    opened: Counter,
    sealed: Counter,
    aborted: Counter,
    reaped: Counter,
    chunks_appended: Counter,
    backpressure: Counter,
    /// Mirrors of `Inner::{sessions.len(), open_bytes}`, updated inside
    /// the same lock critical sections that mutate them — a scrape sees
    /// gauges that exactly match the admission bookkeeping.
    open_sessions_gauge: Gauge,
    open_bytes_gauge: Gauge,
    stop_tx: Mutex<Option<mpsc::Sender<()>>>,
    janitor: Mutex<Option<JoinHandle<()>>>,
}

impl SessionManager {
    /// Build a manager over `store` and spawn its janitor thread. The
    /// janitor holds only a weak reference, so dropping every `Arc`
    /// also ends the thread (at its next wake-up).
    pub fn new(store: Arc<ProfileStore>, config: LiveConfig) -> Arc<SessionManager> {
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
            << 20;
        let (stop_tx, stop_rx) = mpsc::channel();
        let period = config.janitor_period;
        let mgr = Arc::new(SessionManager {
            store,
            config,
            inner: Mutex::new(Inner::default()),
            next_id: AtomicU64::new(seed),
            opened: Counter::new(),
            sealed: Counter::new(),
            aborted: Counter::new(),
            reaped: Counter::new(),
            chunks_appended: Counter::new(),
            backpressure: Counter::new(),
            open_sessions_gauge: Gauge::new(),
            open_bytes_gauge: Gauge::new(),
            stop_tx: Mutex::new(Some(stop_tx)),
            janitor: Mutex::new(None),
        });
        let weak = Arc::downgrade(&mgr);
        let handle = std::thread::Builder::new()
            .name("numa-live-janitor".to_string())
            .spawn(move || janitor_loop(weak, stop_rx, period))
            .expect("spawn janitor thread");
        *lock(&mgr.janitor) = Some(handle);
        mgr
    }

    /// Open a session. The returned ticket carries the lease and the
    /// buffer limits the client must respect.
    pub fn open(&self, label: &str) -> Result<SessionTicket, SessionError> {
        let session = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + self.config.lease;
        {
            let mut inner = lock(&self.inner);
            if inner.sessions.len() >= self.config.max_sessions {
                let open = inner.sessions.len();
                drop(inner);
                self.backpressure.inc();
                return Err(SessionError::TooManySessions {
                    open,
                    max: self.config.max_sessions,
                });
            }
            inner.sessions.insert(
                session,
                LiveSession {
                    label: label.to_string(),
                    chunks: Vec::new(),
                    bytes: 0,
                    next_seq: 0,
                    deadline,
                },
            );
            self.open_sessions_gauge.inc();
        }
        self.opened.inc();
        Ok(SessionTicket {
            session,
            lease: self.config.lease,
            max_chunk_bytes: self.config.max_chunk_bytes,
            max_session_bytes: self.config.max_session_bytes,
        })
    }

    /// Append chunk `seq` (strictly sequential from 0) to a session;
    /// `bytes` is a binary-codec chunk (see [`ChunkPayload::to_binary`]).
    /// Renews the lease. The chunk is buffered in memory only. Returns
    /// the daemon-wide buffered bytes after the append.
    pub fn append_binary(
        &self,
        session: u64,
        seq: u64,
        bytes: &[u8],
    ) -> Result<usize, SessionError> {
        let len = bytes.len();
        // Typed rejections first, under a brief lock, so oversized or
        // out-of-order chunks never pay for a parse — and the chunk's
        // bytes are reserved under the same lock that checked the
        // budgets, so appends racing through the parse below cannot
        // overshoot them together.
        let precheck = {
            let mut guard = lock(&self.inner);
            let inner = &mut *guard;
            match inner.sessions.get_mut(&session) {
                None => Err(SessionError::UnknownSession { session }),
                Some(s) if seq != s.next_seq => Err(SessionError::BadSequence {
                    session,
                    got: seq,
                    expected: s.next_seq,
                }),
                Some(_) if len > self.config.max_chunk_bytes => Err(SessionError::ChunkTooLarge {
                    session,
                    len,
                    max: self.config.max_chunk_bytes,
                }),
                Some(s) if s.bytes + len > self.config.max_session_bytes => {
                    Err(SessionError::SessionFull {
                        session,
                        bytes: s.bytes + len,
                        max: self.config.max_session_bytes,
                    })
                }
                Some(_) if inner.open_bytes + len > self.config.max_open_bytes => {
                    Err(SessionError::Backpressure {
                        open_bytes: inner.open_bytes + len,
                        max: self.config.max_open_bytes,
                    })
                }
                Some(s) => {
                    s.bytes += len;
                    inner.open_bytes += len;
                    self.open_bytes_gauge.add(len as i64);
                    Ok(())
                }
            }
        };
        if let Err(e) = precheck {
            if e.is_backpressure() {
                self.backpressure.inc();
            }
            return Err(e);
        }
        // Parse outside the lock: a chunk can be megabytes.
        let parsed = ChunkPayload::from_binary(bytes);
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        // Re-validate: the session can be sealed, aborted or reaped (or a
        // duplicate append can win the race) while this thread was
        // parsing. A session that is gone gave all of its `bytes` back,
        // this chunk's reservation included.
        let Some(s) = inner.sessions.get_mut(&session) else {
            return Err(SessionError::UnknownSession { session });
        };
        let refusal = match parsed {
            Err(e) => SessionError::ChunkParse {
                session,
                seq,
                message: e.to_string(),
            },
            Ok(_) if seq != s.next_seq => SessionError::BadSequence {
                session,
                got: seq,
                expected: s.next_seq,
            },
            Ok(payload) => {
                s.chunks.push(payload);
                s.next_seq += 1;
                s.deadline = Instant::now() + self.config.lease;
                self.chunks_appended.inc();
                return Ok(inner.open_bytes);
            }
        };
        s.bytes -= len;
        inner.open_bytes -= len;
        self.open_bytes_gauge.sub(len as i64);
        Err(refusal)
    }

    /// Seal a session: assemble its chunks into a canonical profile and
    /// commit it with [`ProfileStore::ingest_profile`] — the one-shot
    /// ingest path, whole. Succeeds or fails atomically: an
    /// unassemblable chunk set is a typed [`SessionError::Incomplete`], a
    /// commit the durable store could not log a typed
    /// [`SessionError::NotDurable`] with the profile rolled back out of
    /// the store; either way the session is gone.
    pub fn seal(&self, session: u64) -> Result<Sealed, SessionError> {
        let s = self.remove(session)?;
        let chunks = s.next_seq;
        let committed = assemble(s.chunks)
            .map_err(|e| SessionError::Incomplete {
                session,
                reason: e.to_string(),
            })
            .and_then(|profile| {
                self.store
                    .ingest_profile(&s.label, profile)
                    .map_err(|e| SessionError::NotDurable {
                        session,
                        message: e.to_string(),
                    })
            });
        match committed {
            Ok((id, added)) => {
                self.sealed.inc();
                Ok(Sealed { id, added, chunks })
            }
            Err(e) => {
                self.aborted.inc();
                Err(e)
            }
        }
    }

    /// Take a session out of the registry, giving its bytes back.
    fn remove(&self, session: u64) -> Result<LiveSession, SessionError> {
        let mut inner = lock(&self.inner);
        let s = inner
            .sessions
            .remove(&session)
            .ok_or(SessionError::UnknownSession { session })?;
        inner.open_bytes -= s.bytes;
        self.open_sessions_gauge.dec();
        self.open_bytes_gauge.sub(s.bytes as i64);
        Ok(s)
    }

    /// Abort a session: drop its buffers. Nothing is ingested.
    pub fn abort(&self, session: u64) -> Result<(), SessionError> {
        self.remove(session)?;
        self.aborted.inc();
        Ok(())
    }

    /// Reap every session whose lease has expired (normally driven by
    /// the janitor thread). Returns how many were reclaimed.
    pub fn reap_expired(&self) -> usize {
        let now = Instant::now();
        let dead = {
            let mut inner = lock(&self.inner);
            let ids: Vec<u64> = inner
                .sessions
                .iter()
                .filter(|(_, s)| s.deadline <= now)
                .map(|(id, _)| *id)
                .collect();
            for id in &ids {
                if let Some(s) = inner.sessions.remove(id) {
                    inner.open_bytes -= s.bytes;
                    self.open_sessions_gauge.dec();
                    self.open_bytes_gauge.sub(s.bytes as i64);
                }
            }
            ids.len()
        };
        self.reaped.add(dead as u64);
        dead
    }

    /// Counter snapshot for observability.
    pub fn stats(&self) -> LiveStats {
        let (open_sessions, open_bytes) = {
            let inner = lock(&self.inner);
            (inner.sessions.len(), inner.open_bytes)
        };
        LiveStats {
            open_sessions,
            open_bytes,
            opened: self.opened.get(),
            sealed: self.sealed.get(),
            aborted: self.aborted.get(),
            reaped: self.reaped.get(),
            chunks_appended: self.chunks_appended.get(),
            backpressure_rejections: self.backpressure.get(),
        }
    }

    /// Adopt every live-ingestion counter and gauge into `registry`
    /// under the `numa_live_` prefix. The gauges are the same handles
    /// the session paths update under the manager's lock, so a scrape
    /// always sees values consistent with admission decisions.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.counter(
            "numa_live_sessions_opened_total",
            "Streaming sessions opened.",
            &[],
            self.opened.clone(),
        );
        registry.counter(
            "numa_live_sessions_sealed_total",
            "Streaming sessions sealed into the store.",
            &[],
            self.sealed.clone(),
        );
        registry.counter(
            "numa_live_sessions_aborted_total",
            "Streaming sessions aborted (client abort, failed seal).",
            &[],
            self.aborted.clone(),
        );
        registry.counter(
            "numa_live_sessions_reaped_total",
            "Expired leases reclaimed by the janitor.",
            &[],
            self.reaped.clone(),
        );
        registry.counter(
            "numa_live_chunks_appended_total",
            "Chunks accepted across all sessions.",
            &[],
            self.chunks_appended.clone(),
        );
        registry.counter(
            "numa_live_backpressure_rejections_total",
            "Opens/appends rejected for capacity.",
            &[],
            self.backpressure.clone(),
        );
        registry.gauge(
            "numa_live_open_sessions",
            "Sessions open right now.",
            &[],
            self.open_sessions_gauge.clone(),
        );
        registry.gauge(
            "numa_live_open_bytes",
            "Bytes buffered across open sessions right now.",
            &[],
            self.open_bytes_gauge.clone(),
        );
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// Stop and join the janitor thread. Idempotent. Open sessions are
    /// left as they are — on a daemon shutdown they end with the process.
    pub fn stop(&self) {
        drop(lock(&self.stop_tx).take());
        if let Some(handle) = lock(&self.janitor).take() {
            let _ = handle.join();
        }
    }
}

/// Lock one of the manager's mutexes. A poisoned lock is taken as it
/// is (DESIGN.md, "Concurrency model"): a panicking request must not
/// wedge every later session operation.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The janitor's periodic wake-up and its stop signal are one `mpsc`
/// receiver: timeout = tick, message or disconnect = stop. Dropping the
/// sender is the stop, so no flag or condition variable is needed.
fn janitor_loop(mgr: Weak<SessionManager>, stop: mpsc::Receiver<()>, period: Duration) {
    loop {
        match stop.recv_timeout(period) {
            Err(RecvTimeoutError::Timeout) => {
                let Some(mgr) = mgr.upgrade() else { return };
                mgr.reap_expired();
            }
            // Explicit stop or every manager handle dropped.
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(config: LiveConfig) -> Arc<SessionManager> {
        SessionManager::new(Arc::new(ProfileStore::new()), config)
    }

    #[test]
    fn unknown_session_is_typed() {
        let mgr = manager(LiveConfig::default());
        assert_eq!(
            mgr.append_binary(42, 0, b"").unwrap_err(),
            SessionError::UnknownSession { session: 42 }
        );
        assert_eq!(
            mgr.seal(42).unwrap_err(),
            SessionError::UnknownSession { session: 42 }
        );
        assert_eq!(
            mgr.abort(42).unwrap_err(),
            SessionError::UnknownSession { session: 42 }
        );
        mgr.stop();
    }

    #[test]
    fn session_ids_are_time_seeded_and_unique() {
        let mgr = manager(LiveConfig::default());
        let a = mgr.open("a").unwrap().session;
        let b = mgr.open("b").unwrap().session;
        assert_ne!(a, b);
        assert!(a >> 20 > 0, "id {a:#x} carries a time seed");
        mgr.stop();
    }

    #[test]
    fn open_rejects_beyond_max_sessions() {
        let mgr = manager(LiveConfig {
            max_sessions: 2,
            ..LiveConfig::default()
        });
        mgr.open("a").unwrap();
        mgr.open("b").unwrap();
        let err = mgr.open("c").unwrap_err();
        assert_eq!(err, SessionError::TooManySessions { open: 2, max: 2 });
        assert!(err.is_backpressure());
        assert_eq!(mgr.stats().backpressure_rejections, 1);
        mgr.stop();
    }

    #[test]
    fn stop_is_idempotent() {
        let mgr = manager(LiveConfig::default());
        mgr.stop();
        mgr.stop();
    }
}
