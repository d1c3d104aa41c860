//! The serving layer over the multi-profile store: a framed wire
//! protocol, a concurrent TCP daemon, a blocking client, and request
//! observability.
//!
//! The PPoPP'14 workflow up to PR 1 is batch-only: every front end is a
//! one-shot CLI over an in-process [`numa_store::ProfileStore`]. This
//! crate turns the store into a *service*, the way NUMAscope pairs a
//! long-running collection daemon with a live query surface:
//!
//! * [`protocol`] — length-prefixed frames with a versioned header
//!   around one tagged binary message each, a strict frame-size cap,
//!   and a typed error taxonomy
//!   ([`protocol::WireError`]). The blocking reader
//!   ([`protocol::read_frame`]) takes exactly one frame off the
//!   transport per call; the push-based [`protocol::FrameDecoder`]
//!   parses the same format from arbitrary TCP fragments.
//! * [`server`] — [`server::Backend`], the one function that executes
//!   a [`protocol::Request`], and `hpcd-sim`'s engine in front of it:
//!   one blocking accept loop and a thread per connection (the offline
//!   build has no async runtime), a cap on the requests executing at
//!   once, per-connection timeouts, and drain-on-shutdown.
//! * [`client`] — a blocking [`client::Client`] used by `hpcd-client`
//!   and the tests; one typed method per op, plus streaming-session
//!   verbs and [`client::Client::stream_profile`], over a TCP
//!   connection or in-process against a `Backend`.
//!
//! Streaming ingestion (the `numa-live` crate's sessions) rides the
//! same frame format: the header's flags word carries capability bits
//! ([`protocol::caps`]), session ops are ordinary request/response
//! round trips, and a session op whose frame does not declare streaming
//! draws a typed [`protocol::WireError::Unsupported`] instead of a
//! closed connection.
//! * [`metrics`] — per-op request/error counters and a fixed-bucket
//!   latency histogram, registered with the store and session series
//!   in one registry: [`server::Backend::exposition`] is the daemon's
//!   only statistics report, served by the `metrics` op, by
//!   `GET /metrics` ([`http`]) and by `hpcd-sim` at shutdown.
//!
//! The CLI front ends (`hpcd-sim`, `hpcd-client`) live in the
//! `numa-tools` crate next to the other `hpc*-sim` binaries.

pub mod client;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, SessionInfo};
pub use numa_live::LiveConfig;
pub use numa_obs::{parse_exposition, parse_percentiles, parse_slow_ops};
pub use protocol::{
    caps, FrameDecoder, FrameError, ProfileEntry, RecvError, ReportFormat, Request, Response,
    WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{Backend, Server, ServerConfig};
