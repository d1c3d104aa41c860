//! Observability substrate for the serving stack: one home for every
//! number the daemon exports.
//!
//! Three layers, all designed for a hot path that is a handful of
//! relaxed atomic ops:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — cheap cloneable handles
//!   over shared atomics. Components create them where the event
//!   happens; exposition holds a clone of the same handle, so there is
//!   exactly one storage location per number (no parallel bookkeeping
//!   to drift out of sync).
//! - [`Registry`] — names, help text, and labels for a set of handles,
//!   rendered as Prometheus text exposition (`GET /metrics`) and read
//!   back by [`parse_exposition`]. Derived values (anything already
//!   guarded by a component's own lock) join via closure collectors
//!   instead of duplicating state.
//! - [`trace`] — per-request structured spans (op, bytes, shard, cache
//!   hit/miss, WAL-ack latency, total latency), a bounded ring that
//!   keeps the slow ones, and a thread-local side channel that lets
//!   lower layers (store, persistence) deposit facts into the span the
//!   serving layer is building, without threading a context argument
//!   through every call.
//!
//! The histogram keeps the power-of-two bucket shape the daemon's
//! latency histogram established: 27 buckets, bucket `i` covering
//! `[2^i, 2^(i+1))` with the last bucket an overflow catch-all.
//! [`Histogram::snapshot`] copies all buckets once and derives every
//! statistic (count, percentiles) from that one copy, so a summary can
//! never mix bucket counts from different instants.

mod metrics;
mod registry;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{parse_exposition, parse_percentiles, Registry};
pub use trace::{parse_slow_ops, Span, SpanRing};
