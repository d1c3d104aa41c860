//! Request observability for the daemon: per-op counters and a
//! fixed-bucket latency histogram, all homed on `numa-obs` handles.
//!
//! The hot path (one request) touches exactly three relaxed atomics:
//! op requests, the histogram bucket, and optionally op errors. The
//! same handles feed both `server-stats` (via [`Metrics::latency_summary`]
//! and [`Metrics::per_op`]) and the Prometheus scrape (via
//! [`Metrics::register`]) — one storage location per number.

use crate::protocol::{LatencySummary, OpStat, Request};
use numa_obs::{Counter, Histogram, Registry};

/// Every op the daemon serves, densely numbered for counter arrays.
/// Slot [`OpSlot::COUNT`]`-1` ("unknown") absorbs malformed requests
/// that never decoded to an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSlot(usize);

impl OpSlot {
    pub const NAMES: [&'static str; 20] = [
        "ping",
        "ingest-binary",
        "list",
        "resolve",
        "aggregate",
        "top",
        "report",
        "code-view",
        "address-view",
        "diff",
        "store-stats",
        "server-stats",
        "metrics",
        "clear-cache",
        "shutdown",
        "open-session",
        "append-chunk-binary",
        "seal-session",
        "abort-session",
        "unknown",
    ];
    pub const COUNT: usize = Self::NAMES.len();
    pub const UNKNOWN: OpSlot = OpSlot(Self::COUNT - 1);

    pub fn of(req: &Request) -> OpSlot {
        let name = req.op_name();
        OpSlot(
            Self::NAMES
                .iter()
                .position(|n| *n == name)
                .unwrap_or(Self::COUNT - 1),
        )
    }

    pub fn name(&self) -> &'static str {
        Self::NAMES[self.0]
    }
}

/// All daemon counters, shared by workers via `Arc`.
#[derive(Default)]
pub struct Metrics {
    requests: [Counter; OpSlot::COUNT],
    errors: [Counter; OpSlot::COUNT],
    pub latency: Histogram,
    connections_accepted: Counter,
    connections_closed: Counter,
    rejected_oversized: Counter,
    malformed_frames: Counter,
    timeouts: Counter,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_request(&self, op: OpSlot, elapsed: std::time::Duration, is_error: bool) {
        self.requests[op.0].inc();
        if is_error {
            self.errors[op.0].inc();
        }
        self.latency.record_duration(elapsed);
    }

    pub fn connection_accepted(&self) {
        self.connections_accepted.inc();
    }

    pub fn connection_closed(&self) {
        self.connections_closed.inc();
    }

    pub fn rejected_oversized(&self) {
        self.rejected_oversized.inc();
    }

    pub fn malformed_frame(&self) {
        self.malformed_frames.inc();
    }

    pub fn timeout(&self) {
        self.timeouts.inc();
    }

    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    pub fn errors_total(&self) -> u64 {
        self.errors.iter().map(Counter::get).sum()
    }

    pub fn connections_accepted_total(&self) -> u64 {
        self.connections_accepted.get()
    }

    pub fn connections_closed_total(&self) -> u64 {
        self.connections_closed.get()
    }

    pub fn rejected_oversized_total(&self) -> u64 {
        self.rejected_oversized.get()
    }

    pub fn malformed_total(&self) -> u64 {
        self.malformed_frames.get()
    }

    pub fn timeouts_total(&self) -> u64 {
        self.timeouts.get()
    }

    /// One consistent latency summary: every percentile line comes
    /// from the same bucket snapshot, so p50 ≤ p95 ≤ p99 holds even
    /// while workers are recording.
    pub fn latency_summary(&self) -> LatencySummary {
        let s = self.latency.snapshot();
        LatencySummary {
            count: s.count,
            p50_us: s.percentile(0.50),
            p95_us: s.percentile(0.95),
            p99_us: s.percentile(0.99),
            max_us: s.max,
        }
    }

    /// Per-op rows for ops that saw at least one request.
    pub fn per_op(&self) -> Vec<OpStat> {
        (0..OpSlot::COUNT)
            .filter_map(|i| {
                let requests = self.requests[i].get();
                if requests == 0 {
                    return None;
                }
                Some(OpStat {
                    op: OpSlot::NAMES[i].to_string(),
                    requests,
                    errors: self.errors[i].get(),
                })
            })
            .collect()
    }

    /// Adopt every counter into `registry` under the `numa_server_`
    /// prefix (clones of the same handles the hot path increments).
    pub fn register(&self, registry: &Registry) {
        for (i, name) in OpSlot::NAMES.iter().enumerate() {
            registry.counter(
                "numa_server_requests_total",
                "Requests served, by op.",
                &[("op", name)],
                self.requests[i].clone(),
            );
            registry.counter(
                "numa_server_errors_total",
                "Requests answered with a typed error, by op.",
                &[("op", name)],
                self.errors[i].clone(),
            );
        }
        registry.histogram(
            "numa_server_request_latency_us",
            "End-to-end request service time in microseconds.",
            self.latency.clone(),
        );
        registry.counter(
            "numa_server_connections_accepted_total",
            "TCP connections accepted.",
            &[],
            self.connections_accepted.clone(),
        );
        registry.counter(
            "numa_server_connections_closed_total",
            "TCP connections closed.",
            &[],
            self.connections_closed.clone(),
        );
        registry.counter(
            "numa_server_rejected_oversized_total",
            "Frames rejected for exceeding the size cap.",
            &[],
            self.rejected_oversized.clone(),
        );
        registry.counter(
            "numa_server_malformed_frames_total",
            "Frames that failed to decode.",
            &[],
            self.malformed_frames.clone(),
        );
        registry.counter(
            "numa_server_timeouts_total",
            "Connections dropped on read timeout.",
            &[],
            self.timeouts.clone(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_obs::Histogram;
    use std::time::Duration;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                h.record_duration(Duration::from_micros(us));
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.percentile(0.50);
        // The median sample is 100 µs; its bucket's upper bound is 128.
        assert!((100..=128).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(0.99);
        assert!(p99 >= 10_000, "p99 = {p99}");
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Metrics::new().latency_summary();
        assert_eq!((s.count, s.p50_us, s.p99_us, s.max_us), (0, 0, 0, 0));
    }

    #[test]
    fn op_slots_cover_every_request() {
        use crate::protocol::Request;
        let reqs = [
            Request::Ping,
            Request::List,
            Request::Aggregate,
            Request::StoreStats,
            Request::ServerStats,
            Request::Metrics,
            Request::ClearCache,
            Request::Shutdown,
        ];
        for r in &reqs {
            assert_ne!(OpSlot::of(r), OpSlot::UNKNOWN, "{:?}", r.op_name());
        }
    }

    #[test]
    fn registered_counters_share_storage_with_the_hot_path() {
        let m = Metrics::new();
        let registry = Registry::new();
        m.register(&registry);
        m.record_request(OpSlot::of(&Request::Ping), Duration::from_micros(5), false);
        m.record_request(OpSlot::of(&Request::Ping), Duration::from_micros(7), true);
        let text = registry.render();
        assert!(
            text.contains("numa_server_requests_total{op=\"ping\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("numa_server_errors_total{op=\"ping\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("numa_server_request_latency_us_count 2\n"),
            "{text}"
        );
    }
}
