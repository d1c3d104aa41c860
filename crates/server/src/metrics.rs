//! Request observability for the daemon: per-op counters and a
//! fixed-bucket latency histogram, all homed on `numa-obs` handles.
//!
//! The hot path (one request) touches exactly three relaxed atomics:
//! op requests, the histogram bucket, and optionally op errors. The
//! handles are read only through the registry ([`Metrics::register`]),
//! whose text the `metrics` op and `GET /metrics` serve.

use crate::protocol::Request;
use numa_obs::{Counter, Histogram, Registry};

/// Every op the daemon serves, densely numbered for counter arrays.
/// Each slot carries its op name, the `op` label of its series, so a
/// slot and its name are written once, together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSlot {
    index: usize,
    name: &'static str,
}

impl OpSlot {
    const fn new(index: usize, name: &'static str) -> OpSlot {
        OpSlot { index, name }
    }

    const PING: OpSlot = OpSlot::new(0, "ping");
    const INGEST_BINARY: OpSlot = OpSlot::new(1, "ingest-binary");
    const LIST: OpSlot = OpSlot::new(2, "list");
    const RESOLVE: OpSlot = OpSlot::new(3, "resolve");
    const AGGREGATE: OpSlot = OpSlot::new(4, "aggregate");
    const TOP: OpSlot = OpSlot::new(5, "top");
    const REPORT: OpSlot = OpSlot::new(6, "report");
    const CODE_VIEW: OpSlot = OpSlot::new(7, "code-view");
    const ADDRESS_VIEW: OpSlot = OpSlot::new(8, "address-view");
    const DIFF: OpSlot = OpSlot::new(9, "diff");
    const METRICS: OpSlot = OpSlot::new(10, "metrics");
    const CLEAR_CACHE: OpSlot = OpSlot::new(11, "clear-cache");
    const SHUTDOWN: OpSlot = OpSlot::new(12, "shutdown");
    const OPEN_SESSION: OpSlot = OpSlot::new(13, "open-session");
    const APPEND_CHUNK_BINARY: OpSlot = OpSlot::new(14, "append-chunk-binary");
    const SEAL_SESSION: OpSlot = OpSlot::new(15, "seal-session");
    const ABORT_SESSION: OpSlot = OpSlot::new(16, "abort-session");
    /// Absorbs malformed requests that never decoded to an op.
    pub const UNKNOWN: OpSlot = OpSlot::new(17, "unknown");

    /// Every slot, `ALL[i]` being slot `i` (checked at compile time
    /// below, so a missing, duplicated or misplaced slot does not build).
    const ALL: [OpSlot; 18] = [
        Self::PING,
        Self::INGEST_BINARY,
        Self::LIST,
        Self::RESOLVE,
        Self::AGGREGATE,
        Self::TOP,
        Self::REPORT,
        Self::CODE_VIEW,
        Self::ADDRESS_VIEW,
        Self::DIFF,
        Self::METRICS,
        Self::CLEAR_CACHE,
        Self::SHUTDOWN,
        Self::OPEN_SESSION,
        Self::APPEND_CHUNK_BINARY,
        Self::SEAL_SESSION,
        Self::ABORT_SESSION,
        Self::UNKNOWN,
    ];
    pub const COUNT: usize = Self::ALL.len();

    /// The slot counting `req`. The match is exhaustive, so an op added
    /// to [`Request`] does not compile until it has a slot here.
    pub fn of(req: &Request) -> OpSlot {
        match req {
            Request::Ping => Self::PING,
            Request::IngestBinary { .. } => Self::INGEST_BINARY,
            Request::List => Self::LIST,
            Request::Resolve { .. } => Self::RESOLVE,
            Request::Aggregate => Self::AGGREGATE,
            Request::Top { .. } => Self::TOP,
            Request::Report { .. } => Self::REPORT,
            Request::CodeView { .. } => Self::CODE_VIEW,
            Request::AddressView { .. } => Self::ADDRESS_VIEW,
            Request::Diff { .. } => Self::DIFF,
            Request::Metrics => Self::METRICS,
            Request::ClearCache => Self::CLEAR_CACHE,
            Request::Shutdown => Self::SHUTDOWN,
            Request::OpenSession { .. } => Self::OPEN_SESSION,
            Request::AppendChunkBinary { .. } => Self::APPEND_CHUNK_BINARY,
            Request::SealSession { .. } => Self::SEAL_SESSION,
            Request::AbortSession { .. } => Self::ABORT_SESSION,
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }
}

const _: () = {
    let mut i = 0;
    while i < OpSlot::COUNT {
        assert!(OpSlot::ALL[i].index == i, "OpSlot::ALL out of index order");
        i += 1;
    }
};

/// All daemon counters, shared by workers via `Arc`.
#[derive(Default)]
pub struct Metrics {
    requests: [Counter; OpSlot::COUNT],
    errors: [Counter; OpSlot::COUNT],
    latency: Histogram,
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
        self.requests[op.index].inc();
        if is_error {
            self.errors[op.index].inc();
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

    /// Adopt every counter into `registry` under the `numa_server_`
    /// prefix (clones of the same handles the hot path increments).
    pub fn register(&self, registry: &Registry) {
        for slot in OpSlot::ALL {
            registry.counter(
                "numa_server_requests_total",
                "Requests served, by op.",
                &[("op", slot.name)],
                self.requests[slot.index].clone(),
            );
            registry.counter(
                "numa_server_errors_total",
                "Requests answered with a typed error, by op.",
                &[("op", slot.name)],
                self.errors[slot.index].clone(),
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
        let registry = Registry::new();
        Metrics::new().register(&registry);
        let text = registry.render();
        assert!(
            text.contains("\n# numa_server_request_latency_us p50 0 p95 0 p99 0 max 0\n"),
            "{text}"
        );
    }

    #[test]
    fn op_slots_cover_every_request() {
        // Every variant, each with the op name its series has always
        // carried.
        let s = String::new;
        let ops = [
            (Request::Ping, "ping"),
            (Request::List, "list"),
            (Request::Resolve { reference: s() }, "resolve"),
            (Request::Aggregate, "aggregate"),
            (Request::Top { n: 5 }, "top"),
            (
                Request::Report {
                    profile: s(),
                    format: crate::protocol::ReportFormat::Text,
                },
                "report",
            ),
            (
                Request::CodeView {
                    profile: s(),
                    min_share_permille: 5,
                },
                "code-view",
            ),
            (
                Request::AddressView {
                    profile: s(),
                    var: s(),
                },
                "address-view",
            ),
            (
                Request::Diff {
                    before: s(),
                    after: s(),
                },
                "diff",
            ),
            (Request::Metrics, "metrics"),
            (Request::ClearCache, "clear-cache"),
            (Request::Shutdown, "shutdown"),
            (Request::OpenSession { label: s() }, "open-session"),
            (Request::SealSession { session: 1 }, "seal-session"),
            (Request::AbortSession { session: 1 }, "abort-session"),
            (
                Request::IngestBinary {
                    label: s(),
                    bytes: Vec::new(),
                },
                "ingest-binary",
            ),
            (
                Request::AppendChunkBinary {
                    session: 1,
                    seq: 0,
                    bytes: Vec::new(),
                },
                "append-chunk-binary",
            ),
        ];
        let mut seen = [false; OpSlot::COUNT];
        for (req, name) in &ops {
            let slot = OpSlot::of(req);
            assert_eq!(slot.name(), *name);
            assert!(!seen[slot.index], "{name} shares a slot");
            seen[slot.index] = true;
        }
        // Every slot but "unknown" is some request's: no stale name.
        assert_eq!(ops.len(), OpSlot::COUNT - 1);
        assert_eq!(OpSlot::UNKNOWN.name(), "unknown");
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
