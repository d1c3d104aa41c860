//! Metric naming and Prometheus text exposition.
//!
//! A [`Registry`] maps metric family names to the handles (or closure
//! collectors) that hold the live values. Registration happens once at
//! startup; [`Registry::render`] walks the families and emits the
//! Prometheus text format (`text/plain; version=0.0.4`):
//!
//! ```text
//! # HELP numa_server_requests_total Requests served, by op.
//! # TYPE numa_server_requests_total counter
//! numa_server_requests_total{op="ping"} 42
//! ```
//!
//! Registering the same family name again appends a series (e.g. one
//! per op label); help and type come from the first registration. A
//! histogram also gets one comment line of percentiles read from the
//! same snapshot as its buckets, so a human reading the text, or a
//! test, sees ordered p50/p95/p99/max without re-deriving them:
//!
//! ```text
//! # numa_server_request_latency_us p50 64 p95 512 p99 1024 max 1730
//! ```
//!
//! [`parse_exposition`] reads the series back and [`parse_percentiles`]
//! that comment, so callers never parse the text format themselves.

use crate::metrics::{bucket_upper_bound, Counter, Gauge, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

enum Source {
    Counter(Counter),
    Gauge(Gauge),
    /// Derived counter value, read under the owning component's lock.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    /// Derived gauge value.
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    Histogram(Histogram),
}

struct Series {
    /// Rendered label set, `{key="value",...}` or empty.
    labels: String,
    source: Source,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    series: Vec<Series>,
}

/// A set of named metric families rendered as Prometheus text.
///
/// Components register cloned handles (one storage location, two
/// readers) or closures for values derived under their own locks.
/// Thread-safe; registration and rendering may race, each render sees
/// a consistent family list.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Counter) {
        self.register(name, help, "counter", labels, Source::Counter(handle));
    }

    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: Gauge) {
        self.register(name, help, "gauge", labels, Source::Gauge(handle));
    }

    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(
            name,
            help,
            "counter",
            labels,
            Source::CounterFn(Box::new(f)),
        );
    }

    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        self.register(name, help, "gauge", labels, Source::GaugeFn(Box::new(f)));
    }

    pub fn histogram(&self, name: &str, help: &str, handle: Histogram) {
        self.register(name, help, "histogram", &[], Source::Histogram(handle));
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        source: Source,
    ) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        debug_assert!(
            labels.iter().all(|(k, _)| valid_name(k)),
            "invalid label key in {labels:?}"
        );
        let labels = render_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                debug_assert_eq!(f.kind, kind, "family {name:?} re-registered as {kind}");
                f.series.push(Series { labels, source });
            }
            None => families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                series: vec![Series { labels, source }],
            }),
        }
    }

    /// Render every family in registration order as Prometheus text.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
            for series in &family.series {
                match &series.source {
                    Source::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, c.get());
                    }
                    Source::CounterFn(f) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, f());
                    }
                    Source::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, g.get());
                    }
                    Source::GaugeFn(f) => {
                        let _ = writeln!(out, "{}{} {}", family.name, series.labels, f());
                    }
                    Source::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for i in 0..BUCKETS {
                            cumulative = cumulative.saturating_add(snap.buckets[i]);
                            let le = bucket_upper_bound(i);
                            if le == u64::MAX {
                                continue; // folded into +Inf below
                            }
                            let _ = writeln!(
                                out,
                                "{}_bucket{{le=\"{}\"}} {}",
                                family.name, le, cumulative
                            );
                        }
                        let _ =
                            writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", family.name, snap.count);
                        let _ = writeln!(out, "{}_sum {}", family.name, snap.sum);
                        let _ = writeln!(out, "{}_count {}", family.name, snap.count);
                        let _ = writeln!(
                            out,
                            "# {} p50 {} p95 {} p99 {} max {}",
                            family.name,
                            snap.percentile(0.50),
                            snap.percentile(0.95),
                            snap.percentile(0.99),
                            snap.max,
                        );
                    }
                }
            }
        }
        out
    }
}

/// Read a text exposition back as `series -> value`, the key being the
/// series name with its rendered labels (`numa_server_requests_total{op="ping"}`).
/// Comment lines are skipped. Values are `i128` so that every `u64`
/// counter and every `i64` gauge [`Registry::render`] writes reads back
/// exactly. A line without a numeric value, or a series seen twice, is
/// an error naming the line.
pub fn parse_exposition(text: &str) -> Result<BTreeMap<String, i128>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = line
            .rsplit_once(' ')
            .and_then(|(series, value)| Some((series, value.parse().ok()?)));
        let Some((series, value)) = value else {
            return Err(format!("not a `series value` line: {line:?}"));
        };
        if out.insert(series.to_string(), value).is_some() {
            return Err(format!("series {series:?} appears twice"));
        }
    }
    Ok(out)
}

/// The `[p50, p95, p99, max]` comment [`Registry::render`] writes for
/// histogram family `name`, or `None` when `text` carries none.
pub fn parse_percentiles(text: &str, name: &str) -> Option<[u64; 4]> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix("# ")?.strip_prefix(name)?;
        let words: Vec<&str> = rest.strip_prefix(' ')?.split(' ').collect();
        let ["p50", p50, "p95", p95, "p99", p99, "max", max] = words[..] else {
            return None;
        };
        Some([
            p50.parse().ok()?,
            p95.parse().ok()?,
            p99.parse().ok()?,
            max.parse().ok()?,
        ])
    })
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_families_with_labels_and_help() {
        let registry = Registry::new();
        let ping = Counter::new();
        let ingest = Counter::new();
        ping.add(3);
        ingest.add(2);
        registry.counter(
            "numa_requests_total",
            "Requests by op.",
            &[("op", "ping")],
            ping,
        );
        registry.counter(
            "numa_requests_total",
            "ignored duplicate help",
            &[("op", "ingest")],
            ingest,
        );
        let g = Gauge::new();
        g.set(-4);
        registry.gauge("numa_open_bytes", "Buffered bytes.", &[], g);
        registry.counter_fn("numa_derived_total", "Derived.", &[], || 7);

        let text = registry.render();
        assert!(text.contains("# HELP numa_requests_total Requests by op.\n"));
        assert!(text.contains("# TYPE numa_requests_total counter\n"));
        assert!(text.contains("numa_requests_total{op=\"ping\"} 3\n"));
        assert!(text.contains("numa_requests_total{op=\"ingest\"} 2\n"));
        assert!(text.contains("numa_open_bytes -4\n"));
        assert!(text.contains("numa_derived_total 7\n"));
        // Help appears once per family even with two series.
        assert_eq!(text.matches("# HELP numa_requests_total").count(), 1);
    }

    #[test]
    fn renders_histogram_with_cumulative_buckets() {
        let registry = Registry::new();
        let h = Histogram::new();
        h.record(1); // bucket 0 (le 2)
        h.record(3); // bucket 1 (le 4)
        h.record(1 << 40); // overflow bucket
        registry.histogram("numa_latency_us", "Latency.", h);
        let text = registry.render();
        assert!(text.contains("# TYPE numa_latency_us histogram\n"));
        assert!(text.contains("numa_latency_us_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("numa_latency_us_bucket{le=\"4\"} 2\n"));
        assert!(text.contains("numa_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("numa_latency_us_count 3\n"));
        let sum = 1 + 3 + (1u64 << 40);
        assert!(text.contains(&format!("numa_latency_us_sum {sum}\n")));
    }

    #[test]
    fn histogram_percentiles_ride_in_one_comment() {
        let registry = Registry::new();
        let h = Histogram::new();
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        registry.histogram("numa_latency_us", "Latency.", h);
        let text = registry.render();
        assert!(
            text.contains("\n# numa_latency_us p50 16 p95 1000 p99 1000 max 1000\n"),
            "{text}"
        );
        assert_eq!(
            parse_percentiles(&text, "numa_latency_us"),
            Some([16, 1000, 1000, 1000])
        );
        assert_eq!(parse_percentiles(&text, "numa_latency"), None);
        assert_eq!(parse_percentiles(&text, "numa_other_us"), None);
    }

    #[test]
    fn parse_reads_back_every_series_render_writes() {
        let registry = Registry::new();
        let (ping, ingest) = (Counter::new(), Counter::new());
        ping.add(3);
        ingest.add(u64::MAX);
        registry.counter("numa_requests_total", "By op.", &[("op", "ping")], ping);
        registry.counter("numa_requests_total", "By op.", &[("op", "ingest")], ingest);
        let g = Gauge::new();
        g.set(i64::MIN);
        registry.gauge("numa_open_bytes", "Bytes.", &[("shard", "7")], g);
        registry.gauge_fn("numa_profiles", "Profiles.", &[], || 2);
        let h = Histogram::new();
        h.record(3);
        h.record(1 << 40);
        registry.histogram("numa_latency_us", "Latency.", h);

        let text = registry.render();
        let series = parse_exposition(&text).expect("parses");
        // Every non-comment line is one series: nothing dropped.
        let lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(series.len(), lines);
        let get = |key: &str| series.get(key).copied();
        assert_eq!(get("numa_requests_total{op=\"ping\"}"), Some(3));
        assert_eq!(
            get("numa_requests_total{op=\"ingest\"}"),
            Some(u64::MAX as i128)
        );
        assert_eq!(get("numa_open_bytes{shard=\"7\"}"), Some(i64::MIN as i128));
        assert_eq!(get("numa_profiles"), Some(2));
        assert_eq!(get("numa_latency_us_bucket{le=\"4\"}"), Some(1));
        assert_eq!(get("numa_latency_us_bucket{le=\"+Inf\"}"), Some(2));
        assert_eq!(get("numa_latency_us_count"), Some(2));
        assert_eq!(get("numa_latency_us_sum"), Some(3 + (1 << 40)));
    }

    #[test]
    fn parse_rejects_what_render_never_writes() {
        assert!(parse_exposition("numa_x\n").is_err());
        assert!(parse_exposition("numa_x one\n").is_err());
        assert!(parse_exposition("numa_x 1\nnuma_x 2\n").is_err());
        assert_eq!(
            parse_exposition("# comment\n\nnuma_x -1\n").unwrap(),
            BTreeMap::from([("numa_x".to_string(), -1)])
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
