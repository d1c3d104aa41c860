//! Spans around every call the harness makes into a layer. They are kept in
//! memory and written once when the run ends; a layer's self time is its
//! spans' duration minus the part their child spans cover. Spans inside the
//! program under test are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// `layer.what`: the part before the first dot is the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Off for the untraced run and for the untraced slices of a traced run.
    pub enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span that later spans nest under, until the matching [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(id) = self.open.pop() {
            self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
        }
    }

    /// Record a finished call from the instants the caller already took for
    /// its latency sample, so tracing adds no clock read to the op.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Time `f` as one leaf span and return its result and duration in ns.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.leaf(name, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, ns: each span's duration minus its children's.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut layers = BTreeMap::new();
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *layers.entry(layer).or_insert(0) += own;
        }
        layers
    }

    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\"}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let at = |ms| t.epoch + Duration::from_millis(ms);
        let (a, b, c, d) = (at(0), at(10), at(4), at(7));
        t.begin("store.outer");
        t.leaf("codec.decode", c, d);
        t.leaf("codec.decode", a, c);
        t.end();
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = t.ns(b);
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer["codec"], 7_000_000);
        assert_eq!(by_layer["store"], 3_000_000);
        assert_eq!(t.spans()[1].parent, t.spans()[0].id);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x.y");
        t.leaf("x.z", Instant::now(), Instant::now());
        t.end();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn the_written_file_is_json_with_one_object_per_span() {
        let mut t = Tracer::new(true);
        t.begin("server.phase");
        t.leaf("server.ping", Instant::now(), Instant::now());
        t.end();
        let path =
            std::env::temp_dir().join(format!("hpcd-bench-trace-{}.json", std::process::id()));
        t.write(&path, "pipeline").unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = v["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1]["parent"].as_u64(), Some(1));
        assert_eq!(spans[1]["workload"], "pipeline");
    }
}
