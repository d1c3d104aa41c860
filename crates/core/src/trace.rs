//! Trace-based (time-series) NUMA measurements — the paper's future-work
//! item #3: "collect trace-based measurements to study time-varying NUMA
//! patterns in addition to profiles."
//!
//! Each thread appends a [`TracePoint`] whenever at least
//! `interval_cycles` of its virtual clock have passed since the previous
//! point. Points carry *cumulative* counters; the analyzer differences
//! consecutive points to recover per-interval rates, exposing phase
//! behaviour (e.g. the serial initialization's local-store burst followed
//! by the solve phase's remote-read plateau).

use serde::Serialize;

/// One snapshot of a thread's cumulative NUMA counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TracePoint {
    /// Thread virtual clock at the snapshot.
    pub clock: u64,
    /// Cumulative sampled accesses so far.
    pub samples: u64,
    /// Cumulative remote-homed samples (`M_r`).
    pub m_remote: u64,
    /// Cumulative sampled remote latency (`l^s_NUMA`).
    pub latency_remote: u64,
}

/// Per-thread trace recorder.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Trace {
    interval: u64,
    points: Vec<TracePoint>,
}

impl Trace {
    pub fn new(interval_cycles: u64) -> Self {
        assert!(interval_cycles > 0);
        Trace {
            interval: interval_cycles,
            points: Vec::new(),
        }
    }

    /// Rebuild a trace from its serialized parts. Used by decoders that
    /// bypass serde (the binary profile codec); unlike [`Trace::new`] a
    /// zero interval is accepted, because it is exactly what a default
    /// (never-enabled) trace round-trips through.
    pub fn from_parts(interval: u64, points: Vec<TracePoint>) -> Self {
        Trace { interval, points }
    }

    /// The recording interval in cycles (0 when tracing was never
    /// enabled).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Offer the current cumulative counters; records a point if the
    /// interval elapsed (or it is the first point).
    pub fn offer(&mut self, clock: u64, samples: u64, m_remote: u64, latency_remote: u64) {
        let due = match self.points.last() {
            None => true,
            Some(last) => clock.saturating_sub(last.clock) >= self.interval,
        };
        if due {
            self.points.push(TracePoint {
                clock,
                samples,
                m_remote,
                latency_remote,
            });
        }
    }

    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Per-interval remote fraction series: (interval-end clock,
    /// ΔM_r / Δsamples).
    pub fn remote_fraction_series(&self) -> Vec<(u64, f64)> {
        self.points
            .windows(2)
            .map(|w| {
                let ds = w[1].samples - w[0].samples;
                let dr = w[1].m_remote - w[0].m_remote;
                (
                    w[1].clock,
                    if ds == 0 { 0.0 } else { dr as f64 / ds as f64 },
                )
            })
            .collect()
    }

    pub fn footprint_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<TracePoint>()
    }
}

/// Render a per-thread remote-fraction timeline as a sparkline-style row
/// per thread ('·' = local, '▁▂…█' = increasing remote fraction).
pub fn render_timeline(traces: &[(usize, &Trace)], width: usize) -> String {
    const GLYPHS: [char; 9] = ['·', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    out.push_str("remote-fraction timeline (columns = equal slices of each thread's run)\n");
    for (tid, trace) in traces {
        let series = trace.remote_fraction_series();
        out.push_str(&format!("t{tid:<3} "));
        if series.is_empty() {
            out.push_str("(no trace)\n");
            continue;
        }
        // Resample the series to `width` columns.
        for col in 0..width {
            let idx = col * series.len() / width;
            let (_, frac) = series[idx.min(series.len() - 1)];
            let g = (frac * (GLYPHS.len() - 1) as f64).round() as usize;
            out.push(GLYPHS[g.min(GLYPHS.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_at_interval_boundaries() {
        let mut t = Trace::new(100);
        t.offer(0, 0, 0, 0);
        t.offer(50, 5, 1, 10); // too soon
        t.offer(120, 12, 3, 30);
        t.offer(199, 15, 4, 40); // too soon
        t.offer(230, 20, 8, 80);
        assert_eq!(t.len(), 3);
        assert_eq!(t.points()[1].clock, 120);
    }

    #[test]
    fn remote_fraction_series_differences_cumulatives() {
        let mut t = Trace::new(1);
        t.offer(0, 0, 0, 0);
        t.offer(10, 10, 2, 0);
        t.offer(20, 20, 10, 0);
        let s = t.remote_fraction_series();
        assert_eq!(s.len(), 2);
        assert!((s[0].1 - 0.2).abs() < 1e-12);
        assert!((s[1].1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_interval_yields_zero_fraction() {
        let mut t = Trace::new(1);
        t.offer(0, 5, 1, 0);
        t.offer(10, 5, 1, 0);
        assert_eq!(t.remote_fraction_series(), vec![(10, 0.0)]);
    }

    #[test]
    fn timeline_renders_one_row_per_thread() {
        let mut a = Trace::new(1);
        for i in 0..10u64 {
            a.offer(i * 10, i * 10, i * 9, 0); // mostly remote
        }
        let mut b = Trace::new(1);
        for i in 0..10u64 {
            b.offer(i * 10, i * 10, 0, 0); // all local
        }
        let s = render_timeline(&[(0, &a), (1, &b)], 16);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("t0"));
        assert!(
            lines[2].contains('·'),
            "local thread renders dots: {}",
            lines[2]
        );
        assert!(lines[1].contains('█') || lines[1].contains('▇'));
    }
}
