//! The viewer (§7.2): textual renderings of the address-centric view and
//! metric panes that `hpcviewer` displays, plus JSON export for external
//! plotting.

use crate::analyzer::{Analyzer, ThreadRange};
use numa_profiler::{Cct, MetricSet, NodeId, NodeKey, RangeScope, VarId, ROOT};

/// Height (rows) of the ASCII address-range plot.
const PLOT_ROWS: usize = 16;

/// Render the address-centric view for one variable: per-thread \[min,max\]
/// accessed ranges, normalized to [0, 1] (the paper's upper-right pane in
/// Figure 3). The x axis is the thread index; each column's filled span is
/// the thread's accessed range.
pub fn render_address_view(
    analyzer: &Analyzer,
    var: VarId,
    scope: RangeScope,
    title: &str,
) -> String {
    let ranges = analyzer.thread_ranges(var, scope);
    render_ranges(&ranges, title)
}

/// Render pre-computed ranges (used by tests and by per-region views).
pub fn render_ranges(ranges: &[ThreadRange], title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("── address-centric view: {title} ──\n"));
    if ranges.is_empty() {
        out.push_str("   (no samples)\n");
        return out;
    }
    let max_tid = ranges.iter().map(|r| r.tid).max().unwrap();
    let cols = max_tid + 1;
    // Column per thread; '█' where the thread's range covers the row.
    // Row 0 is the top of the variable (normalized 1.0).
    let mut grid = vec![vec![' '; cols]; PLOT_ROWS];
    for r in ranges {
        if r.samples == 0 {
            continue;
        }
        let lo = ((r.min * PLOT_ROWS as f64).floor() as usize).min(PLOT_ROWS - 1);
        let hi = ((r.max * PLOT_ROWS as f64).ceil() as usize).clamp(lo + 1, PLOT_ROWS);
        for row in lo..hi {
            grid[PLOT_ROWS - 1 - row][r.tid] = '█';
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let label = match i {
            0 => "1.0 ",
            r if r == PLOT_ROWS - 1 => "0.0 ",
            _ => "    ",
        };
        out.push_str(label);
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("    +");
    out.push_str(&"-".repeat(cols));
    out.push('\n');
    out.push_str(&format!(
        "     thread index 0..{max_tid} ({} threads sampled)\n",
        ranges.iter().filter(|r| r.samples > 0).count()
    ));
    out
}

/// Render the metric pane for a list of (label, metrics) rows — the
/// NUMA_MATCH / NUMA_MISMATCH / per-domain columns of Figure 3's lower
/// right pane.
pub fn render_metric_table(rows: &[(String, MetricSet)], domains: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<40} {:>12} {:>12} {:>10} {:>12}",
        "scope", "NUMA_MATCH", "NUMA_MISMATCH", "rem%", "rem.latency"
    ));
    for d in 0..domains {
        out.push_str(&format!(" {:>9}", format!("NODE{d}")));
    }
    out.push('\n');
    for (label, m) in rows {
        out.push_str(&format!(
            "{:<40} {:>12} {:>12} {:>9.1}% {:>12}",
            truncate(label, 40),
            m.m_local,
            m.m_remote,
            m.remote_fraction() * 100.0,
            m.latency_remote,
        ));
        for d in 0..domains {
            out.push_str(&format!(
                " {:>9}",
                m.per_domain.get(d).copied().unwrap_or(0)
            ));
        }
        out.push('\n');
    }
    out
}

/// Shorten `s` to at most `n` *characters*, keeping the tail (the
/// innermost frames of a call path are the informative part). Counts
/// and cuts by `char`, never by byte: labels are user-controlled symbol
/// names and may be multi-byte UTF-8.
fn truncate(s: &str, n: usize) -> String {
    let chars = s.chars().count();
    if chars <= n {
        s.to_string()
    } else {
        let keep = n.saturating_sub(1);
        let start = s
            .char_indices()
            .nth(chars - keep)
            .map(|(i, _)| i)
            .unwrap_or(0);
        format!("…{}", &s[start..])
    }
}

/// Render the merged calling-context tree with NUMA metrics — the
/// code-centric pane (the paper's future-work item #4: a better view for
/// code- and data-centric measurements). Nodes are shown top-down with
/// inclusive remote cost; subtrees below `min_share` of the program total
/// are elided.
pub fn render_cct(analyzer: &Analyzer, min_share: f64) -> String {
    let cct: &Cct = analyzer.merged_cct();
    let profile = analyzer.profile();
    // Inclusive metrics per node, folded once.
    let n = cct.len();
    let mut inclusive: Vec<MetricSet> = cct.nodes().iter().map(|nd| nd.metrics.clone()).collect();
    for i in (1..n).rev() {
        let parent = cct.nodes()[i].parent as usize;
        let child = inclusive[i].clone();
        inclusive[parent].merge(&child);
    }
    let weight = |m: &MetricSet| {
        if profile.capabilities.latency {
            m.latency_remote
        } else {
            m.m_remote
        }
    };
    let total = weight(&inclusive[ROOT as usize]).max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<56} {:>9} {:>12} {:>12}\n",
        "calling context (inclusive remote cost)", "share", "NUMA_MATCH", "NUMA_MISMATCH"
    ));
    out.push_str(&"-".repeat(92));
    out.push('\n');
    render_cct_node(
        cct, &inclusive, profile, ROOT, 0, total, min_share, weight, &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn render_cct_node(
    cct: &Cct,
    inclusive: &[MetricSet],
    profile: &numa_profiler::NumaProfile,
    id: NodeId,
    depth: usize,
    total: u64,
    min_share: f64,
    weight: impl Fn(&MetricSet) -> u64 + Copy,
    out: &mut String,
) {
    let m = &inclusive[id as usize];
    let share = weight(m) as f64 / total as f64;
    if share < min_share && id != ROOT {
        return;
    }
    let label = match cct.node(id).key {
        NodeKey::Root => "<program>".to_string(),
        NodeKey::Frame(f) => profile.func_name(f.func).to_string(),
        NodeKey::Line(l) => format!("line {l}"),
    };
    out.push_str(&format!(
        "{:<56} {:>8.1}% {:>12} {:>12}\n",
        format!("{}{}", "  ".repeat(depth), label),
        share * 100.0,
        m.m_local,
        m.m_remote
    ));
    // Children ordered by descending inclusive weight.
    let mut kids = cct.children(id);
    kids.sort_by_key(|&k| std::cmp::Reverse(weight(&inclusive[k as usize])));
    for k in kids {
        render_cct_node(
            cct,
            inclusive,
            profile,
            k,
            depth + 1,
            total,
            min_share,
            weight,
            out,
        );
    }
}

/// Render per-thread remote-fraction timelines from trace-enabled
/// profiles (the paper's future-work item #3).
pub fn render_trace_timelines(analyzer: &Analyzer, width: usize) -> String {
    // The engine's index knows which threads carry traces; no per-query
    // scan over `threads`.
    let traces: Vec<(usize, &numa_profiler::Trace)> = analyzer.traced_threads();
    if traces.is_empty() {
        return "(no trace data — enable ProfilerConfig::with_trace)\n".to_string();
    }
    numa_profiler::render_timeline(&traces, width)
}

/// Export one variable's view as JSON, for external plotting.
pub fn export_address_view(analyzer: &Analyzer, var: VarId, scope: RangeScope) -> String {
    let variable = analyzer
        .profile()
        .var(var)
        .map(|rec| rec.name.as_str())
        .unwrap_or("<unknown>");
    let scope_name = match scope {
        RangeScope::Program => "program",
        RangeScope::Region(f) => analyzer.profile().func_name(f),
    };
    let threads = analyzer.thread_ranges(var, scope);
    let export = crate::json::address_view(variable, scope_name, &threads);
    serde_json::to_string_pretty(&export).expect("export prints")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(n: usize) -> Vec<ThreadRange> {
        (0..n)
            .map(|i| ThreadRange {
                tid: i,
                min: i as f64 / n as f64,
                max: (i + 1) as f64 / n as f64,
                samples: 10,
                latency: 100,
            })
            .collect()
    }

    #[test]
    fn staircase_renders_diagonal() {
        let s = render_ranges(&staircase(8), "z");
        assert!(s.contains("█"));
        let lines: Vec<&str> = s.lines().collect();
        // Top data row contains the last thread's block; bottom row the
        // first thread's.
        let top = lines[1];
        let bottom = lines[PLOT_ROWS];
        assert!(top.ends_with('█'), "top row: {top:?}");
        assert!(bottom.contains("|█"), "bottom row: {bottom:?}");
    }

    #[test]
    fn empty_view_says_so() {
        let s = render_ranges(&[], "nothing");
        assert!(s.contains("no samples"));
    }

    #[test]
    fn full_range_fills_columns() {
        let ranges: Vec<ThreadRange> = (0..4)
            .map(|i| ThreadRange {
                tid: i,
                min: 0.0,
                max: 1.0,
                samples: 1,
                latency: 0,
            })
            .collect();
        let s = render_ranges(&ranges, "buffer");
        for line in s.lines().skip(1).take(PLOT_ROWS) {
            assert!(line.contains("████"), "row not filled: {line:?}");
        }
    }

    /// Regression: `truncate` used to slice at a byte offset and
    /// panicked on multi-byte UTF-8 symbol names.
    #[test]
    fn truncate_is_char_boundary_safe() {
        // 50 snowmen: 50 chars, 150 bytes. Byte slicing at len-39 would
        // split a code point and panic.
        let snowmen: String = "☃".repeat(50);
        let t = truncate(&snowmen, 40);
        assert!(t.starts_with('…'));
        assert_eq!(t.chars().count(), 40);
        assert!(t.ends_with('☃'));
        // Mixed-width path names keep their tail.
        let path = format!("main > {} > kernel", "región_π".repeat(8));
        let t = truncate(&path, 40);
        assert_eq!(t.chars().count(), 40);
        assert!(t.ends_with("kernel"));
        // Short strings (by chars, even if long in bytes) are untouched.
        let short = "πρöfïlé";
        assert_eq!(truncate(short, 40), short);
        assert_eq!(truncate("", 4), "");
    }

    /// Regression: the metric pane must render rows with non-ASCII
    /// labels longer than the column width (this panicked before the
    /// char-boundary fix).
    #[test]
    fn metric_table_renders_non_ascii_labels() {
        let mut m = MetricSet::new(1);
        m.m_local = 1;
        let label = "αβγδε_ζηθικ".repeat(6); // 66 chars, multi-byte
        let s = render_metric_table(&[(label, m)], 1);
        assert!(s.contains('…'));
        assert!(s.contains("ζηθικ"));
    }

    #[test]
    fn metric_table_shows_match_and_mismatch() {
        let mut m = MetricSet::new(2);
        m.m_local = 3;
        m.m_remote = 21;
        m.per_domain = vec![24, 0];
        let s = render_metric_table(&[("z".to_string(), m)], 2);
        assert!(s.contains("NUMA_MATCH"));
        assert!(s.contains("NUMA_MISMATCH"));
        assert!(s.contains("NODE0"));
        assert!(s.contains("87.5%")); // 21/24
    }
}
