//! Cross-run merging: one aggregate view over every profile in the
//! store.
//!
//! Merging *across runs* differs from the per-run thread merge in
//! `numa_analysis::Analyzer` in two ways. First, `VarId`s are not stable
//! across runs (allocation order assigns them), so variables are keyed
//! by source name. Second, heap addresses are not comparable
//! across runs, so accessed ranges are normalized to each run's variable
//! extent *before* the [min,max] reduction (§7.2) is applied across
//! runs.
//!
//! Each run's contribution is read straight off its
//! [`Engine`](numa_engine::Engine) index — program totals, per-variable
//! columns, and merged Program-scope ranges are precomputed there, so
//! summarizing a run never re-walks its threads. The cross-run merge
//! is one pass over the runs into one pool.

use crate::StoredProfile;
use numa_profiler::{MetricSet, RangeScope, RangeStat};
use numa_sim::VarKind;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One variable's metrics pooled across every run that sampled it.
#[derive(Clone, Debug)]
pub struct VarAggregate {
    pub name: String,
    pub kind: VarKind,
    /// Runs in which this variable appeared with at least one sample.
    pub runs_seen: usize,
    /// Largest extent the variable had in any run (re-allocations may
    /// differ in size between runs).
    pub bytes_max: u64,
    /// Metrics accumulated over all runs.
    pub metrics: MetricSet,
    /// Normalized accessed range pooled across runs under the \[min,max\]
    /// reduction: 0.0 = first byte of the variable, 1.0 = last. `None`
    /// when no run recorded address-centric data for the variable.
    pub coverage: Option<(f64, f64)>,
}

/// The cross-run aggregate artifact.
#[derive(Clone, Debug)]
pub struct CrossRunAggregate {
    pub runs: usize,
    pub domains: usize,
    /// Program metrics pooled over all runs.
    pub totals: MetricSet,
    /// Pooled `lpi_NUMA` over the whole set (Eq. 2 applied to pooled
    /// counters; `None` when no run captured latency).
    pub lpi_numa: Option<f64>,
    /// Per-variable pools, hottest first (remote latency, then remote
    /// samples, then name — deterministic across runs of the merge).
    pub vars: Vec<VarAggregate>,
}

/// Merge every profile in the set — the store's batch analysis step:
/// one pass over the runs into one pool. Each run's contribution is
/// read off its engine index — totals, per-variable columns, and
/// Program-scope coverage are all precomputed, so no thread is walked.
/// Variables whose record is missing from the profile's table
/// (malformed input) are skipped, mirroring the analyzer's
/// graceful-degradation contract.
pub fn aggregate(profiles: &[Arc<StoredProfile>]) -> CrossRunAggregate {
    let mut totals = MetricSet::new(0);
    let mut domains = 0;
    let mut pool: HashMap<String, VarAggregate> = HashMap::new();
    for stored in profiles {
        let engine = stored.engine();
        let p = engine.profile();
        totals.merge(engine.totals());
        domains = domains.max(p.domains);
        // Names this run has contributed: a name the run carries twice
        // counts as one run, keeps its first record's kind and extent,
        // and pools both records' metrics.
        let mut in_run: HashSet<&str> = HashSet::new();
        for (v, m) in engine.var_columns() {
            let Some(rec) = p.var(*v) else { continue };
            let first = in_run.insert(&rec.name);
            match pool.get_mut(&rec.name) {
                Some(acc) => {
                    acc.metrics.merge(m);
                    if first {
                        acc.runs_seen += 1;
                        acc.bytes_max = acc.bytes_max.max(rec.bytes);
                    }
                }
                None => {
                    pool.insert(
                        rec.name.clone(),
                        VarAggregate {
                            name: rec.name.clone(),
                            kind: rec.kind,
                            runs_seen: 1,
                            bytes_max: rec.bytes,
                            metrics: m.clone(),
                            coverage: None,
                        },
                    );
                }
            }
        }
        // Program-scope accessed range per variable, [min,max]-reduced
        // over threads and bins by the index (addresses are comparable
        // within one run), then normalized to the run's extent.
        for rec in &p.vars {
            if !in_run.contains(rec.name.as_str()) {
                continue;
            }
            let merged = engine
                .ranges_of(rec.id)
                .iter()
                .filter(|(k, _)| k.scope == RangeScope::Program)
                .fold(None::<RangeStat>, |acc, (_, s)| match acc {
                    Some(mut a) => {
                        a.merge(s);
                        Some(a)
                    }
                    None => Some(*s),
                });
            let Some(s) = merged else { continue };
            let extent = rec.bytes.max(1) as f64;
            let lo = s.min_addr.saturating_sub(rec.addr) as f64 / extent;
            let hi = s.max_addr.saturating_sub(rec.addr) as f64 / extent;
            if let Some(acc) = pool.get_mut(&rec.name) {
                acc.coverage = Some(match acc.coverage {
                    Some((l, h)) => (l.min(lo), h.max(hi)),
                    None => (lo, hi),
                });
            }
        }
    }
    let mut vars: Vec<VarAggregate> = pool.into_values().collect();
    vars.sort_by(|a, b| {
        (b.metrics.latency_remote, b.metrics.m_remote)
            .cmp(&(a.metrics.latency_remote, a.metrics.m_remote))
            .then_with(|| a.name.cmp(&b.name))
    });
    let lpi_numa = totals.lpi_numa();
    CrossRunAggregate {
        runs: profiles.len(),
        domains,
        totals,
        lpi_numa,
        vars,
    }
}

impl CrossRunAggregate {
    /// Textual rendering — the viewer pane for the pooled set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cross-run aggregate: {} run(s), {} variable(s), {} domain(s)\n",
            self.runs,
            self.vars.len(),
            self.domains
        ));
        match self.lpi_numa {
            Some(lpi) => out.push_str(&format!("pooled lpi_NUMA = {lpi:.3} cycles/instruction\n")),
            None => out.push_str("pooled lpi_NUMA unavailable (no latency capability)\n"),
        }
        out.push_str(&format!(
            "pooled remote fraction = {:.1}%; domain imbalance ×{:.2}\n\n",
            self.totals.remote_fraction() * 100.0,
            self.totals.domain_imbalance()
        ));
        out.push_str(&format!(
            "{:<24} {:>6} {:>5} {:>12} {:>12} {:>8}  {}\n",
            "variable", "kind", "runs", "NUMA_MATCH", "NUMA_MISMATCH", "rem.lat", "coverage"
        ));
        for v in &self.vars {
            let coverage = match v.coverage {
                Some((lo, hi)) => format!("[{lo:.2}, {hi:.2}]"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<24} {:>6} {:>5} {:>12} {:>12} {:>8}  {}\n",
                v.name,
                v.kind.name(),
                v.runs_seen,
                v.metrics.m_local,
                v.metrics.m_remote,
                v.metrics.latency_remote,
                coverage
            ));
        }
        out
    }

    /// The `n` hottest variables with their cross-run remote share.
    pub fn top_variables(&self, n: usize) -> String {
        let weight = |m: &MetricSet| {
            if m.latency_remote > 0 {
                m.latency_remote
            } else {
                m.m_remote
            }
        };
        let total: u64 = self.vars.iter().map(|v| weight(&v.metrics)).sum();
        let total = total.max(1);
        let mut out = format!("top {} variables across {} run(s)\n", n, self.runs);
        for (i, v) in self.vars.iter().take(n).enumerate() {
            out.push_str(&format!(
                "#{} {:<24} [{:<6}] {:>5.1}% of pooled remote cost ({} run(s))\n",
                i + 1,
                v.name,
                v.kind.name(),
                weight(&v.metrics) as f64 / total as f64 * 100.0,
                v.runs_seen
            ));
        }
        out
    }
}
