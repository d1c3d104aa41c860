//! [`Engine`]: an `Arc`-shared profile plus its prebuilt
//! [`ProfileIndex`], answering every attribution query without cloning
//! or re-scanning the profile.

use crate::index::ProfileIndex;
use numa_machine::DomainId;
use numa_profiler::{
    Cct, FirstTouchRecord, MetricSet, NumaProfile, RangeKey, RangeScope, RangeStat, Trace, VarId,
};
use numa_sim::FuncId;
use std::sync::Arc;

/// Per-thread normalized \[min,max\] accessed range of one variable under
/// one scope — a column of the paper's address-centric view (Figure 3's
/// upper-right pane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThreadRange {
    pub tid: usize,
    /// Normalized to the variable extent: 0.0 = first byte, 1.0 = last.
    pub min: f64,
    pub max: f64,
    pub samples: u64,
    pub latency: u64,
}

/// The shared query engine over one profile.
///
/// Construction builds the [`ProfileIndex`] once (cost: one pass over
/// the threads plus a sort); afterwards the engine is immutable
/// and freely shareable across threads behind an `Arc` — the store
/// caches one per profile and the daemon serves every analysis request
/// from it with zero profile copies.
pub struct Engine {
    profile: Arc<NumaProfile>,
    index: ProfileIndex,
}

impl Engine {
    pub fn new(profile: Arc<NumaProfile>) -> Engine {
        let index = ProfileIndex::build(&profile);
        Engine { profile, index }
    }

    pub fn profile(&self) -> &NumaProfile {
        &self.profile
    }

    pub fn index(&self) -> &ProfileIndex {
        &self.index
    }

    /// Program-wide merged metrics.
    pub fn totals(&self) -> &MetricSet {
        self.index.totals()
    }

    /// Absolute instructions retired over all threads (Eq. 3's `I`).
    pub fn total_instructions(&self) -> u64 {
        self.index.instructions()
    }

    /// Absolute eligible NUMA events over all threads (Eq. 3's
    /// `E_NUMA`).
    pub fn total_numa_events(&self) -> u64 {
        self.index.numa_events()
    }

    /// Merged metrics of one variable; `None` if it was never sampled.
    pub fn var_metrics(&self, var: VarId) -> Option<&MetricSet> {
        self.index.var_metrics(var)
    }

    /// Sorted (by `VarId`) per-variable merged metric columns.
    pub fn var_columns(&self) -> &[(VarId, MetricSet)] {
        self.index.var_columns()
    }

    /// Merged stat of one exact range key.
    pub fn merged_range(&self, key: &RangeKey) -> Option<&RangeStat> {
        self.index.merged_range(key)
    }

    /// All-thread merged ranges of one variable across scopes and bins.
    pub fn ranges_of(&self, var: VarId) -> &[(RangeKey, RangeStat)] {
        self.index.ranges_of(var)
    }

    /// Per-thread normalized \[min,max\] ranges of `var` under `scope`,
    /// merged over each thread's *hot* bins (§5.2). A bin is hot for a
    /// thread if it holds at least `hot_bin_threshold` of the thread's
    /// mean per-bin weight (floor: 2 samples). Unknown variables yield
    /// an empty vector.
    pub fn thread_ranges(
        &self,
        var: VarId,
        scope: RangeScope,
        hot_bin_threshold: f64,
    ) -> Vec<ThreadRange> {
        let Some(rec) = self.profile.var(var) else {
            return Vec::new();
        };
        let extent = rec.bytes.max(1) as f64;
        let rows = self.index.thread_rows(var, scope);
        let mut out = Vec::new();
        let mut i = 0;
        while i < rows.len() {
            let mut j = i;
            while j < rows.len() && rows[j].thread_idx == rows[i].thread_idx {
                j += 1;
            }
            let group = &rows[i..j];
            let thread_total: u64 = group.iter().map(|r| r.stat.count).sum();
            if thread_total > 0 {
                let mean = thread_total as f64 / group.len() as f64;
                let cut = (hot_bin_threshold * mean).max(2.0);
                let mut merged: Option<RangeStat> = None;
                for r in group {
                    if r.stat.count as f64 >= cut {
                        match &mut merged {
                            Some(acc) => acc.merge(&r.stat),
                            None => merged = Some(r.stat),
                        }
                    }
                }
                if let Some(s) = merged {
                    let tid = self
                        .profile
                        .threads
                        .get(rows[i].thread_idx as usize)
                        .map_or(0, |t| t.tid);
                    out.push(ThreadRange {
                        tid,
                        // Saturate: a corrupted range whose addresses
                        // fall below the variable's base must not wrap
                        // to huge offsets.
                        min: s.min_addr.saturating_sub(rec.addr) as f64 / extent,
                        max: s.max_addr.saturating_sub(rec.addr) as f64 / extent,
                        samples: s.count,
                        latency: s.latency,
                    });
                }
            }
            i = j;
        }
        // Rows are grouped by thread position; present by tid. The sort
        // is stable, so threads sharing a tid keep position order.
        out.sort_by_key(|r| r.tid);
        out
    }

    /// Parallel regions in which `var` was sampled, with each region's
    /// share of the variable's cost (NUMA latency if available, else
    /// samples), descending. Unknown variables yield an empty vector.
    pub fn var_regions(&self, var: VarId) -> Vec<(FuncId, f64)> {
        let use_latency = self.profile.capabilities.latency;
        let mut program_total = 0u64;
        let mut per_region: Vec<(FuncId, u64)> = Vec::new();
        for (k, s) in self.index.ranges_of(var) {
            let w = if use_latency {
                s.latency_remote
            } else {
                s.count
            };
            match k.scope {
                RangeScope::Program => program_total += w,
                RangeScope::Region(r) => match per_region.iter_mut().find(|(f, _)| *f == r) {
                    // Bins of one region are adjacent in the sorted
                    // slice, so this inner scan touches at most the
                    // region count — not the range table.
                    Some((_, acc)) => *acc += w,
                    None => per_region.push((r, w)),
                },
            }
        }
        if program_total == 0 {
            return Vec::new();
        }
        let mut out: Vec<(FuncId, f64)> = per_region
            .into_iter()
            .map(|(r, w)| (r, w as f64 / program_total as f64))
            .collect();
        // total_cmp: shares are finite here, but a NaN (degenerate
        // profile) must not panic the sort.
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }

    /// First-touch records of one variable, in record order.
    pub fn first_touches(&self, var: VarId) -> impl Iterator<Item = &FirstTouchRecord> {
        self.index
            .first_touch_indices(var)
            .iter()
            .filter_map(|&i| self.profile.first_touches.get(i as usize))
    }

    /// The merged all-thread calling context tree (prebuilt; borrow, do
    /// not rebuild).
    pub fn merged_cct(&self) -> &Cct {
        self.index.merged_cct()
    }

    /// `(tid, trace)` of every thread that recorded a trace.
    pub fn traced_threads(&self) -> Vec<(usize, &Trace)> {
        self.index
            .traced_thread_indices()
            .iter()
            .filter_map(|&i| self.profile.threads.get(i as usize))
            .map(|t| (t.tid, &t.trace))
            .collect()
    }

    /// Every region sampled as an address-centric scope, ascending.
    pub fn sampled_regions(&self) -> &[FuncId] {
        self.index.sampled_regions()
    }

    /// Interned lookup: first variable with this source name.
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        self.index.var_named(name)
    }

    /// Interned lookup: first function with this name.
    pub fn func_named(&self, name: &str) -> Option<FuncId> {
        self.index.func_named(name)
    }

    /// Domain-specific first-touch listing used by the analyzer: (tid,
    /// domain, rendered call path).
    pub fn first_touch_sites(&self, var: VarId) -> Vec<(usize, DomainId, String)> {
        self.first_touches(var)
            .map(|ft| {
                let path = ft
                    .path
                    .iter()
                    .map(|f| self.profile.func_name(f.func).to_string())
                    .collect::<Vec<_>>()
                    .join(" > ");
                (ft.tid, ft.domain, path)
            })
            .collect()
    }
}
