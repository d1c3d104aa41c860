//! The per-profile columnar index: every attribution artifact the
//! analysis layers query repeatedly, built once.
//!
//! Build cost is one pass over threads (the §7.2 merge with its
//! `[min,max]` range reduction) plus one sort of the flattened
//! per-thread range rows; afterwards every query is a hash probe, a
//! binary search, or a contiguous slice walk over exactly the rows it
//! needs.

use crate::intern::{Symbol, SymbolTable};
use numa_profiler::{Cct, MetricSet, NumaProfile, RangeKey, RangeScope, RangeStat, VarId, ROOT};
use numa_sim::FuncId;
use std::collections::HashMap;

/// One thread's merged stat for one (variable, scope, bin) cell —
/// duplicate cells within a thread are merged at build time.
#[derive(Clone, Copy, Debug)]
pub struct ThreadBinRow {
    /// Index into `profile.threads` (not the tid: malformed profiles may
    /// repeat tids, and per-thread hotness must stay per *thread*).
    pub thread_idx: u32,
    pub bin: u16,
    pub stat: RangeStat,
}

/// Scope ordering for the sorted range tables. `RangeScope` has no `Ord`;
/// Program sorts before every region.
fn scope_ord(scope: RangeScope) -> u64 {
    match scope {
        RangeScope::Program => 0,
        RangeScope::Region(f) => 1 + f.0 as u64,
    }
}

fn range_key_ord(k: &RangeKey) -> (u32, u64, u16) {
    (k.var.0, scope_ord(k.scope), k.bin)
}

/// The prebuilt index over one [`NumaProfile`].
pub struct ProfileIndex {
    /// Program-wide merged metrics.
    totals: MetricSet,
    /// Absolute instructions retired, summed over threads (Eq. 3's `I`).
    instructions: u64,
    /// Absolute eligible NUMA events, summed over threads (Eq. 3's
    /// `E_NUMA`).
    numa_events: u64,
    /// Per-variable merged metrics, sorted by `VarId`.
    vars: Vec<(VarId, MetricSet)>,
    /// All-thread merged ranges, sorted by (var, scope, bin).
    ranges: Vec<(RangeKey, RangeStat)>,
    /// Half-open span of each variable's rows in `ranges`.
    range_spans: HashMap<VarId, (u32, u32)>,
    /// Per-thread rows, sorted by (var, scope, thread_idx, bin).
    rows: Vec<ThreadBinRow>,
    /// Half-open span of each (var, scope)'s rows in `rows`.
    row_spans: HashMap<(VarId, RangeScope), (u32, u32)>,
    /// Indices into `profile.first_touches`, in record order.
    first_touch: HashMap<VarId, Vec<u32>>,
    /// Indices of threads carrying trace data.
    traced: Vec<u32>,
    /// Every `FuncId` that appears as a region scope, ascending.
    regions: Vec<FuncId>,
    /// The merged all-thread calling context tree.
    merged_cct: Cct,
    /// Interned names (funcs and vars share one table).
    symbols: SymbolTable,
    /// First variable / function carrying each name (mirrors the
    /// first-match contract of `NumaProfile::var_by_name`).
    var_by_name: HashMap<Symbol, VarId>,
    func_by_name: HashMap<Symbol, FuncId>,
}

impl ProfileIndex {
    /// Build the full index: one pass over the threads, then one pass
    /// over the merged data.
    pub fn build(profile: &NumaProfile) -> ProfileIndex {
        let domains = profile.domains;

        // The §7.2 merge: one pass over the threads into one set of
        // accumulators. Metric merges are counter sums and range merges
        // a [min,max] reduction, so thread order cannot change a result.
        let mut totals = MetricSet::new(domains);
        let (mut instructions, mut numa_events) = (0u64, 0u64);
        let mut var_map: HashMap<VarId, MetricSet> = HashMap::new();
        let mut merged: HashMap<RangeKey, RangeStat> = HashMap::new();
        for t in &profile.threads {
            totals.merge(&t.totals);
            instructions += t.instructions;
            numa_events += t.numa_events;
            for (v, m) in &t.var_metrics {
                var_map
                    .entry(*v)
                    .or_insert_with(|| MetricSet::new(domains))
                    .merge(m);
            }
            for (k, s) in &t.ranges {
                merged
                    .entry(*k)
                    .and_modify(|acc| acc.merge(s))
                    .or_insert(*s);
            }
        }

        // Data-centric column: sorted (VarId, MetricSet) pairs.
        let mut vars: Vec<(VarId, MetricSet)> = var_map.into_iter().collect();
        vars.sort_by_key(|(v, _)| *v);

        // Address-centric tables: merged ranges sorted by (var, scope,
        // bin) with per-variable spans.
        let mut ranges: Vec<(RangeKey, RangeStat)> = merged.into_iter().collect();
        ranges.sort_by_key(|(k, _)| range_key_ord(k));
        let mut range_spans: HashMap<VarId, (u32, u32)> = HashMap::new();
        for (i, (k, _)) in ranges.iter().enumerate() {
            let span = range_spans.entry(k.var).or_insert((i as u32, i as u32));
            span.1 = i as u32 + 1;
        }

        // Per-thread rows for the address-centric view: one cell per
        // (var, scope, thread, bin), duplicates within a thread merged.
        let mut rows: Vec<(RangeKey, ThreadBinRow)> = Vec::new();
        for (ti, t) in profile.threads.iter().enumerate() {
            for (k, s) in &t.ranges {
                rows.push((
                    *k,
                    ThreadBinRow {
                        thread_idx: ti as u32,
                        bin: k.bin,
                        stat: *s,
                    },
                ));
            }
        }
        rows.sort_by_key(|(k, r)| (k.var.0, scope_ord(k.scope), r.thread_idx, k.bin));
        let mut dedup: Vec<(RangeKey, ThreadBinRow)> = Vec::with_capacity(rows.len());
        for (k, r) in rows {
            match dedup.last_mut() {
                Some((pk, pr)) if *pk == k && pr.thread_idx == r.thread_idx => {
                    pr.stat.merge(&r.stat);
                }
                _ => dedup.push((k, r)),
            }
        }
        let mut row_spans: HashMap<(VarId, RangeScope), (u32, u32)> = HashMap::new();
        for (i, (k, _)) in dedup.iter().enumerate() {
            let span = row_spans
                .entry((k.var, k.scope))
                .or_insert((i as u32, i as u32));
            span.1 = i as u32 + 1;
        }
        let mut regions: Vec<FuncId> = row_spans
            .keys()
            .filter_map(|(_, scope)| match scope {
                RangeScope::Region(f) => Some(*f),
                RangeScope::Program => None,
            })
            .collect();
        regions.sort_by_key(|f| f.0);
        regions.dedup();
        let rows: Vec<ThreadBinRow> = dedup.into_iter().map(|(_, r)| r).collect();

        // First-touch sites, preserving record order per variable.
        let mut first_touch: HashMap<VarId, Vec<u32>> = HashMap::new();
        for (i, ft) in profile.first_touches.iter().enumerate() {
            first_touch.entry(ft.var).or_default().push(i as u32);
        }

        let traced: Vec<u32> = profile
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.trace.is_empty())
            .map(|(i, _)| i as u32)
            .collect();

        // Code-centric pane: merge every thread's CCT, accumulating
        // exclusive metrics on shared paths. Sequential and in thread
        // order so node ids are deterministic.
        let empty = MetricSet::new(domains);
        let mut merged_cct = Cct::new(domains);
        for t in &profile.threads {
            for id in 0..t.cct.len() as numa_profiler::NodeId {
                let node = t.cct.node(id);
                if node.metrics == empty {
                    continue; // nothing attributed exactly here
                }
                let path = t.cct.path_to(id);
                let mut cur = ROOT;
                for &pid in path.iter().skip(1) {
                    cur = merged_cct.child(cur, t.cct.node(pid).key);
                }
                merged_cct.node_mut(cur).metrics.merge(&node.metrics);
            }
        }

        // Interned name spaces. First occurrence wins for both maps,
        // mirroring the linear first-match scans they replace.
        let symbols = SymbolTable::new();
        let func_syms: Vec<Symbol> = profile
            .func_names
            .iter()
            .map(|n| symbols.intern(n))
            .collect();
        let mut func_by_name: HashMap<Symbol, FuncId> = HashMap::new();
        for (i, sym) in func_syms.iter().enumerate() {
            func_by_name.entry(*sym).or_insert(FuncId(i as u32));
        }
        let var_syms: Vec<Symbol> = profile
            .vars
            .iter()
            .map(|rec| symbols.intern(&rec.name))
            .collect();
        let mut var_by_name: HashMap<Symbol, VarId> = HashMap::new();
        for (sym, rec) in var_syms.iter().zip(&profile.vars) {
            // Store the record's own id (not the table position): the
            // first-match contract must return exactly what
            // `NumaProfile::var_by_name(..).id` would.
            var_by_name.entry(*sym).or_insert(rec.id);
        }

        ProfileIndex {
            totals,
            instructions,
            numa_events,
            vars,
            ranges,
            range_spans,
            rows,
            row_spans,
            first_touch,
            traced,
            regions,
            merged_cct,
            symbols,
            var_by_name,
            func_by_name,
        }
    }

    pub fn totals(&self) -> &MetricSet {
        &self.totals
    }

    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    pub fn numa_events(&self) -> u64 {
        self.numa_events
    }

    /// Sorted per-variable merged metrics.
    pub fn var_columns(&self) -> &[(VarId, MetricSet)] {
        &self.vars
    }

    /// Merged metrics of one variable (binary search).
    pub fn var_metrics(&self, var: VarId) -> Option<&MetricSet> {
        self.vars
            .binary_search_by_key(&var, |(v, _)| *v)
            .ok()
            .map(|i| &self.vars[i].1)
    }

    /// All-thread merged ranges of one variable, every scope and bin.
    pub fn ranges_of(&self, var: VarId) -> &[(RangeKey, RangeStat)] {
        match self.range_spans.get(&var) {
            Some(&(s, e)) => &self.ranges[s as usize..e as usize],
            None => &[],
        }
    }

    /// Merged stat of one exact range key (binary search).
    pub fn merged_range(&self, key: &RangeKey) -> Option<&RangeStat> {
        self.ranges
            .binary_search_by_key(&range_key_ord(key), |(k, _)| range_key_ord(k))
            .ok()
            .map(|i| &self.ranges[i].1)
    }

    /// Per-thread rows of one (variable, scope), grouped by thread.
    pub fn thread_rows(&self, var: VarId, scope: RangeScope) -> &[ThreadBinRow] {
        match self.row_spans.get(&(var, scope)) {
            Some(&(s, e)) => &self.rows[s as usize..e as usize],
            None => &[],
        }
    }

    /// Indices into `profile.first_touches` for one variable.
    pub fn first_touch_indices(&self, var: VarId) -> &[u32] {
        self.first_touch.get(&var).map_or(&[], Vec::as_slice)
    }

    /// Indices of threads with non-empty traces.
    pub fn traced_thread_indices(&self) -> &[u32] {
        &self.traced
    }

    /// Every region (`FuncId`) sampled as an address-centric scope.
    pub fn sampled_regions(&self) -> &[FuncId] {
        &self.regions
    }

    pub fn merged_cct(&self) -> &Cct {
        &self.merged_cct
    }

    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// First variable with this name, interned lookup.
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        self.symbols
            .lookup(name)
            .and_then(|sym| self.var_by_name.get(&sym).copied())
    }

    /// First function with this name, interned lookup.
    pub fn func_named(&self, name: &str) -> Option<FuncId> {
        self.symbols
            .lookup(name)
            .and_then(|sym| self.func_by_name.get(&sym).copied())
    }
}
