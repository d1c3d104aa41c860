//! The pre-engine scan paths, kept verbatim as the equivalence oracle.
//!
//! Every function here answers a query by walking the raw profile the
//! way the analysis layer did before the indexed engine existed. They
//! exist for one caller: the proptest equivalence suite
//! (`tests/equivalence.rs`), which proves every engine query
//! byte-matches the scan answer on random profiles. Treat it as frozen
//! reference code.

use numa_engine::ThreadRange;
use numa_machine::DomainId;
use numa_profiler::{Cct, MetricSet, NumaProfile, RangeKey, RangeScope, RangeStat, VarId, ROOT};
use numa_sim::FuncId;
use std::collections::HashMap;

/// The old `Analyzer::new` merge: totals, per-var totals, and merged
/// ranges in one fold over threads.
pub type MergedTables = (
    MetricSet,
    HashMap<VarId, MetricSet>,
    HashMap<RangeKey, RangeStat>,
);

/// Merge all thread profiles (the §7.2 reduction) by scanning.
pub fn merge_threads(profile: &NumaProfile) -> MergedTables {
    let domains = profile.domains;
    profile
        .threads
        .iter()
        .map(|t| {
            let mut vt: HashMap<VarId, MetricSet> = HashMap::new();
            for (v, m) in &t.var_metrics {
                vt.entry(*v)
                    .or_insert_with(|| MetricSet::new(domains))
                    .merge(m);
            }
            let mut mr: HashMap<RangeKey, RangeStat> = HashMap::new();
            for (k, s) in &t.ranges {
                mr.entry(*k).and_modify(|acc| acc.merge(s)).or_insert(*s);
            }
            (t.totals.clone(), vt, mr)
        })
        .fold(
            (MetricSet::new(domains), HashMap::new(), HashMap::new()),
            |(mut t1, mut v1, mut r1), (t2, v2, r2)| {
                t1.merge(&t2);
                for (k, m) in v2 {
                    v1.entry(k)
                        .or_insert_with(|| MetricSet::new(domains))
                        .merge(&m);
                }
                for (k, s) in r2 {
                    r1.entry(k).and_modify(|acc| acc.merge(&s)).or_insert(s);
                }
                (t1, v1, r1)
            },
        )
}

/// Merged metrics of one variable, recomputed from the raw threads
/// (zeroed when never sampled — the old `Analyzer::var_metrics`
/// contract).
pub fn var_metrics(profile: &NumaProfile, var: VarId) -> MetricSet {
    let mut out = MetricSet::new(profile.domains);
    for t in &profile.threads {
        for (v, m) in &t.var_metrics {
            if *v == var {
                out.merge(m);
            }
        }
    }
    out
}

/// The old `Analyzer::thread_ranges_with_threshold` scan.
pub fn thread_ranges(
    profile: &NumaProfile,
    var: VarId,
    scope: RangeScope,
    hot_bin_threshold: f64,
) -> Vec<ThreadRange> {
    let Some(rec) = profile.var(var) else {
        return Vec::new();
    };
    let extent = rec.bytes.max(1) as f64;
    let mut out = Vec::new();
    for t in &profile.threads {
        let mut thread_total = 0u64;
        let mut bin_weight: HashMap<u16, u64> = HashMap::new();
        for (k, s) in &t.ranges {
            if k.var == var && k.scope == scope {
                *bin_weight.entry(k.bin).or_insert(0) += s.count;
                thread_total += s.count;
            }
        }
        if thread_total == 0 {
            continue;
        }
        let mean = thread_total as f64 / bin_weight.len() as f64;
        let cut = (hot_bin_threshold * mean).max(2.0);
        let hot = |bin: u16| bin_weight[&bin] as f64 >= cut;
        let mut merged: Option<RangeStat> = None;
        for (k, s) in &t.ranges {
            if k.var == var && k.scope == scope && hot(k.bin) {
                match &mut merged {
                    Some(acc) => acc.merge(s),
                    None => merged = Some(*s),
                }
            }
        }
        if let Some(s) = merged {
            out.push(ThreadRange {
                tid: t.tid,
                min: s.min_addr.saturating_sub(rec.addr) as f64 / extent,
                max: s.max_addr.saturating_sub(rec.addr) as f64 / extent,
                samples: s.count,
                latency: s.latency,
            });
        }
    }
    out.sort_by_key(|r| r.tid);
    out
}

/// The old `Analyzer::var_regions` scan over the whole merged-range
/// table (recomputed here, as a cold query against the profile would).
pub fn var_regions(profile: &NumaProfile, var: VarId) -> Vec<(FuncId, f64)> {
    let (_, _, merged_ranges) = merge_threads(profile);
    var_regions_from(profile, &merged_ranges, var)
}

/// The per-query part of the old `var_regions`, given prebuilt merged
/// ranges (what a warm pre-refactor analyzer paid per call).
pub fn var_regions_from(
    profile: &NumaProfile,
    merged_ranges: &HashMap<RangeKey, RangeStat>,
    var: VarId,
) -> Vec<(FuncId, f64)> {
    let mut per_region: HashMap<FuncId, u64> = HashMap::new();
    let mut program_total = 0u64;
    let use_latency = profile.capabilities.latency;
    for (k, s) in merged_ranges {
        if k.var != var {
            continue;
        }
        let w = if use_latency {
            s.latency_remote
        } else {
            s.count
        };
        match k.scope {
            RangeScope::Program => program_total += w,
            RangeScope::Region(r) => *per_region.entry(r).or_insert(0) += w,
        }
    }
    if program_total == 0 {
        return Vec::new();
    }
    let mut out: Vec<(FuncId, f64)> = per_region
        .into_iter()
        .map(|(r, w)| (r, w as f64 / program_total as f64))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    out
}

/// The old `Analyzer::first_touch_sites` filter scan.
pub fn first_touch_sites(profile: &NumaProfile, var: VarId) -> Vec<(usize, DomainId, String)> {
    profile
        .first_touches
        .iter()
        .filter(|ft| ft.var == var)
        .map(|ft| {
            let path = ft
                .path
                .iter()
                .map(|f| profile.func_name(f.func).to_string())
                .collect::<Vec<_>>()
                .join(" > ");
            (ft.tid, ft.domain, path)
        })
        .collect()
}

/// The old `Analyzer::merged_cct`: rebuild the merged tree per call.
pub fn merged_cct(profile: &NumaProfile) -> Cct {
    let mut merged = Cct::new(profile.domains);
    for t in &profile.threads {
        for id in 0..t.cct.len() as numa_profiler::NodeId {
            let node = t.cct.node(id);
            if node.metrics == MetricSet::new(profile.domains) {
                continue;
            }
            let path = t.cct.path_to(id);
            let mut cur = ROOT;
            for &pid in path.iter().skip(1) {
                cur = merged.child(cur, t.cct.node(pid).key);
            }
            merged.node_mut(cur).metrics.merge(&node.metrics);
        }
    }
    merged
}

/// The old linear name lookups (`NumaProfile::var_by_name` /
/// `func_names.iter().position`).
pub fn var_named(profile: &NumaProfile, name: &str) -> Option<VarId> {
    profile.var_by_name(name).map(|rec| rec.id)
}

pub fn func_named(profile: &NumaProfile, name: &str) -> Option<FuncId> {
    profile
        .func_names
        .iter()
        .position(|n| n == name)
        .map(|i| FuncId(i as u32))
}
