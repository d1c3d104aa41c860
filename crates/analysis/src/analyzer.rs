//! Profile merging and derived metrics (the `hpcprof` role, §7.2).
//!
//! Merging thread profiles accumulates metric values but applies a
//! *\[min,max\] reduction* to address ranges — the one customization the
//! paper needed in HPCToolkit's profile merger. Since the engine
//! refactor the merge itself lives in [`numa_engine`]: the analyzer is
//! a thin presentation wrapper over an [`Engine`] whose prebuilt
//! columnar index answers every query as an O(lookup) probe, and which
//! can be shared (`Arc`) between analyzers without cloning the profile.
//!
//! # Miss behavior
//!
//! Every accessor taking a [`VarId`] follows one contract for ids the
//! profile has no record of (malformed input, or a stale id from
//! another run): **a documented empty result, never a panic and never
//! an error**.
//!
//! * [`Analyzer::var_metrics`] → a zeroed [`MetricSet`];
//! * [`Analyzer::thread_ranges`] / [`Analyzer::thread_ranges_with_threshold`]
//!   → an empty `Vec`;
//! * [`Analyzer::var_regions`] → an empty `Vec`;
//! * [`Analyzer::first_touch_sites`] → an empty `Vec`;
//! * [`Analyzer::merged_range`] → `None` (the only `Option` accessor:
//!   it answers a point lookup, not a listing).
//!
//! Name lookups ([`Analyzer::var_named`], [`Analyzer::region_named`])
//! return `Option` because "not present" is the expected answer for
//! user-supplied names.

use numa_engine::Engine;
use numa_machine::DomainId;
use numa_profiler::{
    Cct, MetricSet, NumaProfile, RangeKey, RangeScope, RangeStat, VarId, LPI_THRESHOLD,
};
use numa_sampling::MechanismKind;
use numa_sim::{FuncId, VarKind};
use std::sync::Arc;

pub use numa_engine::ThreadRange;

/// Whole-program derived metrics (§4).
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    pub mechanism: MechanismKind,
    /// Program-wide NUMA latency per instruction. Eq. 2 for mechanisms
    /// whose samples carry latency and that sample the full instruction
    /// stream (IBS); Eq. 3 for event-sampling mechanisms with a hardware
    /// event counter (PEBS-LL); `None` when latency is unavailable (MRK,
    /// PEBS, DEAR, Soft-IBS).
    pub lpi_numa: Option<f64>,
    /// `M_r / (M_l + M_r)` over all samples.
    pub remote_fraction: f64,
    /// Sampled accesses per domain, across all threads.
    pub per_domain: Vec<u64>,
    /// Max-domain share over fair share (1.0 = balanced).
    pub domain_imbalance: f64,
    pub total_samples: u64,
    pub total_latency: u64,
    pub remote_latency: u64,
    /// Fraction of total sampled latency caused by remote accesses.
    pub remote_latency_fraction: f64,
    /// Share of remote latency (or of remote samples, without latency)
    /// attributed to heap / static / stack variables.
    pub heap_share: f64,
    pub static_share: f64,
    pub stack_share: f64,
}

impl ProgramAnalysis {
    /// The paper's verdict: is NUMA optimization worthwhile? (§4.2's 0.1
    /// cycles/instruction rule; without latency capability, fall back to a
    /// remote-fraction heuristic as the MRK case studies do.)
    pub fn warrants_optimization(&self) -> bool {
        match self.lpi_numa {
            Some(lpi) => lpi > LPI_THRESHOLD,
            None => self.remote_fraction > 0.5,
        }
    }
}

/// Merged (all-thread) view of one variable.
#[derive(Clone, Debug)]
pub struct VarAnalysis {
    pub var: VarId,
    pub name: String,
    pub kind: VarKind,
    pub bytes: u64,
    /// Metrics accumulated across threads.
    pub metrics: MetricSet,
    /// This variable's share of program remote latency (or of remote
    /// samples when latency is unavailable).
    pub remote_share: f64,
    /// Variable-level `lpi`: remote latency per sampled access (`None`
    /// without latency capability).
    pub lpi: Option<f64>,
    /// Allocation call path, rendered.
    pub alloc_path: String,
    pub alloc_tid: usize,
}

/// The offline analyzer: answers analysis queries through the shared
/// [`Engine`] (see the module docs for the miss-behavior contract).
pub struct Analyzer {
    engine: Arc<Engine>,
}

impl Analyzer {
    /// Analyze an owned profile (CLI entry point). The profile is moved
    /// behind an `Arc`, never cloned.
    pub fn new(profile: NumaProfile) -> Self {
        Self::from_arc(Arc::new(profile))
    }

    /// Analyze a shared profile without copying it.
    pub fn from_arc(profile: Arc<NumaProfile>) -> Self {
        Analyzer {
            engine: Arc::new(Engine::new(profile)),
        }
    }

    /// Wrap an already-built engine (the store's cached-analyzer path:
    /// index construction is paid once per stored profile, not per
    /// query).
    pub fn from_engine(engine: Arc<Engine>) -> Self {
        Analyzer { engine }
    }

    /// The underlying shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    pub fn profile(&self) -> &NumaProfile {
        self.engine.profile()
    }

    /// Program-wide merged metrics.
    pub fn totals(&self) -> &MetricSet {
        self.engine.totals()
    }

    /// Program-wide derived metrics.
    pub fn program(&self) -> ProgramAnalysis {
        let p = self.profile();
        let totals = self.engine.totals();
        let lpi = match p.mechanism {
            // Eq. 2: sampled remote latency over sampled instructions.
            MechanismKind::Ibs => totals.lpi_numa(),
            // Eq. 3: average latency per sampled event × absolute events /
            // absolute instructions (both from hardware counters).
            MechanismKind::PebsLl => {
                let events = self.engine.total_numa_events();
                let instr = self.engine.total_instructions();
                if totals.samples_mem == 0 || instr == 0 {
                    None
                } else {
                    let avg_remote_per_sample =
                        totals.latency_remote as f64 / totals.samples_mem as f64;
                    Some(avg_remote_per_sample * events as f64 / instr as f64)
                }
            }
            _ => None,
        };
        let shares = self.kind_shares();
        ProgramAnalysis {
            mechanism: p.mechanism,
            lpi_numa: lpi,
            remote_fraction: totals.remote_fraction(),
            per_domain: totals.per_domain.clone(),
            domain_imbalance: totals.domain_imbalance(),
            total_samples: totals.samples_mem,
            total_latency: totals.latency_total,
            remote_latency: totals.latency_remote,
            remote_latency_fraction: if totals.latency_total == 0 {
                0.0
            } else {
                totals.latency_remote as f64 / totals.latency_total as f64
            },
            heap_share: shares.0,
            static_share: shares.1,
            stack_share: shares.2,
        }
    }

    /// (heap, static, stack) shares of remote cost — a parallel fold
    /// over the per-variable metric columns.
    fn kind_shares(&self) -> (f64, f64, f64) {
        let (heap, stat, stack) = self.engine.fold_vars(
            || (0u64, 0u64, 0u64),
            |v, m| {
                let w = self.remote_weight(m);
                match self.profile().var(v).map(|rec| rec.kind) {
                    Some(VarKind::Heap) => (w, 0, 0),
                    Some(VarKind::Static) => (0, w, 0),
                    Some(VarKind::Stack) => (0, 0, w),
                    // Samples attributed to a variable the profile has no
                    // record for (malformed input): leave them unclassified.
                    None => (0, 0, 0),
                }
            },
            |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
        );
        let total = self.remote_weight(self.engine.totals());
        if total == 0 {
            (0.0, 0.0, 0.0)
        } else {
            (
                heap as f64 / total as f64,
                stat as f64 / total as f64,
                stack as f64 / total as f64,
            )
        }
    }

    /// Cost weight used for rankings: remote latency when available,
    /// remote sample count otherwise.
    fn remote_weight(&self, m: &MetricSet) -> u64 {
        if self.profile().capabilities.latency {
            m.latency_remote
        } else {
            m.m_remote
        }
    }

    /// Merged metrics of one variable (zeroed if never sampled or
    /// unknown — see the module docs).
    pub fn var_metrics(&self, var: VarId) -> MetricSet {
        self.engine
            .var_metrics(var)
            .cloned()
            .unwrap_or_else(|| MetricSet::new(self.profile().domains))
    }

    /// All sampled variables, ranked by remote cost (highest first) — the
    /// "hot variables" list the case studies walk down.
    pub fn hot_variables(&self) -> Vec<VarAnalysis> {
        let program_total = self.remote_weight(self.engine.totals()).max(1);
        let mut out: Vec<VarAnalysis> = self
            .engine
            .var_columns()
            .iter()
            .filter_map(|(v, m)| {
                // Skip metric entries whose variable record is missing
                // (malformed profile) rather than crash the ranking.
                let rec = self.profile().var(*v)?;
                Some(VarAnalysis {
                    var: *v,
                    name: rec.name.clone(),
                    kind: rec.kind,
                    bytes: rec.bytes,
                    metrics: m.clone(),
                    remote_share: self.remote_weight(m) as f64 / program_total as f64,
                    lpi: m.lpi_numa(),
                    alloc_path: rec
                        .alloc_path
                        .iter()
                        .map(|f| self.profile().func_name(f.func).to_string())
                        .collect::<Vec<_>>()
                        .join(" > "),
                    alloc_tid: rec.alloc_tid,
                })
            })
            .collect();
        out.sort_by(|a, b| {
            self.remote_weight(&b.metrics)
                .cmp(&self.remote_weight(&a.metrics))
                .then(a.var.cmp(&b.var))
        });
        out
    }

    /// Per-thread normalized \[min,max\] ranges of `var` under `scope`,
    /// merged over each thread's *hot* bins (§5.2's rule of using hot bins
    /// to represent the pattern). A bin is hot for a thread if it holds at
    /// least `hot_bin_threshold` of the thread's *mean* per-bin weight:
    /// relative-to-mean hotness keeps uniformly spread sweeps intact while
    /// discarding one-off stray samples that would otherwise stretch the
    /// \[min,max\] range. One entry per thread that sampled the variable;
    /// empty for unknown `var` (see the module docs).
    pub fn thread_ranges(&self, var: VarId, scope: RangeScope) -> Vec<ThreadRange> {
        self.thread_ranges_with_threshold(var, scope, 0.05)
    }

    /// See [`Analyzer::thread_ranges`]; an unknown `VarId` yields an
    /// empty `Vec` (module-docs contract), matching every other listing
    /// accessor.
    pub fn thread_ranges_with_threshold(
        &self,
        var: VarId,
        scope: RangeScope,
        hot_bin_threshold: f64,
    ) -> Vec<ThreadRange> {
        self.engine.thread_ranges(var, scope, hot_bin_threshold)
    }

    /// Parallel regions in which `var` was sampled, with each region's
    /// share of the variable's cost (latency if available, else samples).
    /// Sorted by descending share — the drill-down of Figures 4→5. Empty
    /// for unknown `var`.
    pub fn var_regions(&self, var: VarId) -> Vec<(FuncId, f64)> {
        self.engine.var_regions(var)
    }

    /// First-touch records for a variable, with rendered call paths —
    /// "identify where data pages are bound to NUMA domains" (§2). Empty
    /// for unknown `var`.
    pub fn first_touch_sites(&self, var: VarId) -> Vec<(usize, DomainId, String)> {
        self.engine.first_touch_sites(var)
    }

    /// Merged range stat for an explicit key (tests / views).
    pub fn merged_range(&self, key: &RangeKey) -> Option<&RangeStat> {
        self.engine.merged_range(key)
    }

    /// The merged all-thread calling context tree — the code-centric
    /// pane of the viewer. Prebuilt by the engine: borrowing it is free.
    pub fn merged_cct(&self) -> &Cct {
        self.engine.merged_cct()
    }

    /// Interned lookup of a variable by source name (first match, like
    /// `NumaProfile::var_by_name`).
    pub fn var_named(&self, name: &str) -> Option<VarId> {
        self.engine.var_named(name)
    }

    /// Interned lookup of a parallel region / function by name.
    pub fn region_named(&self, name: &str) -> Option<FuncId> {
        self.engine.func_named(name)
    }

    /// `(tid, trace)` of every thread that recorded a trace.
    pub fn traced_threads(&self) -> Vec<(usize, &numa_profiler::Trace)> {
        self.engine.traced_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{Machine, MachinePreset, PlacementPolicy};
    use numa_profiler::{finish_profile, NumaProfiler, ProfilerConfig};
    use numa_sampling::MechanismConfig;
    use numa_sim::Program;
    use std::rc::Rc;

    /// Master-init array, block-partitioned worker reads: the canonical
    /// first-touch bottleneck.
    /// Build the canonical first-touch bottleneck: master-initialized
    /// array (everything lands in domain 0), block-partitioned worker
    /// sweeps. `iterations` weights the compute phase like a real solver
    /// loop; `init` toggles the serial init (without it, placement is
    /// forced with an explicit bind, as when only the compute phase is
    /// profiled).
    fn profile_with(
        kind: MechanismKind,
        period: u64,
        iterations: usize,
        init: bool,
    ) -> NumaProfile {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(kind, period));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 8));
        let mut p = Program::new(machine, 8, profiler.clone());
        let size = 4u64 << 20;
        let mut base = 0;
        p.serial("main", |ctx| {
            let policy = if init {
                PlacementPolicy::FirstTouch
            } else {
                PlacementPolicy::Bind(numa_machine::DomainId(0))
            };
            base = ctx.alloc("z", size, policy);
            if init {
                ctx.store_range(base, size / 64, 64);
            }
        });
        for _ in 0..iterations {
            p.parallel("CalcForce._omp", |tid, ctx| {
                let chunk = size / 8;
                ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
            });
        }
        finish_profile(p, profiler)
    }

    fn bottleneck_profile(kind: MechanismKind, period: u64) -> NumaProfile {
        profile_with(kind, period, 2, true)
    }

    #[test]
    fn program_analysis_flags_the_bottleneck() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 16));
        let pa = a.program();
        // 7 of 8 threads are remote to domain 0.
        assert!(
            pa.remote_fraction > 0.5,
            "remote fraction {}",
            pa.remote_fraction
        );
        assert!(
            pa.domain_imbalance > 4.0,
            "imbalance {}",
            pa.domain_imbalance
        );
        assert!(pa.lpi_numa.is_some());
        assert!(pa.warrants_optimization());
        assert!(pa.heap_share > 0.9);
    }

    #[test]
    fn hot_variables_ranked_and_attributed() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 16));
        let hot = a.hot_variables();
        assert_eq!(hot.len(), 1);
        let z = &hot[0];
        assert_eq!(z.name, "z");
        assert!(z.remote_share > 0.9);
        assert!(z.metrics.m_remote > z.metrics.m_local);
        assert!(z.alloc_path.contains("main"));
    }

    #[test]
    fn thread_ranges_form_a_staircase() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 4));
        let z = a.var_named("z").unwrap();
        // Worker-region scope isolates the parallel read pattern.
        let region = a.region_named("CalcForce._omp").unwrap();
        let ranges = a.thread_ranges(z, RangeScope::Region(region));
        assert_eq!(ranges.len(), 8);
        for (i, r) in ranges.iter().enumerate() {
            // Thread i's range sits inside its 1/8th block.
            let lo = i as f64 / 8.0;
            let hi = (i + 1) as f64 / 8.0;
            assert!(
                r.min >= lo - 0.01 && r.max <= hi + 0.01,
                "thread {i}: {r:?}"
            );
        }
    }

    #[test]
    fn var_regions_rank_the_parallel_region_first() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 4));
        let z = a.var_named("z").unwrap();
        let regions = a.var_regions(z);
        assert!(!regions.is_empty());
        let (top, share) = regions[0];
        assert_eq!(a.profile().func_name(top), "CalcForce._omp");
        assert!(share > 0.0 && share <= 1.0);
    }

    #[test]
    fn first_touch_sites_name_the_init_code() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 64));
        let z = a.var_named("z").unwrap();
        let sites = a.first_touch_sites(z);
        assert_eq!(sites.len(), 1);
        let (tid, domain, path) = &sites[0];
        assert_eq!(*tid, 0);
        assert_eq!(*domain, DomainId(0));
        assert!(path.contains("main"));
    }

    #[test]
    fn lpi_none_without_latency_capability() {
        // No init phase: MRK sees only the compute phase's L3-miss events.
        let a = Analyzer::new(profile_with(MechanismKind::Mrk, 1, 2, false));
        let pa = a.program();
        assert_eq!(pa.lpi_numa, None);
        // Fallback verdict still fires on remote fraction.
        assert!(pa.warrants_optimization());
    }

    #[test]
    fn merged_totals_equal_sum_of_threads() {
        let profile = bottleneck_profile(MechanismKind::Ibs, 8);
        let by_hand: u64 = profile.threads.iter().map(|t| t.totals.samples_mem).sum();
        let a = Analyzer::new(profile);
        assert_eq!(a.totals().samples_mem, by_hand);
    }

    #[test]
    fn shared_engine_analyzers_see_one_profile() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 16));
        let b = Analyzer::from_engine(Arc::clone(a.engine()));
        assert!(std::ptr::eq(a.profile(), b.profile()));
        assert_eq!(a.totals(), b.totals());
    }

    /// Satellite: the one miss-behavior contract, exercised for every
    /// `VarId`-taking accessor with an id the profile cannot have.
    #[test]
    fn unknown_var_id_yields_documented_empty_results() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 16));
        let bogus = VarId(u32::MAX);
        assert_eq!(a.var_metrics(bogus), MetricSet::new(a.profile().domains));
        assert!(a.thread_ranges(bogus, RangeScope::Program).is_empty());
        assert!(a
            .thread_ranges_with_threshold(bogus, RangeScope::Program, 0.0)
            .is_empty());
        assert!(a
            .thread_ranges(bogus, RangeScope::Region(FuncId(0)))
            .is_empty());
        assert!(a.var_regions(bogus).is_empty());
        assert!(a.first_touch_sites(bogus).is_empty());
        assert_eq!(
            a.merged_range(&RangeKey {
                var: bogus,
                bin: 0,
                scope: RangeScope::Program
            }),
            None
        );
    }

    #[test]
    fn interned_lookups_match_linear_scans() {
        let a = Analyzer::new(bottleneck_profile(MechanismKind::Ibs, 16));
        let p = a.profile();
        assert_eq!(a.var_named("z"), p.var_by_name("z").map(|r| r.id));
        assert_eq!(a.var_named("nope"), None);
        assert_eq!(
            a.region_named("CalcForce._omp"),
            p.func_names
                .iter()
                .position(|n| n == "CalcForce._omp")
                .map(|i| FuncId(i as u32))
        );
        assert_eq!(a.region_named("nope"), None);
    }
}
