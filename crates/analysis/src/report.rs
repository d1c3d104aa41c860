//! The full analysis report: what an analyst gets from one profiled run —
//! program verdict, hot variables with patterns and recommendations,
//! first-touch sites, and per-region drill-downs.

use crate::analyzer::{Analyzer, ProgramAnalysis, VarAnalysis};
use crate::pattern::{classify, recommend, AccessPattern, Recommendation};
use crate::view;
use numa_profiler::{RangeScope, VarId, LPI_THRESHOLD};

/// Guidance for one variable.
#[derive(Clone, Debug)]
pub struct VarAdvice {
    pub var: VarId,
    pub name: String,
    pub summary: VarAnalysis,
    /// Whole-program access pattern.
    pub pattern: AccessPattern,
    /// The dominant parallel region (by cost share) and the pattern there,
    /// when the whole-program view is irregular or a region dominates —
    /// the Figure 4 → Figure 5 drill-down.
    pub dominant_region: Option<RegionAdvice>,
    /// Final recommendation after drill-down.
    pub recommendation: Recommendation,
    /// First-touch sites: (thread, domain, call path).
    pub first_touch_sites: Vec<(usize, String, String)>,
}

#[derive(Clone, Debug)]
pub struct RegionAdvice {
    pub region: String,
    /// Share of the variable's cost incurred in this region.
    pub share: f64,
    pub pattern: AccessPattern,
}

/// Complete report for one profile.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    pub machine: String,
    pub mechanism: String,
    pub program: ProgramAnalysis,
    pub advice: Vec<VarAdvice>,
}

/// How many hot variables the report analyzes in depth.
const TOP_N: usize = 10;

/// Minimum cost share for a region to drive the recommendation.
const DOMINANT_REGION_SHARE: f64 = 0.5;

/// Build the report.
pub fn analyze(analyzer: &Analyzer) -> AnalysisReport {
    let program = analyzer.program();
    let advice = analyzer
        .hot_variables()
        .into_iter()
        .take(TOP_N)
        .map(|summary| advise(analyzer, summary))
        .collect();
    AnalysisReport {
        machine: analyzer.profile().machine_name.clone(),
        mechanism: analyzer.profile().mechanism.name().to_string(),
        program,
        advice,
    }
}

fn advise(analyzer: &Analyzer, summary: VarAnalysis) -> VarAdvice {
    let var = summary.var;
    let program_ranges = analyzer.thread_ranges(var, RangeScope::Program);
    let pattern = classify(&program_ranges);

    // Drill into the dominant region when the whole-program view is
    // irregular, or when one region clearly dominates the variable's cost
    // (AMG: the relax region explains 74% of RAP_diag_data's latency and
    // shows a regular pattern the aggregate view hides).
    let regions = analyzer.var_regions(var);
    let dominant_region = regions
        .first()
        .filter(|(_, share)| *share >= DOMINANT_REGION_SHARE || pattern == AccessPattern::Irregular)
        .map(|&(region, share)| {
            let ranges = analyzer.thread_ranges(var, RangeScope::Region(region));
            RegionAdvice {
                region: analyzer.profile().func_name(region).to_string(),
                share,
                pattern: classify(&ranges),
            }
        });

    // Prefer the region pattern when it is regular and the region carries
    // a usable share of the cost.
    let decisive_pattern = match &dominant_region {
        Some(r)
            if r.pattern != AccessPattern::Irregular
                && (pattern == AccessPattern::Irregular || r.share >= DOMINANT_REGION_SHARE) =>
        {
            r.pattern
        }
        _ => pattern,
    };
    let recommendation = if !severity_warrants_action(analyzer, &summary) {
        Recommendation::None
    } else {
        recommend(decisive_pattern)
    };

    let first_touch_sites = analyzer
        .first_touch_sites(var)
        .into_iter()
        .map(|(tid, domain, path)| (tid, domain.to_string(), path))
        .collect();

    VarAdvice {
        var,
        name: summary.name.clone(),
        summary,
        pattern,
        dominant_region,
        recommendation,
        first_touch_sites,
    }
}

/// §4.2's severity gate, per variable: with latency capability, a variable
/// whose remote latency per sampled access is negligible is not worth
/// optimizing even if `M_r` is large (the cached-remote-data bias).
fn severity_warrants_action(_analyzer: &Analyzer, summary: &VarAnalysis) -> bool {
    match summary.lpi {
        Some(lpi) => lpi > LPI_THRESHOLD && summary.remote_share > 0.01,
        None => summary.metrics.remote_fraction() > 0.3 && summary.remote_share > 0.01,
    }
}

impl AnalysisReport {
    /// Render the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "NUMA analysis — {} on {} ({} sampling)\n",
            "profile", self.machine, self.mechanism
        ));
        out.push_str(&"=".repeat(72));
        out.push('\n');
        let p = &self.program;
        match p.lpi_numa {
            Some(lpi) => {
                out.push_str(&format!(
                    "lpi_NUMA = {:.3} cycles/instruction (threshold {:.1}): {}\n",
                    lpi,
                    LPI_THRESHOLD,
                    if p.warrants_optimization() {
                        "NUMA losses are significant — optimization warranted"
                    } else {
                        "NUMA losses are insignificant — optimization not worthwhile"
                    }
                ));
            }
            None => {
                out.push_str(&format!(
                    "lpi_NUMA unavailable ({} has no latency capability); remote fraction = {:.1}%\n",
                    self.mechanism,
                    p.remote_fraction * 100.0
                ));
            }
        }
        out.push_str(&format!(
            "remote accesses: {:.1}% of samples; remote latency: {:.1}% of total; \
             domain imbalance ×{:.1}\n",
            p.remote_fraction * 100.0,
            p.remote_latency_fraction * 100.0,
            p.domain_imbalance
        ));
        out.push_str(&format!(
            "remote cost by kind: heap {:.1}%, static {:.1}%, stack {:.1}%\n\n",
            p.heap_share * 100.0,
            p.static_share * 100.0,
            p.stack_share * 100.0
        ));

        for (i, a) in self.advice.iter().enumerate() {
            out.push_str(&format!(
                "#{} {} [{}] — {:.1}% of remote cost, M_r/M_l = {}\n",
                i + 1,
                a.name,
                a.summary.kind.name(),
                a.summary.remote_share * 100.0,
                ratio(a.summary.metrics.m_remote, a.summary.metrics.m_local),
            ));
            if let Some(lpi) = a.summary.lpi {
                out.push_str(&format!("    lpi = {lpi:.2} cycles/access\n"));
            }
            out.push_str(&format!(
                "    allocated by thread {} at: {}\n",
                a.summary.alloc_tid, a.summary.alloc_path
            ));
            out.push_str(&format!("    pattern: {}", a.pattern.name()));
            if let Some(r) = &a.dominant_region {
                out.push_str(&format!(
                    " (dominant region {} [{:.0}% of cost]: {})",
                    r.region,
                    r.share * 100.0,
                    r.pattern.name()
                ));
            }
            out.push('\n');
            out.push_str(&format!("    ⇒ {}\n", a.recommendation.describe()));
            for (tid, domain, path) in &a.first_touch_sites {
                out.push_str(&format!(
                    "    first touch by thread {tid} ({domain}) at: {path}\n"
                ));
            }
            out.push('\n');
        }
        out
    }

    /// [`AnalysisReport::render`] followed by the address-centric views
    /// of the top three variables, drawn from `analyzer` — the analyzer
    /// this report was built from. What [`full_text_report`] prints.
    pub fn render_full(&self, analyzer: &Analyzer) -> String {
        let mut out = self.render();
        for a in self.advice.iter().take(3) {
            out.push_str(&view::render_address_view(
                analyzer,
                a.var,
                RangeScope::Program,
                &format!("{} (whole program)", a.name),
            ));
            if let Some(r) = &a.dominant_region {
                if let Some(region_id) = analyzer.region_named(&r.region) {
                    out.push_str(&view::render_address_view(
                        analyzer,
                        a.var,
                        RangeScope::Region(region_id),
                        &format!("{} (region {})", a.name, r.region),
                    ));
                }
            }
            out.push('\n');
        }
        out
    }

    pub fn to_json(&self) -> String {
        crate::json::pretty(|w| crate::json::report(w, self))
    }
}

fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        if a == 0 {
            "0".to_string()
        } else {
            "∞".to_string()
        }
    } else {
        format!("{:.1}", a as f64 / b as f64)
    }
}

/// Convenience: full textual output for a profile — program verdict, hot
/// variables, and the address-centric views of the top variables.
pub fn full_text_report(analyzer: &Analyzer) -> String {
    analyze(analyzer).render_full(analyzer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{Machine, MachinePreset, PlacementPolicy};
    use numa_profiler::{finish_profile, NumaProfiler, ProfilerConfig};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::Program;
    use std::rc::Rc;

    fn blocked_profile() -> Analyzer {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 8));
        let mut p = Program::new(machine, 8, profiler.clone());
        let size = 4u64 << 20;
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("z", size, PlacementPolicy::FirstTouch);
            ctx.store_range(base, size / 64, 64);
        });
        for _ in 0..3 {
            p.parallel("compute._omp", |tid, ctx| {
                let chunk = size / 8;
                ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
            });
        }
        Analyzer::new(finish_profile(p, profiler))
    }

    #[test]
    fn report_recommends_blockwise_for_staircase() {
        let analyzer = blocked_profile();
        let report = analyze(&analyzer);
        assert!(report.program.warrants_optimization());
        let z = &report.advice[0];
        assert_eq!(z.name, "z");
        assert_eq!(z.recommendation, Recommendation::BlockWise);
        assert!(!z.first_touch_sites.is_empty());
        assert!(z.first_touch_sites[0].2.contains("main"));
    }

    #[test]
    fn rendered_report_contains_key_sections() {
        let analyzer = blocked_profile();
        let text = full_text_report(&analyzer);
        assert!(text.contains("lpi_NUMA"));
        assert!(text.contains("z [heap]"));
        assert!(text.contains("block-wise"));
        assert!(text.contains("address-centric view"));
        assert!(text.contains("first touch by thread 0"));
    }

    #[test]
    fn report_serializes_to_json() {
        let analyzer = blocked_profile();
        let report = analyze(&analyzer);
        let json = report.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["advice"][0]["name"], "z");
    }
}
