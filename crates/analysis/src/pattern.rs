//! Access-pattern classification and optimization guidance.
//!
//! The paper's analyst reads the address-centric view and decides which
//! distribution fixes a variable (block-wise for the LULESH staircase,
//! regrouping + parallel first touch for Blackscholes' overlapping
//! staircase, interleaving for variables every thread sweeps). This module
//! automates that read: it classifies the per-thread \[min,max\] pattern and
//! maps each class to the paper's corresponding optimization.

use crate::analyzer::ThreadRange;

/// Shape of a variable's per-thread access ranges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessPattern {
    /// Disjoint ascending blocks, one per thread (LULESH `z`, Figure 3):
    /// thread `i` touches roughly the `i`-th slice.
    Blocked,
    /// Ascending per-thread windows with heavy overlap (Blackscholes
    /// `buffer`, Figure 8; UMT `STime`): the layout interleaves logically
    /// private data.
    StaggeredOverlap,
    /// Every thread sweeps (nearly) the whole variable: no per-thread
    /// affinity exists.
    FullRange,
    /// Only one thread touches the variable.
    SingleThread,
    /// No recognizable structure at this scope (AMG's whole-program view of
    /// `RAP_diag_data`, Figure 4): drill into per-region views.
    Irregular,
}

/// The optimization the tool recommends (§2's strategies).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Recommendation {
    /// Distribute pages block-wise across domains at the first-touch site
    /// (co-location: maximizes local accesses, reduces contention).
    BlockWise,
    /// Regroup the layout (e.g. sections → array-of-structures) so each
    /// thread's data becomes contiguous, then distribute block-wise via a
    /// parallelized initialization (first touch by the owning thread).
    RegroupThenBlockWise,
    /// Interleave pages across domains to spread bandwidth (when threads
    /// share the whole variable, co-location is impossible; at least avoid
    /// centralized contention).
    Interleave,
    /// Bind the variable to the owning thread's domain.
    BindToOwner,
    /// Inspect dominant parallel regions and re-classify there.
    DrillDownPerRegion,
    /// No action needed.
    None,
}

/// Classification thresholds (exposed for the ablation benches).
#[derive(Clone, Copy, Debug)]
pub struct ClassifierConfig {
    /// Median normalized coverage above which the pattern is `FullRange`.
    pub full_range_coverage: f64,
    /// Fraction of adjacent thread pairs that must be ascending for a
    /// staircase.
    pub staircase_monotonicity: f64,
    /// Minimum mean spacing between consecutive threads' range *centers*,
    /// relative to the mean range width, for a staircase to count as
    /// `Blocked`. Disjoint blocks have spacing ≈ width (ratio ~1); heavily
    /// overlapped staggered windows have spacing ≪ width. Centers are
    /// robust where raw extent overlap is not: a blocked partition whose
    /// stencil reaches into the neighbour block still has block-spaced
    /// centers.
    pub blocked_min_center_spacing: f64,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            full_range_coverage: 0.9,
            staircase_monotonicity: 0.8,
            blocked_min_center_spacing: 0.4,
        }
    }
}

/// Classify per-thread ranges (normalized to the variable extent, sorted by
/// tid).
pub fn classify(ranges: &[ThreadRange]) -> AccessPattern {
    classify_with(ranges, &ClassifierConfig::default())
}

pub fn classify_with(ranges: &[ThreadRange], cfg: &ClassifierConfig) -> AccessPattern {
    let mut active: Vec<&ThreadRange> = ranges.iter().filter(|r| r.samples > 0).collect();
    match active.len() {
        0 => return AccessPattern::Irregular,
        1 => return AccessPattern::SingleThread,
        _ => {}
    }

    let mut coverages: Vec<f64> = active.iter().map(|r| r.max - r.min).collect();
    coverages.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_coverage = coverages[coverages.len() / 2];
    if median_coverage >= cfg.full_range_coverage {
        return AccessPattern::FullRange;
    }

    // Trim "broad" outlier threads — typically the master thread, whose
    // serial initialization sweep covers the whole variable (the paper's
    // Figure 3 shows exactly this: "other than thread 0, each thread
    // touches a subset of z"). A thread counts as an outlier if its
    // coverage is ≥4× the median; trimming only applies when such threads
    // are rare (≤10%) — if many threads range widely, that *is* the
    // pattern and must reach the staircase/irregular tests untouched.
    let outlier_cut = 4.0 * median_coverage;
    let outliers = active
        .iter()
        .filter(|r| r.max - r.min >= outlier_cut)
        .count();
    if outliers > 0 && outliers * 10 <= active.len() {
        active.retain(|r| r.max - r.min < outlier_cut);
    }
    if active.len() < 2 {
        return AccessPattern::SingleThread;
    }

    // Staircase test: are window starts (and ends) ascending with tid?
    let pairs = active.len() - 1;
    let ascending = active
        .windows(2)
        .filter(|w| w[0].min <= w[1].min + 1e-9 && w[0].max <= w[1].max + 1e-9)
        .count();
    let monotone = ascending as f64 / pairs as f64;
    if monotone >= cfg.staircase_monotonicity {
        let mean_width: f64 =
            active.iter().map(|r| r.max - r.min).sum::<f64>() / active.len() as f64;
        if mean_width <= 1e-12 {
            return AccessPattern::Blocked;
        }
        let mean_spacing: f64 = active
            .windows(2)
            .map(|w| {
                let c0 = (w[0].min + w[0].max) / 2.0;
                let c1 = (w[1].min + w[1].max) / 2.0;
                (c1 - c0).max(0.0)
            })
            .sum::<f64>()
            / pairs as f64;
        return if mean_spacing / mean_width >= cfg.blocked_min_center_spacing {
            AccessPattern::Blocked
        } else {
            AccessPattern::StaggeredOverlap
        };
    }

    AccessPattern::Irregular
}

/// Map a pattern to the paper's optimization strategy.
pub fn recommend(pattern: AccessPattern) -> Recommendation {
    match pattern {
        AccessPattern::Blocked => Recommendation::BlockWise,
        AccessPattern::StaggeredOverlap => Recommendation::RegroupThenBlockWise,
        AccessPattern::FullRange => Recommendation::Interleave,
        AccessPattern::SingleThread => Recommendation::BindToOwner,
        AccessPattern::Irregular => Recommendation::DrillDownPerRegion,
    }
}

impl AccessPattern {
    pub fn name(self) -> &'static str {
        match self {
            AccessPattern::Blocked => "blocked staircase",
            AccessPattern::StaggeredOverlap => "staggered overlapping",
            AccessPattern::FullRange => "full-range",
            AccessPattern::SingleThread => "single-thread",
            AccessPattern::Irregular => "irregular",
        }
    }
}

impl Recommendation {
    pub fn describe(self) -> &'static str {
        match self {
            Recommendation::BlockWise => {
                "distribute pages block-wise across NUMA domains at the first-touch site"
            }
            Recommendation::RegroupThenBlockWise => {
                "regroup the data layout so per-thread data is contiguous, then parallelize \
                 the initialization so each thread first-touches its own block"
            }
            Recommendation::Interleave => {
                "interleave pages across all NUMA domains to spread memory bandwidth"
            }
            Recommendation::BindToOwner => "bind the variable to its owning thread's domain",
            Recommendation::DrillDownPerRegion => {
                "no whole-program pattern; inspect the dominant parallel regions"
            }
            Recommendation::None => "no NUMA action needed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(tid: usize, min: f64, max: f64) -> ThreadRange {
        ThreadRange {
            tid,
            min,
            max,
            samples: 100,
            latency: 1000,
        }
    }

    #[test]
    fn blocked_staircase_detected() {
        // 8 disjoint blocks, like LULESH's z.
        let ranges: Vec<_> = (0..8)
            .map(|i| tr(i, i as f64 / 8.0, (i as f64 + 0.9) / 8.0))
            .collect();
        assert_eq!(classify(&ranges), AccessPattern::Blocked);
        assert_eq!(recommend(AccessPattern::Blocked), Recommendation::BlockWise);
    }

    #[test]
    fn staggered_overlap_detected() {
        // Ascending windows, ~70% overlap — Blackscholes' buffer shape
        // ((0x100,0x700), (0x200,0x800), (0x300,0x900) in Figure 9a).
        let ranges: Vec<_> = (0..8)
            .map(|i| tr(i, i as f64 * 0.05, i as f64 * 0.05 + 0.6))
            .collect();
        assert_eq!(classify(&ranges), AccessPattern::StaggeredOverlap);
        assert_eq!(
            recommend(AccessPattern::StaggeredOverlap),
            Recommendation::RegroupThenBlockWise
        );
    }

    #[test]
    fn full_range_detected() {
        let ranges: Vec<_> = (0..8).map(|i| tr(i, 0.01, 0.99)).collect();
        assert_eq!(classify(&ranges), AccessPattern::FullRange);
        // A ~0.8-coverage staggered span (Blackscholes' five sections) is
        // NOT full-range.
        let staggered: Vec<_> = (0..8)
            .map(|i| tr(i, i as f64 * 0.004, 0.8 + i as f64 * 0.004))
            .collect();
        assert_eq!(classify(&staggered), AccessPattern::StaggeredOverlap);
        assert_eq!(
            recommend(AccessPattern::FullRange),
            Recommendation::Interleave
        );
    }

    #[test]
    fn single_thread_detected() {
        let ranges = vec![tr(3, 0.2, 0.4)];
        assert_eq!(classify(&ranges), AccessPattern::SingleThread);
    }

    #[test]
    fn irregular_when_no_order() {
        // Shuffled windows with no tid correlation.
        let mins = [0.7, 0.1, 0.9, 0.3, 0.5, 0.0, 0.8, 0.2];
        let ranges: Vec<_> = mins
            .iter()
            .enumerate()
            .map(|(i, &m)| tr(i, m, m + 0.05))
            .collect();
        assert_eq!(classify(&ranges), AccessPattern::Irregular);
        assert_eq!(
            recommend(AccessPattern::Irregular),
            Recommendation::DrillDownPerRegion
        );
    }

    #[test]
    fn empty_input_is_irregular() {
        assert_eq!(classify(&[]), AccessPattern::Irregular);
    }

    #[test]
    fn zero_sample_threads_ignored() {
        let mut ranges = vec![tr(0, 0.0, 0.4)];
        ranges.push(ThreadRange {
            tid: 1,
            min: 0.9,
            max: 0.9,
            samples: 0,
            latency: 0,
        });
        assert_eq!(classify(&ranges), AccessPattern::SingleThread);
    }

    #[test]
    fn descending_blocks_are_irregular_not_staircase() {
        let ranges: Vec<_> = (0..8)
            .map(|i| tr(i, (7 - i) as f64 / 8.0, (7 - i) as f64 / 8.0 + 0.1))
            .collect();
        // Monotonicity is 0 in ascending terms — classifier is order-aware
        // but a perfectly descending staircase is still exploitable…
        // we keep it Irregular and let per-region drill-down handle it.
        assert_eq!(classify(&ranges), AccessPattern::Irregular);
    }

    #[test]
    fn classifier_thresholds_are_adjustable() {
        let ranges: Vec<_> = (0..8).map(|i| tr(i, 0.0, 0.75)).collect();
        let strict = ClassifierConfig {
            full_range_coverage: 0.7,
            ..Default::default()
        };
        assert_eq!(classify_with(&ranges, &strict), AccessPattern::FullRange);
        let lax = ClassifierConfig {
            full_range_coverage: 0.9,
            ..Default::default()
        };
        // Identical windows: ascending-with-ties ⇒ staircase with full
        // overlap ⇒ staggered.
        assert_eq!(
            classify_with(&ranges, &lax),
            AccessPattern::StaggeredOverlap
        );
    }
}
