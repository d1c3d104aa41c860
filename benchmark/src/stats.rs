//! The statistics every reported number goes through: medians, quartiles,
//! equal-count slicing, the highest percentile a sample count supports, and
//! the paired-run rule a claimed gain must pass.

use crate::spec::Better;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// the spreads printed here are the ones the driver computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it; `None` below twenty samples, where only the median is reported.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000): whole numbers, so that 100
    // samples support p90 exactly.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1000),
        (75.0, 2500),
        (50.0, 5000),
    ]
    .into_iter()
    .find(|(_, tail)| samples * tail >= 100_000)
    .map(|(p, _)| p)
}

/// Cumulative op counts at which each of `slices` equal-count slices ends.
/// The remainder is spread one op at a time over the first slices, so counts
/// differ by at most one and the last bound is `total`.
pub fn slice_bounds(total: usize, slices: usize) -> Vec<usize> {
    let slices = slices.clamp(1, total.max(1));
    let (base, extra) = (total / slices, total % slices);
    let mut end = 0;
    (0..slices)
        .map(|i| {
            end += base + usize::from(i < extra);
            end
        })
        .collect()
}

/// Ops per second of each slice, from the bounds above and the instant (in
/// seconds since any epoch) each slice ended; `marks[0]` is the phase start.
pub fn slice_rates(bounds: &[usize], marks: &[f64]) -> Vec<f64> {
    let mut prev_ops = 0;
    bounds
        .iter()
        .zip(marks.windows(2))
        .map(|(&end, w)| {
            let ops = end - prev_ops;
            prev_ops = end;
            ops as f64 / (w[1] - w[0])
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs and the medians differ by more
    /// than the parent's own interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// Run-to-run spread is wider than the bound, and the change's runs do
    /// not all read better than all of the parent's.
    Unresolved,
    Unchanged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

pub struct Comparison {
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub pairs: usize,
    /// (change − parent) / parent, signed so that positive is worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Compare paired runs of a parent and a change (run *i* of one against run
/// *i* of the other) by the choosing-metrics §8 rule.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let is_better = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| is_better(change[i], parent[i]))
        .count();
    let losses = (0..pairs)
        .filter(|&i| is_better(parent[i], change[i]))
        .count();
    let p = quartiles(parent);
    let c = quartiles(change);
    let gap = c[1] - p[1];
    let worse_by = match better {
        Better::Lower => gap / p[1].abs(),
        Better::Higher => -gap / p[1].abs(),
    };
    let all_better = change
        .iter()
        .all(|&x| parent.iter().all(|&y| is_better(x, y)));
    let wide = spread(parent) > bound || spread(change) > bound;
    // Ties count for neither side, so the share is of the pairs decided.
    let decided = wins + losses;
    let verdict = if decided > 0
        && wins as f64 >= 0.9 * pairs as f64
        && is_better(c[1], p[1])
        && gap.abs() > p[2] - p[0]
    {
        Verdict::Gain
    } else if wide && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    };
    Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        worse_by,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn slices_have_equal_counts_and_cover_the_phase() {
        assert_eq!(slice_bounds(100, 4), [25, 50, 75, 100]);
        assert_eq!(slice_bounds(10, 3), [4, 7, 10]);
        assert_eq!(slice_bounds(2, 20), [1, 2]);
        let rates = slice_rates(&[4, 7, 10], &[0.0, 2.0, 3.0, 6.0]);
        assert_eq!(rates, [2.0, 3.0, 1.0]);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(8), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
    }

    fn noisy(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * f64::from(i - 5)).collect()
    }

    #[test]
    fn a_clear_win_is_a_gain() {
        let c = compare(&noisy(100.0, 0.2), &noisy(90.0, 0.2), Better::Lower, 0.1);
        assert_eq!((c.wins, c.pairs), (10, 10));
        assert_eq!(c.verdict, Verdict::Gain);
        assert!(c.worse_by < 0.0);
    }

    #[test]
    fn a_gap_inside_the_parents_spread_is_no_gain() {
        // Wins every pair, but by less than the parent's IQR.
        let parent = noisy(100.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|x| x - 0.5).collect();
        let c = compare(&parent, &change, Better::Lower, 0.1);
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn too_few_wins_is_no_gain_even_with_a_large_median_gap() {
        let parent = noisy(100.0, 0.1);
        let mut change = noisy(80.0, 0.1);
        change[0] = 120.0;
        change[1] = 120.0;
        let c = compare(&parent, &change, Better::Lower, 0.25);
        assert_eq!(c.wins, 8);
        assert_ne!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_in_either_direction() {
        let c = compare(&noisy(100.0, 0.2), &noisy(115.0, 0.2), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Regression);
        let c = compare(&noisy(100.0, 0.2), &noisy(85.0, 0.2), Better::Higher, 0.1);
        assert_eq!(c.verdict, Verdict::Regression);
        let c = compare(&noisy(100.0, 0.2), &noisy(105.0, 0.2), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let parent = noisy(100.0, 5.0);
        let c = compare(&parent, &noisy(101.0, 5.0), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Unresolved);
        let c = compare(&parent, &noisy(20.0, 0.1), Better::Lower, 0.1);
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = noisy(100.0, 0.2);
        let c = compare(&same, &same, Better::Lower, 0.1);
        assert_eq!(c.wins, 0);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }
}
