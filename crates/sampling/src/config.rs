//! Mechanism configurations: Table 1 of the paper, plus overhead constants
//! and scaling for simulator-sized inputs.

use crate::mechanism::{MechanismKind, Qualifier, MECHANISMS};
use numa_machine::MachinePreset;
use serde::Serialize;

/// Full configuration of one sampling mechanism.
///
/// `period`, `dilution`, and `latency_threshold` define *what* is sampled;
/// the `*_cost` fields define the overhead model (cycles charged to the
/// monitored thread), calibrated so the Table 2 regeneration lands near the
/// paper's percentages.
#[derive(Clone, Debug, Serialize)]
pub struct MechanismConfig {
    pub kind: MechanismKind,
    /// Sampling period, counted in the mechanism's native unit:
    /// instructions for IBS/PEBS, eligible events for MRK/DEAR/PEBS-LL,
    /// memory accesses for Soft-IBS.
    pub period: u64,
    /// MRK only: hardware marks one in `dilution` eligible instructions.
    pub dilution: u64,
    /// DEAR / PEBS-LL: minimum load latency (cycles) to be eligible.
    pub latency_threshold: u32,
    /// Cycles per delivered sample (signal delivery, unwind, `move_pages`,
    /// CCT update).
    pub per_sample_cost: u64,
    /// Cycles per observed event regardless of sampling (Soft-IBS's
    /// instrumentation stub).
    pub per_event_cost: u64,
    /// PEBS only: online binary analysis to correct the off-by-1 IP.
    pub correction_cost: u64,
    /// Cache-pollution model: each sample handler evicts application cache
    /// state, and the app pays to refill it afterwards. The refill cost is
    /// proportional to the sampled access's latency — a proxy for how
    /// memory-bound the interrupted code is — which is why the paper's
    /// overheads are highest on the memory-intensive codes (AMG, LULESH)
    /// and low on compute-bound Blackscholes.
    pub refill_factor: f64,
    /// Randomize sampling intervals (±25%) like real PMUs, guaranteeing
    /// the uniform sampling §3 requires. Disable only for tests that need
    /// exact sample counts.
    pub jitter: bool,
}

impl MechanismConfig {
    /// The paper's configuration (Table 1): event and period per mechanism.
    ///
    /// Overhead constants are our calibration; periods are the paper's.
    pub fn paper(kind: MechanismKind) -> Self {
        let spec = kind.spec();
        MechanismConfig {
            kind,
            period: spec.period,
            dilution: spec.dilution.unwrap_or(1),
            latency_threshold: match spec.qualifier {
                Qualifier::LoadAtOrAboveThreshold(paper) => paper,
                _ => 0,
            },
            per_sample_cost: spec.per_sample_cost,
            per_event_cost: spec.per_event_cost.unwrap_or(0),
            correction_cost: spec.correction_cost.unwrap_or(0),
            refill_factor: spec.refill_factor,
            jitter: true,
        }
    }

    /// Scale the paper's configuration for simulator-sized inputs: the
    /// paper's periods target hours-long native runs; dividing period and
    /// per-sample cost by the same `factor` preserves the overhead
    /// *fraction* while yielding enough samples from a short simulated run.
    pub fn scaled(kind: MechanismKind, factor: u64) -> Self {
        assert!(factor >= 1);
        let mut cfg = Self::paper(kind);
        cfg.period = (cfg.period / factor).max(1);
        cfg.per_sample_cost = (cfg.per_sample_cost / factor).max(1);
        cfg.correction_cost /= factor;
        cfg.refill_factor /= factor as f64;
        cfg.dilution = (cfg.dilution / factor.min(cfg.dilution)).max(1);
        cfg
    }

    /// A test configuration with an explicit period and zeroed costs.
    /// Jitter stays on so access-pattern tests sample uniformly.
    pub fn for_tests(kind: MechanismKind, period: u64) -> Self {
        MechanismConfig {
            kind,
            period,
            dilution: 1,
            latency_threshold: 0,
            per_sample_cost: 0,
            per_event_cost: 0,
            correction_cost: 0,
            refill_factor: 0.0,
            jitter: true,
        }
    }

    /// Like [`Self::for_tests`] but strictly periodic, for tests that
    /// assert exact sample counts.
    pub fn for_tests_exact(kind: MechanismKind, period: u64) -> Self {
        let mut cfg = Self::for_tests(kind, period);
        cfg.jitter = false;
        cfg
    }
}

/// One row of Table 1: a mechanism paired with the machine the paper
/// evaluated it on.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Row {
    pub mechanism: MechanismKind,
    pub preset: MachinePreset,
    pub threads: usize,
    pub event: String,
    pub period: String,
}

impl Table1Row {
    /// The six rows of Table 1.
    pub fn table1() -> Vec<Table1Row> {
        MECHANISMS
            .iter()
            .map(|spec| Table1Row {
                mechanism: spec.kind,
                preset: spec.preset,
                threads: spec.preset.table1_threads(),
                event: spec.event_name.to_string(),
                period: match spec.period_label {
                    Some(label) => label.to_string(),
                    None => spec.period.to_string(),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_periods_match_table1() {
        assert_eq!(MechanismConfig::paper(MechanismKind::Ibs).period, 65536);
        assert_eq!(MechanismConfig::paper(MechanismKind::Mrk).period, 1);
        assert_eq!(
            MechanismConfig::paper(MechanismKind::Pebs).period,
            1_000_000
        );
        assert_eq!(MechanismConfig::paper(MechanismKind::Dear).period, 20_000);
        assert_eq!(
            MechanismConfig::paper(MechanismKind::PebsLl).period,
            500_000
        );
        assert_eq!(
            MechanismConfig::paper(MechanismKind::SoftIbs).period,
            10_000_000
        );
    }

    #[test]
    fn scaling_preserves_overhead_ratio() {
        let base = MechanismConfig::paper(MechanismKind::Ibs);
        let scaled = MechanismConfig::scaled(MechanismKind::Ibs, 64);
        let r0 = base.per_sample_cost as f64 / base.period as f64;
        let r1 = scaled.per_sample_cost as f64 / scaled.period as f64;
        assert!((r0 - r1).abs() / r0 < 0.05, "{r0} vs {r1}");
    }

    #[test]
    fn scaled_period_never_zero() {
        let cfg = MechanismConfig::scaled(MechanismKind::Mrk, 1 << 30);
        assert!(cfg.period >= 1);
        assert!(cfg.dilution >= 1);
    }

    #[test]
    fn build_constructs_matching_kind() {
        for kind in MechanismKind::ALL {
            let m = MechanismConfig::scaled(kind, 64).build(0);
            assert_eq!(m.kind(), kind);
        }
    }

    #[test]
    fn table1_has_six_rows_with_paper_thread_counts() {
        let t = Table1Row::table1();
        assert_eq!(t.len(), 6);
        let threads: Vec<usize> = t.iter().map(|r| r.threads).collect();
        assert_eq!(threads, vec![48, 128, 8, 8, 8, 48]);
    }
}
