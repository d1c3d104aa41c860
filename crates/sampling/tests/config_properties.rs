//! Property tests for sampling configurations and rates.

use numa_machine::{AccessLevel, CpuId, DomainId};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::MemoryEvent;
use proptest::prelude::*;

fn ev(latency: u32, is_store: bool) -> MemoryEvent {
    MemoryEvent {
        tid: 0,
        cpu: CpuId(0),
        thread_domain: DomainId(0),
        addr: 0x1000,
        size: 8,
        is_store,
        level: if latency > 100 {
            AccessLevel::MemRemote
        } else {
            AccessLevel::L1
        },
        home_domain: DomainId(1),
        latency,
        line: 0,
        first_touch_page: false,
        clock: 0,
    }
}

proptest! {
    /// Scaling preserves the cost/period ratio (the invariant behind
    /// Table 2's reproduction) for every mechanism and factor.
    #[test]
    fn scaling_preserves_overhead_ratio(
        kind in prop::sample::select(MechanismKind::ALL.to_vec()),
        factor in 1u64..512
    ) {
        let base = MechanismConfig::paper(kind);
        let scaled = MechanismConfig::scaled(kind, factor);
        prop_assert!(scaled.period >= 1);
        prop_assert!(scaled.per_sample_cost >= 1);
        // Ratio preserved to within integer-division slack.
        let r0 = (base.per_sample_cost + base.correction_cost) as f64 / base.period as f64;
        let r1 = (scaled.per_sample_cost + scaled.correction_cost) as f64
            / scaled.period as f64;
        if base.period / factor >= 8 {
            prop_assert!((r0 - r1).abs() / r0 < 0.25, "{kind:?}@{factor}: {r0} vs {r1}");
        }
    }

    /// Long-run sampling rate matches the configured period for every
    /// mechanism fed a uniform eligible stream (the §3 uniformity
    /// requirement).
    #[test]
    fn long_run_rate_matches_period(
        kind in prop::sample::select(MechanismKind::ALL.to_vec()),
        period in 8u64..128
    ) {
        let mut cfg = MechanismConfig::for_tests(kind, period);
        cfg.latency_threshold = 1; // everything eligible for DEAR/PEBS-LL
        let mut m = cfg.build(0);
        let n = 40_000u64;
        let mut samples = 0u64;
        for _ in 0..n {
            // Loads with latency above any threshold and an L3-missing
            // data source: eligible for every mechanism.
            if m.on_access(&ev(300, false)).sample.is_some() {
                samples += 1;
            }
        }
        let expect = n as f64 / period as f64;
        prop_assert!(
            (samples as f64) > expect * 0.8 && (samples as f64) < expect * 1.2,
            "{kind:?}: {samples} samples, expected ≈{expect}"
        );
    }

    /// Stores never produce samples on load-only mechanisms.
    #[test]
    fn load_only_mechanisms_ignore_stores(period in 1u64..32) {
        for kind in [MechanismKind::Mrk, MechanismKind::Dear, MechanismKind::PebsLl] {
            let cfg = MechanismConfig::for_tests(kind, period);
            let mut m = cfg.build(0);
            for _ in 0..1000 {
                prop_assert!(m.on_access(&ev(300, true)).sample.is_none(), "{kind:?}");
            }
        }
    }
}
