//! What a sampling mechanism *is*: [`MECHANISMS`], one row per mechanism.
//!
//! The six mechanisms of §3 differ only in what qualifies for sampling,
//! what a sample captures and what it costs. Each row states those three
//! things plus the names and the Table 1 configuration; the single
//! [`Sampler`](crate::mechanisms::Sampler) interprets a row, and every
//! per-kind lookup in the workspace is a field read through
//! [`MechanismKind::spec`].

use crate::sample::Sample;
use numa_machine::MachinePreset;

/// The six mechanisms of §3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MechanismKind {
    /// Instruction-based sampling — AMD Opteron family.
    Ibs,
    /// Marked event sampling — IBM POWER5+.
    Mrk,
    /// Precise event-based sampling — Intel Pentium 4+.
    Pebs,
    /// Data event address registers — Intel Itanium.
    Dear,
    /// PEBS with load-latency extension — Intel Nehalem+.
    PebsLl,
    /// Software instrumentation of every memory access.
    SoftIbs,
}

impl MechanismKind {
    pub const ALL: [MechanismKind; 6] = [
        MechanismKind::Ibs,
        MechanismKind::Mrk,
        MechanismKind::Pebs,
        MechanismKind::Dear,
        MechanismKind::PebsLl,
        MechanismKind::SoftIbs,
    ];

    /// This mechanism's row of [`MECHANISMS`] (rows are in declaration
    /// order, which a test pins).
    pub fn spec(self) -> &'static MechanismSpec {
        &MECHANISMS[self as usize]
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Full name as printed in Table 1's first column.
    pub fn long_name(self) -> &'static str {
        self.spec().long_name
    }
}

/// What a mechanism's hardware can capture (§3's three capabilities plus
/// the §10 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    /// IBS/PEBS sample the whole instruction stream (useful: the
    /// memory-instruction fraction and `I^s` come for free); event-based
    /// mechanisms see only their trigger events.
    pub samples_all_instructions: bool,
    /// Measures access latency (IBS, PEBS-LL) — enables `lpi_NUMA` (§4.2).
    pub latency: bool,
    /// Reports the data source / NUMA events (not DEAR).
    pub data_source: bool,
    /// Captures the exact IP of the sampled instruction (PEBS is off by
    /// one).
    pub precise_ip: bool,
}

impl Capabilities {
    pub fn for_kind(kind: MechanismKind) -> Self {
        let spec = kind.spec();
        Capabilities {
            samples_all_instructions: spec.compute_fire_divisor.is_some(),
            latency: spec.latency,
            data_source: spec.data_source,
            precise_ip: spec.correction_cost.is_none(),
        }
    }
}

/// Which memory accesses tick a mechanism's period counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Qualifier {
    /// Loads and stores alike (IBS, PEBS, Soft-IBS).
    EveryAccess,
    /// Loads whose data came from beyond the local L3 — a remote L3 or any
    /// DRAM (`PM_MRK_FROM_L3MISS` marks demand loads).
    LoadBeyondLocalL3,
    /// Loads whose latency is at least `MechanismConfig::latency_threshold`
    /// (DEAR, PEBS-LL); the payload is the paper's threshold.
    LoadAtOrAboveThreshold(u32),
}

/// One row of [`MECHANISMS`]. Where a field is an `Option`, `None` means
/// the mechanism has no such stage and ignores the matching
/// [`MechanismConfig`](crate::MechanismConfig) field.
#[derive(Debug)]
pub struct MechanismSpec {
    pub kind: MechanismKind,
    /// Short name; the CLI accepts it in any case, with or without hyphen.
    pub name: &'static str,
    /// Full name as printed in Table 1's first column.
    pub long_name: &'static str,
    /// Event name as printed in Table 1.
    pub event_name: &'static str,
    /// Table 1's period column where it is not simply the number.
    pub period_label: Option<&'static str>,
    /// The machine the paper evaluated the mechanism on (Table 1).
    pub preset: MachinePreset,
    /// Samples carry the measured access latency.
    pub latency: bool,
    /// Samples carry the data source (NUMA events).
    pub data_source: bool,
    pub qualifier: Qualifier,
    /// `Some(d)`: the whole instruction stream is sampled — non-memory
    /// instructions tick the period counter too, and a fire on one costs
    /// `1/d` of a memory sample's base cost (IBS filters it early in
    /// software; PEBS has already run its whole handler).
    pub compute_fire_divisor: Option<u64>,
    /// A hardware counter reports the absolute number of qualifying
    /// events, sampled or not (`E_NUMA` in Eq. 3).
    pub counts_events: bool,
    /// From here down, what `MechanismConfig::paper` copies out: Table 1's
    /// periods and thresholds, and our calibration of Table 2's costs.
    pub period: u64,
    /// `Some(n)`: the hardware marks one in `n` qualifying instructions
    /// before the period counter sees them, which keeps MRK's rate low
    /// (<100 samples/s/thread on POWER7) even at period 1.
    pub dilution: Option<u64>,
    pub per_sample_cost: u64,
    /// `Some(c)`: software instrumentation — every access, sampled or
    /// not, runs a stub of `c` cycles.
    pub per_event_cost: Option<u64>,
    /// `Some(c)`: the captured IP is off by one and every fire pays `c`
    /// cycles of online binary analysis to correct it.
    pub correction_cost: Option<u64>,
    pub refill_factor: f64,
}

/// Table 1, Table 2's calibration and the §10 comparison as one table.
pub static MECHANISMS: [MechanismSpec; 6] = [
    MechanismSpec {
        kind: MechanismKind::Ibs,
        name: "IBS",
        long_name: "Instruction-based sampling (IBS)",
        event_name: "IBS op",
        period_label: Some("64K instructions"),
        preset: MachinePreset::AmdMagnyCours,
        latency: true,
        data_source: true,
        qualifier: Qualifier::EveryAccess,
        compute_fire_divisor: Some(100),
        counts_events: false,
        period: 64 * 1024,
        dilution: None,
        per_sample_cost: 90_000,
        per_event_cost: None,
        correction_cost: None,
        refill_factor: 96.0,
    },
    MechanismSpec {
        kind: MechanismKind::Mrk,
        name: "MRK",
        long_name: "Marked event sampling (MRK)",
        event_name: "PM_MRK_FROM_L3MISS",
        period_label: None,
        preset: MachinePreset::IbmPower7,
        latency: false,
        data_source: true,
        qualifier: Qualifier::LoadBeyondLocalL3,
        compute_fire_divisor: None,
        counts_events: true,
        period: 1,
        dilution: Some(512),
        per_sample_cost: 14_000,
        per_event_cost: None,
        correction_cost: None,
        refill_factor: 96.0,
    },
    // IP correction dominates the per-sample cost: the paper measured PEBS
    // as the most expensive hardware mechanism for this reason (§8, fn. 3).
    MechanismSpec {
        kind: MechanismKind::Pebs,
        name: "PEBS",
        long_name: "Precise event-based sampling (PEBS)",
        event_name: "INST_RETIRED:ANY_P",
        period_label: None,
        preset: MachinePreset::IntelHarpertown,
        latency: false,
        data_source: false,
        qualifier: Qualifier::EveryAccess,
        compute_fire_divisor: Some(1),
        counts_events: false,
        period: 1_000_000,
        dilution: None,
        per_sample_cost: 15_000,
        per_event_cost: None,
        correction_cost: Some(420_000),
        refill_factor: 12_600.0,
    },
    MechanismSpec {
        kind: MechanismKind::Dear,
        name: "DEAR",
        long_name: "Data event address registers (DEAR)",
        event_name: "DATA_EAR_CACHE_LAT4",
        period_label: None,
        preset: MachinePreset::IntelItanium2,
        latency: false,
        data_source: false,
        qualifier: Qualifier::LoadAtOrAboveThreshold(8), // DATA_EAR_CACHE_LAT4-style: beyond L1
        compute_fire_divisor: None,
        counts_events: false,
        period: 20_000,
        dilution: None,
        per_sample_cost: 400_000,
        per_event_cost: None,
        correction_cost: None,
        refill_factor: 64.0,
    },
    MechanismSpec {
        kind: MechanismKind::PebsLl,
        name: "PEBS-LL",
        long_name: "PEBS with load latency (PEBS-LL)",
        event_name: "LATENCY_ABOVE_THRESHOLD",
        period_label: None,
        preset: MachinePreset::IntelIvyBridge,
        latency: true,
        data_source: true,
        qualifier: Qualifier::LoadAtOrAboveThreshold(32),
        compute_fire_divisor: None,
        counts_events: true,
        period: 500_000,
        dilution: None,
        per_sample_cost: 9_000_000,
        per_event_cost: None,
        correction_cost: None,
        refill_factor: 64.0,
    },
    // LLVM-style instrumentation of every load and store: works on every
    // platform (the paper tests it on the AMD machine) and is by far the
    // most expensive (Table 2: up to +200%).
    MechanismSpec {
        kind: MechanismKind::SoftIbs,
        name: "Soft-IBS",
        long_name: "Software-supported IBS (Soft-IBS)",
        event_name: "memory accesses",
        period_label: None,
        preset: MachinePreset::AmdMagnyCours,
        latency: false,
        data_source: false,
        qualifier: Qualifier::EveryAccess,
        compute_fire_divisor: None,
        counts_events: false,
        period: 10_000_000,
        dilution: None,
        per_sample_cost: 10_000,
        per_event_cost: Some(12),
        correction_cost: None,
        refill_factor: 32.0,
    },
];

/// Result of feeding a block of non-memory instructions to a mechanism.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComputeOutcome {
    /// Samples that fired on non-memory instructions (they carry no
    /// address but count into the sampled-instruction total `I^s`).
    pub instruction_samples: u64,
    /// Monitoring cycles to charge.
    pub overhead: u64,
}

/// Result of feeding one memory access to a mechanism.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccessOutcome {
    /// The sample, if this access was selected.
    pub sample: Option<Sample>,
    /// Monitoring cycles to charge (per-sample costs, and for Soft-IBS the
    /// per-access instrumentation cost).
    pub overhead: u64,
}

/// Period counter shared by all mechanisms: fires roughly once per
/// `period` ticks.
///
/// With jitter enabled (the default for real configurations), each arming
/// interval is drawn uniformly from `[3/4·period, 5/4·period]` using a
/// deterministic per-counter PRNG — mirroring how IBS/PEBS randomize their
/// counters. §3 requires that "memory accesses are uniformly sampled":
/// a strictly periodic counter aliases with periodic access patterns (e.g.
/// a loop alternating two arrays under an even period samples only one of
/// them), which jitter prevents.
#[derive(Clone, Debug)]
pub(crate) struct PeriodCounter {
    period: u64,
    count: u64,
    next_arm: u64,
    rng: u64,
    jitter: bool,
}

/// Seed of thread 0's first counter (see `MechanismConfig::build`).
pub(crate) const SEED_BASE: u64 = 0x9e37;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl PeriodCounter {
    /// A counter whose jitter stream is drawn from `seed`.
    pub fn with_jitter(period: u64, jitter: bool, seed: u64) -> Self {
        assert!(period >= 1, "sampling period must be positive");
        let mut c = PeriodCounter {
            period,
            count: 0,
            next_arm: period,
            rng: splitmix(seed),
            jitter,
        };
        c.rearm();
        c
    }

    fn rearm(&mut self) {
        // Periods below 4 cannot meaningfully jitter.
        if !self.jitter || self.period < 4 {
            self.next_arm = self.period;
            return;
        }
        self.rng = splitmix(self.rng);
        let spread = self.period / 2; // ± period/4
        self.next_arm = self.period - spread / 2 + self.rng % (spread + 1);
    }

    /// Advance by `n` ticks; returns how many times the counter fired.
    pub fn add(&mut self, n: u64) -> u64 {
        self.count += n;
        let mut fires = 0;
        while self.count >= self.next_arm {
            self.count -= self.next_arm;
            self.rearm();
            fires += 1;
        }
        fires
    }

    /// Advance by one tick; true if the counter fired.
    pub fn tick(&mut self) -> bool {
        self.add(1) > 0
    }

    /// Ticks this counter can absorb before the one that fires it.
    pub fn quiet(&self) -> u64 {
        self.next_arm - self.count - 1
    }

    /// Advance by `n <= self.quiet()` ticks, none of which can fire.
    pub fn skip(&mut self, n: u64) {
        self.count += n;
        assert!(
            self.count < self.next_arm,
            "skipped {n} ticks past a counter armed at {}",
            self.next_arm
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unjittered_counter_fires_at_exact_rate() {
        let mut c = PeriodCounter::with_jitter(10, false, 0);
        let mut fires = 0;
        for _ in 0..100 {
            if c.tick() {
                fires += 1;
            }
        }
        assert_eq!(fires, 10);
    }

    #[test]
    fn jittered_counter_fires_at_the_right_average_rate() {
        let mut c = PeriodCounter::with_jitter(100, true, 0);
        let fires = c.add(1_000_000);
        let expectation = 1_000_000 / 100;
        assert!(
            (fires as i64 - expectation as i64).unsigned_abs() < expectation / 10,
            "fires {fires} vs ~{expectation}"
        );
    }

    #[test]
    fn jittered_counter_breaks_phase_alignment() {
        // Two counters with the same period must not fire in lockstep —
        // that lockstep is exactly what biases sampling of periodic access
        // streams (§3's uniformity requirement).
        let mut a = PeriodCounter::with_jitter(64, true, 0);
        let mut b = PeriodCounter::with_jitter(64, true, 1);
        let mut same = 0;
        let mut total = 0;
        for _ in 0..100_000 {
            let fa = a.tick();
            let fb = b.tick();
            if fa || fb {
                total += 1;
                if fa == fb {
                    same += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            (same as f64) < 0.5 * total as f64,
            "counters fired together {same}/{total}"
        );
    }

    #[test]
    fn period_counter_bulk_add_matches_ticks() {
        let mut a = PeriodCounter::with_jitter(7, false, 0);
        let mut b = PeriodCounter::with_jitter(7, false, 1);
        let mut fa = 0;
        for _ in 0..1000 {
            if a.tick() {
                fa += 1;
            }
        }
        let fb = b.add(1000);
        assert_eq!(fa, fb);
    }

    #[test]
    fn table_rows_are_indexed_by_kind_with_unique_names() {
        let mut seen = std::collections::HashSet::new();
        let mut folded_names = std::collections::HashSet::new();
        for (spec, kind) in MECHANISMS.iter().zip(MechanismKind::ALL) {
            assert_eq!(spec.kind, kind, "rows must be in MechanismKind::ALL order");
            assert_eq!(kind.spec().kind, kind);
            assert!(seen.insert(spec.name), "{}", spec.name);
            assert!(seen.insert(spec.long_name), "{}", spec.long_name);
            // The CLI matches names ignoring case and hyphens.
            let folded = spec.name.to_ascii_lowercase().replace('-', "");
            assert!(folded_names.insert(folded), "{}", spec.name);
            assert_eq!(
                spec.counts_events,
                matches!(kind, MechanismKind::Mrk | MechanismKind::PebsLl),
                "{kind:?}"
            );
            if let Qualifier::LoadAtOrAboveThreshold(paper_threshold) = spec.qualifier {
                assert!(paper_threshold > 0, "{kind:?}");
            }
        }
    }

    #[test]
    fn capabilities_match_paper_table() {
        use MechanismKind::*;
        // §4.2: only IBS and PEBS-LL measure latency.
        for k in MechanismKind::ALL {
            let c = Capabilities::for_kind(k);
            assert_eq!(c.latency, matches!(k, Ibs | PebsLl), "{k:?}");
        }
        // §10: DEAR does not support NUMA events.
        assert!(!Capabilities::for_kind(Dear).data_source);
        // §8: PEBS needs off-by-1 correction.
        assert!(!Capabilities::for_kind(Pebs).precise_ip);
        // §10: IBS and PEBS sample all instruction kinds.
        assert!(Capabilities::for_kind(Ibs).samples_all_instructions);
        assert!(Capabilities::for_kind(Pebs).samples_all_instructions);
        assert!(!Capabilities::for_kind(Mrk).samples_all_instructions);
    }
}
