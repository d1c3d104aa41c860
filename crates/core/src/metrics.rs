//! NUMA metrics (paper §4).
//!
//! A [`MetricSet`] accumulates everything §4 derives per program scope
//! (CCT node, variable, bin, thread, or whole program):
//!
//! * `m_local` / `m_remote` — sampled accesses whose backing page is in the
//!   accessing thread's domain vs. another domain (§4.1; displayed as
//!   `NUMA_MATCH` / `NUMA_MISMATCH` in the paper's Figure 3).
//! * `per_domain[d]` — sampled accesses touching each NUMA domain (§4.1's
//!   balance metric; `NUMA_NODE0` etc. in Figure 3).
//! * `latency_total` / `latency_remote` — accumulated sampled latency, and
//!   the part from remote data sources (`l^s_NUMA` in Eq. 2) — present only
//!   for mechanisms with latency capability (IBS, PEBS-LL).
//! * `samples_instr` — sampled instructions `I^s` (memory or not), the
//!   denominator of Eq. 2.
//! * data-source histogram per [`AccessLevel`].

use numa_machine::{AccessLevel, DomainId};
use numa_sampling::Sample;
use serde::Serialize;

/// Number of [`AccessLevel`] variants (histogram width).
pub const LEVELS: usize = 6;

fn level_index(l: AccessLevel) -> usize {
    match l {
        AccessLevel::L1 => 0,
        AccessLevel::L2 => 1,
        AccessLevel::L3Local => 2,
        AccessLevel::L3Remote => 3,
        AccessLevel::MemLocal => 4,
        AccessLevel::MemRemote => 5,
    }
}

/// Accumulated NUMA metrics for one scope.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct MetricSet {
    /// Sampled memory accesses touching the local NUMA domain (`M_l`).
    pub m_local: u64,
    /// Sampled memory accesses touching a remote NUMA domain (`M_r`).
    pub m_remote: u64,
    /// Sampled memory accesses touching each domain.
    pub per_domain: Vec<u64>,
    /// Total sampled access latency (0 if the mechanism lacks latency).
    pub latency_total: u64,
    /// Sampled latency served from remote sources (`l^s_NUMA`).
    pub latency_remote: u64,
    /// Samples whose mechanism reported a latency field at all. This is
    /// what distinguishes "no latency captured" from "zero remote
    /// latency": `latency_total` alone conflates the two when every
    /// captured latency is local or zero-cycle.
    pub latency_samples: u64,
    /// Memory samples.
    pub samples_mem: u64,
    /// Sampled instructions `I^s` (memory samples + non-memory instruction
    /// samples from IBS/PEBS).
    pub samples_instr: u64,
    pub loads: u64,
    pub stores: u64,
    /// Samples by data source (only for mechanisms reporting data source).
    pub level_hist: [u64; LEVELS],
    /// Samples that performed a page's first touch.
    pub first_touch_samples: u64,
}

impl MetricSet {
    pub fn new(domains: usize) -> Self {
        MetricSet {
            per_domain: vec![0; domains],
            ..Default::default()
        }
    }

    /// Record one memory sample. `home` is the `move_pages` answer for the
    /// sampled address (the profiler's query, not a PMU field).
    pub fn add_sample(&mut self, s: &Sample, home: Option<DomainId>, first_touch: bool) {
        self.samples_mem += 1;
        self.samples_instr += 1;
        match s.is_store {
            Some(true) => self.stores += 1,
            Some(false) => self.loads += 1,
            None => {}
        }
        if let Some(h) = home {
            if h.index() < self.per_domain.len() {
                self.per_domain[h.index()] += 1;
            }
            if h == s.thread_domain {
                self.m_local += 1;
            } else {
                self.m_remote += 1;
            }
        }
        if let Some(lat) = s.latency {
            self.latency_samples += 1;
            self.latency_total += lat as u64;
            if s.level.is_some_and(|l| l.is_remote()) {
                self.latency_remote += lat as u64;
            }
        }
        if let Some(level) = s.level {
            self.level_hist[level_index(level)] += 1;
        }
        if first_touch {
            self.first_touch_samples += 1;
        }
    }

    /// Record `n` non-memory instruction samples (IBS/PEBS fire on any
    /// instruction; these contribute only to `I^s`).
    pub fn add_instruction_samples(&mut self, n: u64) {
        self.samples_instr += n;
    }

    /// Merge another scope's metrics into this one (thread merging and
    /// subtree aggregation both use plain accumulation; only address ranges
    /// need \[min,max\] reduction, which lives in the range structures).
    pub fn merge(&mut self, other: &MetricSet) {
        self.m_local += other.m_local;
        self.m_remote += other.m_remote;
        if self.per_domain.len() < other.per_domain.len() {
            self.per_domain.resize(other.per_domain.len(), 0);
        }
        for (a, b) in self.per_domain.iter_mut().zip(&other.per_domain) {
            *a += b;
        }
        self.latency_total += other.latency_total;
        self.latency_remote += other.latency_remote;
        self.latency_samples += other.latency_samples;
        self.samples_mem += other.samples_mem;
        self.samples_instr += other.samples_instr;
        self.loads += other.loads;
        self.stores += other.stores;
        for (a, b) in self.level_hist.iter_mut().zip(&other.level_hist) {
            *a += b;
        }
        self.first_touch_samples += other.first_touch_samples;
    }

    /// `M_r / (M_l + M_r)`: the fraction of sampled accesses touching
    /// remote domains. "Unless M_r ≪ M_l … the code region may suffer from
    /// NUMA problems" (§4.1).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.m_local + self.m_remote;
        if total == 0 {
            0.0
        } else {
            self.m_remote as f64 / total as f64
        }
    }

    /// NUMA latency per sampled instruction: Eq. 2's
    /// `lpi ≈ l^s_NUMA / I^s`.
    ///
    /// Contract: `None` exactly when the estimate is undefined — no
    /// instruction samples exist, or no sample ever carried a latency
    /// field (the mechanism lacks latency capability). A mechanism that
    /// *did* capture latency but observed only local (or zero-cycle)
    /// traffic yields `Some(0.0)`: that is a measured "no NUMA cost", not
    /// a missing measurement.
    pub fn lpi_numa(&self) -> Option<f64> {
        if self.samples_instr == 0 || self.latency_samples == 0 {
            return None;
        }
        Some(self.latency_remote as f64 / self.samples_instr as f64)
    }

    /// Imbalance of per-domain requests: max domain share over fair share
    /// (1.0 = perfectly balanced, `domains` = everything on one domain).
    pub fn domain_imbalance(&self) -> f64 {
        let total: u64 = self.per_domain.iter().sum();
        if total == 0 || self.per_domain.is_empty() {
            return 1.0;
        }
        let max = *self.per_domain.iter().max().unwrap();
        (max as f64 / total as f64) * self.per_domain.len() as f64
    }

    /// Total sampled memory accesses with a resolved home domain.
    pub fn resolved_samples(&self) -> u64 {
        self.m_local + self.m_remote
    }
}

/// The paper's 0.1 cycles-per-instruction rule of thumb: NUMA losses above
/// this are significant enough to warrant optimization (§4.2).
pub const LPI_THRESHOLD: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::CpuId;

    fn sample(thread_domain: u8, latency: Option<u32>, level: Option<AccessLevel>) -> Sample {
        Sample {
            tid: 0,
            cpu: CpuId(0),
            thread_domain: DomainId(thread_domain),
            addr: Some(0x1000),
            size: Some(8),
            is_store: Some(false),
            latency,
            level,
            line: 0,
            precise_ip: true,
        }
    }

    #[test]
    fn local_and_remote_counting() {
        let mut m = MetricSet::new(4);
        m.add_sample(&sample(0, None, None), Some(DomainId(0)), false);
        m.add_sample(&sample(0, None, None), Some(DomainId(2)), false);
        m.add_sample(&sample(0, None, None), Some(DomainId(2)), false);
        assert_eq!(m.m_local, 1);
        assert_eq!(m.m_remote, 2);
        assert_eq!(m.per_domain, vec![1, 0, 2, 0]);
        assert!((m.remote_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn latency_split_by_data_source() {
        let mut m = MetricSet::new(2);
        m.add_sample(
            &sample(0, Some(100), Some(AccessLevel::MemLocal)),
            Some(DomainId(0)),
            false,
        );
        m.add_sample(
            &sample(0, Some(300), Some(AccessLevel::MemRemote)),
            Some(DomainId(1)),
            false,
        );
        assert_eq!(m.latency_total, 400);
        assert_eq!(m.latency_remote, 300);
    }

    #[test]
    fn cached_remote_data_bias_is_visible() {
        // §4.1's bias: an L1 hit on remotely-homed data raises M_r but adds
        // no remote latency — lpi stays low, exposing the bias.
        let mut m = MetricSet::new(2);
        for _ in 0..100 {
            m.add_sample(
                &sample(0, Some(4), Some(AccessLevel::L1)),
                Some(DomainId(1)),
                false,
            );
        }
        assert_eq!(m.m_remote, 100);
        assert_eq!(m.latency_remote, 0);
        // High M_r yet zero NUMA latency per instruction: the metric that
        // "eliminates this bias" (§4.1).
        assert_eq!(m.lpi_numa(), Some(0.0));
    }

    #[test]
    fn lpi_matches_eq2() {
        let mut m = MetricSet::new(2);
        m.add_sample(
            &sample(0, Some(300), Some(AccessLevel::MemRemote)),
            Some(DomainId(1)),
            false,
        );
        m.add_instruction_samples(999);
        // l^s = 300, I^s = 1000.
        assert!((m.lpi_numa().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn lpi_unavailable_without_latency() {
        let mut m = MetricSet::new(2);
        m.add_sample(&sample(0, None, None), Some(DomainId(1)), false);
        m.add_instruction_samples(10);
        assert_eq!(m.latency_samples, 0);
        assert_eq!(m.lpi_numa(), None);
    }

    #[test]
    fn lpi_zero_cycle_latencies_are_a_measurement_not_a_gap() {
        // Eq. 2 edge case: the mechanism captured latency on every sample,
        // but each captured latency was 0 cycles (all satisfied locally).
        // `latency_total == 0` here must NOT read as "no latency
        // capability": the contract is Some(0.0), distinguished from the
        // None of `lpi_unavailable_without_latency`.
        let mut m = MetricSet::new(2);
        for _ in 0..8 {
            m.add_sample(
                &sample(0, Some(0), Some(AccessLevel::L1)),
                Some(DomainId(0)),
                false,
            );
        }
        assert_eq!(m.latency_total, 0);
        assert_eq!(m.latency_samples, 8);
        assert_eq!(m.lpi_numa(), Some(0.0));
    }

    #[test]
    fn lpi_contract_survives_merge() {
        // Merging a latency-bearing set into a latency-less one keeps the
        // "was latency captured" bit.
        let mut no_lat = MetricSet::new(2);
        no_lat.add_sample(&sample(0, None, None), Some(DomainId(1)), false);
        assert_eq!(no_lat.lpi_numa(), None);
        let mut with_lat = MetricSet::new(2);
        with_lat.add_sample(
            &sample(0, Some(0), Some(AccessLevel::L1)),
            Some(DomainId(0)),
            false,
        );
        no_lat.merge(&with_lat);
        assert_eq!(no_lat.latency_samples, 1);
        assert_eq!(no_lat.lpi_numa(), Some(0.0));
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = MetricSet::new(2);
        let mut b = MetricSet::new(2);
        a.add_sample(
            &sample(0, Some(100), Some(AccessLevel::MemLocal)),
            Some(DomainId(0)),
            true,
        );
        b.add_sample(
            &sample(1, Some(200), Some(AccessLevel::MemRemote)),
            Some(DomainId(0)),
            false,
        );
        b.add_instruction_samples(5);
        a.merge(&b);
        assert_eq!(a.samples_mem, 2);
        assert_eq!(a.samples_instr, 7);
        assert_eq!(a.latency_total, 300);
        assert_eq!(a.latency_remote, 200);
        assert_eq!(a.per_domain, vec![2, 0]);
        assert_eq!(a.first_touch_samples, 1);
    }

    #[test]
    fn imbalance_detects_single_domain_hotspot() {
        let mut m = MetricSet::new(8);
        for _ in 0..80 {
            m.add_sample(&sample(1, None, None), Some(DomainId(0)), false);
        }
        assert!((m.domain_imbalance() - 8.0).abs() < 1e-12);
        let mut balanced = MetricSet::new(8);
        for d in 0..8u8 {
            balanced.add_sample(&sample(d, None, None), Some(DomainId(d)), false);
        }
        assert!((balanced.domain_imbalance() - 1.0).abs() < 1e-12);
    }
}
