//! Address-centric attribution (§5.2).
//!
//! For every sampled access the profiler updates the \[min,max\] address
//! bounds the accessing thread has touched — per variable *bin* (so hot
//! sub-ranges are distinguishable) and per scope (whole program, plus the
//! innermost parallel region, so an analyst can drill from Figure 4's
//! aggregate view into Figure 5's per-region view). Ranges are weighted by
//! sample count and latency, addressing the paper's point that access
//! ranges in different contexts should not get equal weight.

use crate::datacentric::VarId;
use numa_sampling::Sample;
use numa_sim::FuncId;
use std::collections::HashMap;

/// Scope of a range record: whole program or one parallel region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RangeScope {
    Program,
    Region(FuncId),
}

/// Key of one address-range accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RangeKey {
    pub var: VarId,
    pub bin: u16,
    pub scope: RangeScope,
}

/// Accumulated \[min,max\] bounds plus weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeStat {
    pub min_addr: u64,
    pub max_addr: u64,
    /// Samples contributing to this range.
    pub count: u64,
    /// Accumulated sampled latency (0 for mechanisms without latency).
    pub latency: u64,
    /// The remote (NUMA) part of `latency` — what the paper's weighting
    /// guidance uses to pick which contexts matter (§5.2).
    pub latency_remote: u64,
}

impl RangeStat {
    fn new(addr: u64, latency: u64, latency_remote: u64) -> Self {
        RangeStat {
            min_addr: addr,
            max_addr: addr,
            count: 1,
            latency,
            latency_remote,
        }
    }

    /// Fold in one access.
    fn update(&mut self, addr: u64, latency: u64, latency_remote: u64) {
        self.min_addr = self.min_addr.min(addr);
        self.max_addr = self.max_addr.max(addr);
        self.count += 1;
        self.latency += latency;
        self.latency_remote += latency_remote;
    }

    /// The \[min,max\] merge used when combining thread profiles (§7.2's
    /// customized reduction).
    pub fn merge(&mut self, other: &RangeStat) {
        self.min_addr = self.min_addr.min(other.min_addr);
        self.max_addr = self.max_addr.max(other.max_addr);
        self.count += other.count;
        self.latency += other.latency;
        self.latency_remote += other.latency_remote;
    }
}

/// One thread's address-centric profile.
#[derive(Clone, Debug, Default)]
pub struct AddressRanges {
    ranges: HashMap<RangeKey, RangeStat>,
}

impl AddressRanges {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sampled access to `var`/`bin`, inside `region` if the
    /// sample's call path contains a parallel region.
    ///
    /// Samples without an effective address (a mechanism that attributed
    /// the access to a variable without capturing the address) carry no
    /// address-centric information and are skipped rather than panicking.
    pub fn record(&mut self, var: VarId, bin: u16, region: Option<FuncId>, sample: &Sample) {
        let Some(addr) = sample.addr else {
            return;
        };
        let latency = sample.latency.unwrap_or(0) as u64;
        let latency_remote = if sample.level.is_some_and(|l| l.is_remote()) {
            latency
        } else {
            0
        };
        let mut upsert = |scope| {
            self.ranges
                .entry(RangeKey { var, bin, scope })
                .and_modify(|s| s.update(addr, latency, latency_remote))
                .or_insert_with(|| RangeStat::new(addr, latency, latency_remote));
        };
        upsert(RangeScope::Program);
        if let Some(r) = region {
            upsert(RangeScope::Region(r));
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&RangeKey, &RangeStat)> {
        self.ranges.iter()
    }

    pub fn get(&self, key: &RangeKey) -> Option<&RangeStat> {
        self.ranges.get(key)
    }

    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Drain into a sorted vec for the serialized profile.
    pub fn into_sorted_vec(self) -> Vec<(RangeKey, RangeStat)> {
        let mut v: Vec<_> = self.ranges.into_iter().collect();
        v.sort_by_key(|(k, _)| (k.var, k.bin, scope_order(k.scope)));
        v
    }

    /// Approximate resident bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.ranges.len()
            * (std::mem::size_of::<RangeKey>() + std::mem::size_of::<RangeStat>() + 16)
    }
}

fn scope_order(s: RangeScope) -> u64 {
    match s {
        RangeScope::Program => 0,
        RangeScope::Region(f) => 1 + f.0 as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{CpuId, DomainId};

    fn sample(addr: u64, latency: Option<u32>) -> Sample {
        Sample {
            tid: 0,
            cpu: CpuId(0),
            thread_domain: DomainId(0),
            addr: Some(addr),
            size: Some(8),
            is_store: Some(false),
            latency,
            level: None,
            line: 0,
            precise_ip: true,
        }
    }

    #[test]
    fn bounds_track_min_and_max() {
        let mut ar = AddressRanges::new();
        let v = VarId(0);
        ar.record(v, 0, None, &sample(0x500, None));
        ar.record(v, 0, None, &sample(0x100, None));
        ar.record(v, 0, None, &sample(0x900, None));
        let key = RangeKey {
            var: v,
            bin: 0,
            scope: RangeScope::Program,
        };
        let s = ar.get(&key).unwrap();
        assert_eq!((s.min_addr, s.max_addr, s.count), (0x100, 0x900, 3));
    }

    #[test]
    fn region_scope_recorded_alongside_program_scope() {
        let mut ar = AddressRanges::new();
        let v = VarId(1);
        let region = FuncId(9);
        ar.record(v, 2, Some(region), &sample(0x100, Some(50)));
        ar.record(v, 2, None, &sample(0x200, Some(70)));
        let prog = ar
            .get(&RangeKey {
                var: v,
                bin: 2,
                scope: RangeScope::Program,
            })
            .unwrap();
        assert_eq!(prog.count, 2);
        assert_eq!(prog.latency, 120);
        let reg = ar
            .get(&RangeKey {
                var: v,
                bin: 2,
                scope: RangeScope::Region(region),
            })
            .unwrap();
        assert_eq!(reg.count, 1);
        assert_eq!(reg.latency, 50);
        assert_eq!((reg.min_addr, reg.max_addr), (0x100, 0x100));
    }

    #[test]
    fn bins_are_independent() {
        let mut ar = AddressRanges::new();
        let v = VarId(0);
        ar.record(v, 0, None, &sample(0x100, None));
        ar.record(v, 1, None, &sample(0x800, None));
        assert_eq!(ar.len(), 2);
    }

    #[test]
    fn merge_is_min_max_reduction() {
        let mut a = RangeStat::new(0x500, 10, 10);
        let b = RangeStat::new(0x100, 20, 0);
        a.merge(&b);
        assert_eq!(a.min_addr, 0x100);
        assert_eq!(a.max_addr, 0x500);
        assert_eq!(a.count, 2);
        assert_eq!(a.latency, 30);
        assert_eq!(a.latency_remote, 10);
    }

    #[test]
    fn into_sorted_vec_orders_by_var_bin_scope() {
        let mut ar = AddressRanges::new();
        ar.record(VarId(1), 0, None, &sample(1, None));
        ar.record(VarId(0), 1, Some(FuncId(3)), &sample(2, None));
        ar.record(VarId(0), 0, None, &sample(3, None));
        let v = ar.into_sorted_vec();
        let keys: Vec<_> = v.iter().map(|(k, _)| (k.var.0, k.bin)).collect();
        assert_eq!(keys[0], (0, 0));
        assert_eq!(keys.last().unwrap(), &(1, 0));
    }
}
