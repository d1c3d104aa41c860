//! Access latency model.
//!
//! Latencies are in CPU cycles. The defaults encode the two facts the paper
//! leans on (§2): remote DRAM accesses cost noticeably more than local ones
//! (>30%, here ~65% before hop costs), and bandwidth contention can inflate
//! access latency by up to ~5×.

use crate::ids::DomainId;
use crate::topology::Topology;

/// Where a memory access was satisfied. This doubles as the "data source"
/// field that IBS and PEBS-LL samples report. Variants are ordered by
/// distance from the core, so `level >= AccessLevel::L3Remote` reads
/// "beyond the local L3".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AccessLevel {
    /// Private level-1 cache hit.
    L1,
    /// Private level-2 cache hit.
    L2,
    /// Hit in the shared last-level cache of the accessing core's own domain.
    L3Local,
    /// Hit in the last-level cache of a remote domain.
    L3Remote,
    /// Served by the memory controller of the accessing core's own domain.
    MemLocal,
    /// Served by the memory controller of a remote domain.
    MemRemote,
}

impl AccessLevel {
    pub const ALL: [AccessLevel; 6] = [
        AccessLevel::L1,
        AccessLevel::L2,
        AccessLevel::L3Local,
        AccessLevel::L3Remote,
        AccessLevel::MemLocal,
        AccessLevel::MemRemote,
    ];

    /// True if the data was served from outside the accessing core's NUMA
    /// domain (remote cache or remote memory). These accesses accumulate
    /// into the paper's `l_NUMA` remote-latency total.
    pub fn is_remote(self) -> bool {
        matches!(self, AccessLevel::L3Remote | AccessLevel::MemRemote)
    }

    /// True if the access missed all caches and reached DRAM.
    pub fn is_memory(self) -> bool {
        matches!(self, AccessLevel::MemLocal | AccessLevel::MemRemote)
    }

    /// True if the access missed the private cache hierarchy and left the
    /// core (shared L3 or beyond). MRK's `PM_MRK_FROM_L3MISS` event fires on
    /// `L3Remote`/`MemLocal`/`MemRemote`; we expose the broader predicate so
    /// mechanisms can build their own event filters.
    pub fn leaves_core(self) -> bool {
        !matches!(self, AccessLevel::L1 | AccessLevel::L2)
    }

    pub fn name(self) -> &'static str {
        match self {
            AccessLevel::L1 => "L1",
            AccessLevel::L2 => "L2",
            AccessLevel::L3Local => "L3-local",
            AccessLevel::L3Remote => "L3-remote",
            AccessLevel::MemLocal => "mem-local",
            AccessLevel::MemRemote => "mem-remote",
        }
    }
}

/// Per-level base latencies plus scaling knobs, in cycles.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    pub l1_hit: u32,
    pub l2_hit: u32,
    pub l3_local_hit: u32,
    /// Base cost of hitting a *remote* domain's L3 (before hop costs).
    pub l3_remote_hit: u32,
    pub mem_local: u32,
    /// Base cost of a remote DRAM access (before hop costs).
    pub mem_remote: u32,
    /// Additional cycles per interconnect hop beyond the first for remote
    /// accesses.
    pub per_hop: u32,
    /// Ceiling on the contention multiplier applied by memory controllers.
    pub contention_max: f64,
    /// How aggressively excess load translates into latency inflation;
    /// 1.0 means a domain receiving `k×` its fair share of traffic serves at
    /// roughly `1 + (k-1)` times base latency (clamped to `contention_max`).
    pub contention_slope: f64,
    /// Memory-level parallelism: out-of-order cores overlap several
    /// outstanding misses, so only `latency / stall_divisor` cycles stall
    /// the pipeline. Sampled (PMU-visible) latency stays the full value;
    /// the divisor only affects the virtual clock.
    pub stall_divisor: f64,
}

impl LatencyModel {
    /// A generic model suitable for any topology. Individual presets could
    /// specialize; for reproducing the paper's analyses the shared shape is
    /// sufficient.
    pub fn default_for(_t: &Topology) -> Self {
        LatencyModel {
            l1_hit: 4,
            l2_hit: 12,
            l3_local_hit: 40,
            l3_remote_hit: 110,
            mem_local: 150,
            mem_remote: 250,
            per_hop: 30,
            contention_max: 5.0,
            contention_slope: 0.6,
            stall_divisor: 4.0,
        }
    }

    /// Pipeline stall cycles the core actually pays for an access of the
    /// given (full) latency, after memory-level-parallelism overlap.
    pub fn stall_cycles(&self, latency: u32) -> u64 {
        (latency as f64 / self.stall_divisor).ceil() as u64
    }

    /// Uncontended latency of an access served at `level`, travelling
    /// `hops` interconnect hops (0 for local levels).
    pub fn base_latency(&self, level: AccessLevel, hops: u32) -> u32 {
        let base = match level {
            AccessLevel::L1 => self.l1_hit,
            AccessLevel::L2 => self.l2_hit,
            AccessLevel::L3Local => self.l3_local_hit,
            AccessLevel::L3Remote => self.l3_remote_hit,
            AccessLevel::MemLocal => self.mem_local,
            AccessLevel::MemRemote => self.mem_remote,
        };
        let extra_hops = hops.saturating_sub(1);
        if level.is_remote() {
            base + extra_hops * self.per_hop
        } else {
            base
        }
    }

    /// Full latency of an access: base latency scaled by the serving memory
    /// controller's contention multiplier (only DRAM accesses contend for
    /// controller bandwidth in this model).
    pub fn latency(&self, level: AccessLevel, hops: u32, contention_multiplier: f64) -> u32 {
        let base = self.base_latency(level, hops);
        if level.is_memory() {
            let m = contention_multiplier.clamp(1.0, self.contention_max);
            (base as f64 * m).round() as u32
        } else {
            base
        }
    }

    /// Contention multiplier for an absolute overload factor: `load == 1`
    /// means the domain's controller serves about as many concurrent
    /// request streams as it has local hardware threads (its design point);
    /// each unit of overload inflates latency by `contention_slope` until
    /// `contention_max`. A machine-wide fork-join region with `T` active
    /// threads and per-domain traffic share `s_d` has
    /// `load_d = s_d × T / cpus_per_domain`.
    pub fn contention_multiplier_load(&self, load: f64) -> f64 {
        (1.0 + self.contention_slope * (load - 1.0).max(0.0)).clamp(1.0, self.contention_max)
    }
}

/// Helper carried by events: whether `home` is remote relative to `local`,
/// expressed as an [`AccessLevel`] adjustment for DRAM accesses.
pub fn dram_level(local: DomainId, home: DomainId) -> AccessLevel {
    if local == home {
        AccessLevel::MemLocal
    } else {
        AccessLevel::MemRemote
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::MachinePreset;

    fn model() -> LatencyModel {
        LatencyModel::default_for(&MachinePreset::AmdMagnyCours.topology())
    }

    #[test]
    fn remote_memory_is_at_least_30_percent_slower() {
        let m = model();
        let local = m.base_latency(AccessLevel::MemLocal, 0);
        let remote = m.base_latency(AccessLevel::MemRemote, 1);
        assert!(
            remote as f64 >= local as f64 * 1.3,
            "paper §2: remote accesses have >30% higher latency ({remote} vs {local})"
        );
    }

    #[test]
    fn hop_costs_only_apply_to_remote_levels() {
        let m = model();
        assert_eq!(
            m.base_latency(AccessLevel::MemLocal, 0),
            m.base_latency(AccessLevel::MemLocal, 3)
        );
        assert!(
            m.base_latency(AccessLevel::MemRemote, 3) > m.base_latency(AccessLevel::MemRemote, 1)
        );
    }

    #[test]
    fn contention_multiplier_is_one_when_balanced() {
        let m = model();
        let mult = m.contention_multiplier_load(1.0);
        assert!((mult - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contention_multiplier_caps_at_max() {
        let m = model();
        // All traffic of eight fully loaded domains to one of them.
        let mult = m.contention_multiplier_load(8.0);
        assert!((mult - m.contention_max).abs() < 1e-9, "got {mult}");
    }

    #[test]
    fn contention_never_discounts_cold_domains() {
        let m = model();
        let mult = m.contention_multiplier_load(0.0);
        assert!((mult - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cache_hits_ignore_contention() {
        let m = model();
        assert_eq!(
            m.latency(AccessLevel::L3Remote, 1, 5.0),
            m.base_latency(AccessLevel::L3Remote, 1)
        );
        assert!(
            m.latency(AccessLevel::MemRemote, 1, 5.0) > m.base_latency(AccessLevel::MemRemote, 1)
        );
    }

    #[test]
    fn level_predicates() {
        assert!(AccessLevel::L3Remote.is_remote());
        assert!(AccessLevel::MemRemote.is_remote());
        assert!(!AccessLevel::MemLocal.is_remote());
        assert!(AccessLevel::MemLocal.is_memory());
        assert!(!AccessLevel::L3Local.is_memory());
        assert!(AccessLevel::L3Local.leaves_core());
        assert!(!AccessLevel::L2.leaves_core());
    }
}
