//! Simulated NUMA machine model.
//!
//! This crate is the hardware substrate for the HPCToolkit-NUMA reproduction.
//! It models everything the profiler's measurement layer observes about a
//! machine with multiple NUMA domains:
//!
//! * [`Topology`] — NUMA domains, sockets, cores, and SMT hardware threads,
//!   with the CPU↔domain mapping that the paper queries through libnuma's
//!   `numa_node_of_cpu`.
//! * [`PageMap`] — the virtual-to-domain page binding, including the Linux
//!   *first touch* policy as well as interleaved, block-wise, and explicit
//!   bindings (the placement strategies of §2 and Figure 1), plus page
//!   protection bits used for first-touch trapping (§6). The address→domain
//!   query mirrors libnuma's `move_pages`.
//! * [`LatencyModel`] and [`Interconnect`] — per-level access latencies with
//!   the remote-access penalty (>30% per §2), hop distances between
//!   domains, and the memory-controller contention multiplier: a domain
//!   serving far more than its fair share of a region's DRAM traffic serves
//!   it with latency inflated by up to ~5× (§2 cites a 5× inflation under
//!   contention). The engine applies it at each fork-join barrier.
//!
//! The model is intentionally first-order: the profiler built on top of it
//! consumes *events* (address, latency, serving domain), so only the ordering
//! and rough magnitude of those quantities matter for reproducing the paper's
//! analyses.

pub mod ids;
pub mod interconnect;
pub mod latency;
pub mod page;
pub mod policy;
pub mod presets;
pub mod topology;

pub use ids::{CpuId, DomainId, PageNum, PAGE_SHIFT, PAGE_SIZE};
pub use interconnect::Interconnect;
pub use latency::{AccessLevel, LatencyModel};
pub use page::{FaultKind, PageMap, PageQuery, PageTlb};
pub use policy::PlacementPolicy;
pub use presets::MachinePreset;
pub use topology::Topology;

use std::rc::Rc;

/// A complete simulated NUMA machine: topology, page map, latency model and
/// interconnect.
///
/// `Machine` is a cheap handle: clones share one page map, which is the
/// single object workloads, the engine and the profiler agree on. It lives
/// on the one thread that runs the simulation.
#[derive(Clone)]
pub struct Machine {
    inner: Rc<MachineInner>,
}

struct MachineInner {
    topology: Topology,
    page_map: PageMap,
    latency: LatencyModel,
    interconnect: Interconnect,
}

impl Machine {
    /// Build a machine from a topology using that topology's default latency
    /// model and interconnect.
    pub fn new(topology: Topology) -> Self {
        let latency = LatencyModel::default_for(&topology);
        Self::with_latency(topology, latency)
    }

    /// Build a machine with an explicit latency model.
    pub fn with_latency(topology: Topology, latency: LatencyModel) -> Self {
        let interconnect = Interconnect::for_topology(&topology);
        let page_map = PageMap::new(topology.domains());
        Machine {
            inner: Rc::new(MachineInner {
                topology,
                page_map,
                latency,
                interconnect,
            }),
        }
    }

    /// Build a machine from a named preset (the five systems of Table 1),
    /// with that machine's tuned latency model.
    pub fn from_preset(preset: MachinePreset) -> Self {
        Machine::with_latency(preset.topology(), preset.latency_model())
    }

    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    pub fn page_map(&self) -> &PageMap {
        &self.inner.page_map
    }

    pub fn latency_model(&self) -> &LatencyModel {
        &self.inner.latency
    }

    pub fn interconnect(&self) -> &Interconnect {
        &self.inner.interconnect
    }

    /// The NUMA domain of a CPU — the simulated `numa_node_of_cpu`.
    pub fn domain_of_cpu(&self, cpu: CpuId) -> DomainId {
        self.inner.topology.domain_of_cpu(cpu)
    }

    /// The NUMA domain holding an address, if the backing page has been
    /// bound — the simulated `move_pages` query used to compute `M_l`/`M_r`.
    pub fn domain_of_addr(&self, addr: u64) -> Option<DomainId> {
        self.inner.page_map.domain_of_addr(addr)
    }

    /// A block-wise placement policy aligned with the standard spread
    /// binding of `threads` software threads: block `t` of a region goes to
    /// the domain thread `t` runs in, so a contiguous per-thread partition
    /// is co-located. (A naive `blockwise_all` maps block `i` → domain `i`,
    /// which misaligns with round-robin thread binding.)
    pub fn blockwise_for_threads(&self, threads: usize) -> PlacementPolicy {
        let t = self.topology();
        PlacementPolicy::BlockWise {
            domains: t
                .spread_binding(threads)
                .iter()
                .map(|&c| t.domain_of_cpu(c))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.inner.topology.name())
            .field("domains", &self.inner.topology.domains())
            .field("cpus", &self.inner.topology.total_cpus())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_shares_state_across_clones() {
        let m = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let m2 = m.clone();
        m.page_map()
            .register_region(0x1000, 0x4000, PlacementPolicy::Bind(DomainId(3)));
        m.page_map().touch(0x1000, DomainId(0));
        assert_eq!(m2.domain_of_addr(0x1000), Some(DomainId(3)));
    }

    #[test]
    fn cpu_domain_query_matches_topology() {
        let m = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let t = m.topology();
        for cpu in 0..t.total_cpus() {
            let cpu = CpuId(cpu as u16);
            assert_eq!(m.domain_of_cpu(cpu), t.domain_of_cpu(cpu));
        }
    }
}
