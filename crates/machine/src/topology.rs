//! NUMA topology: domains, sockets, cores, and SMT hardware threads.

use crate::ids::{CpuId, DomainId};
use serde::Serialize;

/// Static description of a machine's NUMA organization.
///
/// CPUs are numbered densely: CPU `i` belongs to domain
/// `i / (cores_per_domain * smt)`. This matches the common Linux enumeration
/// where hardware threads of one socket are contiguous.
#[derive(Clone, Debug, Serialize)]
pub struct Topology {
    name: String,
    domains: usize,
    /// Domains per physical socket (e.g. 2 for AMD Magny-Cours, whose two
    /// dies per package are distinct NUMA domains).
    domains_per_socket: usize,
    cores_per_domain: usize,
    /// Hardware threads per core (SMT width).
    smt: usize,
    /// Bytes of memory attached to each domain.
    mem_per_domain: u64,
}

impl Topology {
    pub fn new(
        name: impl Into<String>,
        domains: usize,
        domains_per_socket: usize,
        cores_per_domain: usize,
        smt: usize,
        mem_per_domain: u64,
    ) -> Self {
        assert!(domains >= 1, "a machine has at least one NUMA domain");
        assert!(domains <= 255, "DomainId is a u8");
        assert!(domains_per_socket >= 1 && domains_per_socket <= domains);
        assert_eq!(
            domains % domains_per_socket,
            0,
            "domains must fill whole sockets"
        );
        assert!(cores_per_domain >= 1);
        assert!(smt >= 1);
        let total = domains * cores_per_domain * smt;
        assert!(total <= u16::MAX as usize, "CpuId is a u16");
        Topology {
            name: name.into(),
            domains,
            domains_per_socket,
            cores_per_domain,
            smt,
            mem_per_domain,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn domains(&self) -> usize {
        self.domains
    }

    pub fn sockets(&self) -> usize {
        self.domains / self.domains_per_socket
    }

    pub fn cores_per_domain(&self) -> usize {
        self.cores_per_domain
    }

    pub fn smt(&self) -> usize {
        self.smt
    }

    pub fn mem_per_domain(&self) -> u64 {
        self.mem_per_domain
    }

    /// Total hardware threads (schedulable CPUs) in the machine.
    pub fn total_cpus(&self) -> usize {
        self.domains * self.cores_per_domain * self.smt
    }

    /// Hardware threads per NUMA domain.
    pub fn cpus_per_domain(&self) -> usize {
        self.cores_per_domain * self.smt
    }

    /// The NUMA domain containing a CPU (simulated `numa_node_of_cpu`).
    ///
    /// # Panics
    /// Panics if `cpu` is out of range for this topology.
    pub fn domain_of_cpu(&self, cpu: CpuId) -> DomainId {
        let idx = cpu.index();
        assert!(
            idx < self.total_cpus(),
            "cpu {idx} out of range for {} ({} cpus)",
            self.name,
            self.total_cpus()
        );
        DomainId((idx / self.cpus_per_domain()) as u8)
    }

    /// The socket containing a domain.
    pub fn socket_of_domain(&self, d: DomainId) -> usize {
        assert!(d.index() < self.domains);
        d.index() / self.domains_per_socket
    }

    /// All CPUs belonging to a domain, in id order.
    pub fn cpus_of_domain(&self, d: DomainId) -> impl Iterator<Item = CpuId> + '_ {
        let per = self.cpus_per_domain();
        let start = d.index() * per;
        (start..start + per).map(|i| CpuId(i as u16))
    }

    /// A compact round-robin binding of `n` software threads to CPUs that
    /// spreads threads across domains first and fills SMT last — the binding
    /// used by the paper's experiments ("we bind each thread to a core").
    ///
    /// Thread `t` is bound to domain `t % domains`, core slot `t / domains`.
    pub fn spread_binding(&self, n: usize) -> Vec<CpuId> {
        assert!(
            n <= self.total_cpus(),
            "cannot bind {n} threads to {} cpus",
            self.total_cpus()
        );
        (0..n)
            .map(|t| {
                let domain = t % self.domains;
                let slot = t / self.domains;
                CpuId((domain * self.cpus_per_domain() + slot) as u16)
            })
            .collect()
    }

    /// A compact binding that fills one domain completely before moving to
    /// the next. Thread `t` is bound to CPU `t`.
    pub fn compact_binding(&self, n: usize) -> Vec<CpuId> {
        assert!(n <= self.total_cpus());
        (0..n).map(|t| CpuId(t as u16)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Topology {
        Topology::new("toy", 4, 2, 3, 2, 1 << 30)
    }

    #[test]
    fn cpu_counts() {
        let t = toy();
        assert_eq!(t.total_cpus(), 24);
        assert_eq!(t.cpus_per_domain(), 6);
        assert_eq!(t.sockets(), 2);
    }

    #[test]
    fn domain_of_cpu_is_dense() {
        let t = toy();
        assert_eq!(t.domain_of_cpu(CpuId(0)), DomainId(0));
        assert_eq!(t.domain_of_cpu(CpuId(5)), DomainId(0));
        assert_eq!(t.domain_of_cpu(CpuId(6)), DomainId(1));
        assert_eq!(t.domain_of_cpu(CpuId(23)), DomainId(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn domain_of_cpu_panics_out_of_range() {
        toy().domain_of_cpu(CpuId(24));
    }

    #[test]
    fn socket_of_domain_groups_pairs() {
        let t = toy();
        assert_eq!(t.socket_of_domain(DomainId(0)), 0);
        assert_eq!(t.socket_of_domain(DomainId(1)), 0);
        assert_eq!(t.socket_of_domain(DomainId(2)), 1);
        assert_eq!(t.socket_of_domain(DomainId(3)), 1);
    }

    #[test]
    fn cpus_of_domain_enumerates_contiguous_block() {
        let t = toy();
        let cpus: Vec<_> = t.cpus_of_domain(DomainId(1)).collect();
        assert_eq!(cpus, (6..12).map(|i| CpuId(i as u16)).collect::<Vec<_>>());
    }

    #[test]
    fn spread_binding_round_robins_domains() {
        let t = toy();
        let b = t.spread_binding(8);
        let domains: Vec<_> = b.iter().map(|&c| t.domain_of_cpu(c).0).collect();
        assert_eq!(domains, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // No CPU is used twice.
        let mut sorted = b.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), b.len());
    }

    #[test]
    fn compact_binding_fills_domain_zero_first() {
        let t = toy();
        let b = t.compact_binding(7);
        let domains: Vec<_> = b.iter().map(|&c| t.domain_of_cpu(c).0).collect();
        assert_eq!(domains, vec![0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn full_spread_binding_uses_every_cpu_once() {
        let t = toy();
        let mut b = t.spread_binding(t.total_cpus());
        b.sort();
        let all: Vec<_> = (0..t.total_cpus()).map(|i| CpuId(i as u16)).collect();
        assert_eq!(b, all);
    }
}
