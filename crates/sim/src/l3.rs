//! Per-domain last-level caches.
//!
//! Each NUMA domain has one L3 shared by its cores. The engine runs one
//! virtual thread at a time, so a domain's L3 is a plain [`Cache`] that the
//! running thread borrows for the length of one access.

use crate::cache::{Cache, CacheConfig};
use numa_machine::DomainId;

/// The set of all L3 caches of a machine, indexed by domain.
pub struct L3Complex {
    caches: Vec<Cache>,
}

impl L3Complex {
    pub fn new(domains: usize, config: CacheConfig) -> Self {
        L3Complex {
            caches: (0..domains).map(|_| Cache::new(config)).collect(),
        }
    }

    pub fn domain(&self, d: DomainId) -> &Cache {
        &self.caches[d.index()]
    }

    pub fn domain_mut(&mut self, d: DomainId) -> &mut Cache {
        &mut self.caches[d.index()]
    }

    pub fn footprint_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.footprint_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_across_sets() {
        let mut complex = L3Complex::new(1, CacheConfig::l3());
        let l3 = complex.domain_mut(DomainId(0));
        for i in 0..64u64 {
            assert!(!l3.access(i * 64));
        }
        for i in 0..64u64 {
            assert!(l3.access(i * 64), "line {i} missing");
        }
    }

    #[test]
    fn probe_is_passive() {
        let mut complex = L3Complex::new(1, CacheConfig::l3());
        let l3 = complex.domain_mut(DomainId(0));
        assert!(!l3.probe(0x40));
        assert!(!l3.access(0x40));
        assert!(l3.probe(0x40));
    }

    #[test]
    fn domains_are_independent() {
        let mut complex = L3Complex::new(2, CacheConfig::l3());
        complex.domain_mut(DomainId(0)).access(0x1000);
        assert!(complex.domain(DomainId(0)).probe(0x1000));
        assert!(!complex.domain(DomainId(1)).probe(0x1000));
    }

    #[test]
    fn full_configured_capacity_is_usable() {
        let mut complex = L3Complex::new(1, CacheConfig::l3());
        let l3 = complex.domain_mut(DomainId(0));
        let lines = (8 * 1024 * 1024 / 64) as u64;
        for i in 0..lines {
            l3.access(i * 64);
        }
        let present = (0..lines).filter(|&i| l3.probe(i * 64)).count();
        assert_eq!(
            present as u64, lines,
            "a just-filled cache retains its capacity"
        );
    }
}
