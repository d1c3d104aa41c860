//! Per-domain last-level caches.
//!
//! Each NUMA domain has one L3 shared by its cores. The engine runs one
//! virtual thread at a time, so a domain's L3 is a plain [`Cache`] that the
//! running thread borrows for the length of one access.
//!
//! A local L3 miss asks which *other* domain's L3 holds the line. Probing
//! every domain's set for that costs a host cache line per domain, so the
//! complex keeps a 64-bit signature per set and domain: a hashed bit of
//! every line that domain holds in that set. A clear
//! bit proves the line absent; a set bit is confirmed by a probe. The
//! signatures of one set sit next to each other, so the search reads one
//! host line of signatures and probes only the domains that may hold the
//! line — in the order a probe of every domain would, with the same answer.

use crate::cache::{host_aligned, line_of, Cache, CacheConfig, Lookup, INVALID};
use numa_machine::DomainId;

/// Ways of every L3 (see [`CacheConfig::l3`]).
pub const L3_WAYS: usize = 16;

/// The signature bit of `line`: six bits of a multiplicative hash, so lines
/// of one set (which share their low bits) spread over the word.
#[inline]
fn signature_bit(line: u32) -> u64 {
    1 << (line.wrapping_mul(0x9E37_79B9) >> 26)
}

/// The set of all L3 caches of a machine, indexed by domain.
pub struct L3Complex {
    caches: Vec<Cache<L3_WAYS>>,
    /// `sets × domains` signatures from index `first`, row per set (see
    /// the module doc); the entries before `first` align the rows to host
    /// cache lines.
    signatures: Vec<u64>,
    first: usize,
}

impl L3Complex {
    /// `domains` L3s of geometry `config`, which must have [`L3_WAYS`] ways.
    pub fn new(domains: usize, config: CacheConfig) -> Self {
        let (signatures, first) = host_aligned(0, config.sets() * domains);
        L3Complex {
            caches: (0..domains).map(|_| Cache::new(config)).collect(),
            signatures,
            first,
        }
    }

    pub fn domain(&self, d: DomainId) -> &Cache<L3_WAYS> {
        &self.caches[d.index()]
    }

    /// [`Cache::access`] on domain `d`'s L3, keeping its signature.
    #[inline]
    pub fn access(&mut self, d: DomainId, addr: u64) -> bool {
        let line = line_of(addr);
        let domains = self.caches.len();
        let cache = &mut self.caches[d.index()];
        let Lookup::Miss { evicted } = cache.lookup(line) else {
            return true;
        };
        let set = cache.set_of(line);
        let signature = &mut self.signatures[self.first + set * domains + d.index()];
        if evicted == INVALID {
            *signature |= signature_bit(line);
        } else {
            // The evicted line's bit may be shared: rebuild from the set.
            *signature = cache
                .row(set)
                .iter()
                .fold(0, |sig, &l| sig | signature_bit(l));
        }
        false
    }

    /// Which domain other than `local` holds `addr` in its L3, if any:
    /// `home` first (its directory is the natural owner), then the rest in
    /// ascending order.
    #[inline]
    pub fn remote_holder(&self, addr: u64, local: DomainId, home: DomainId) -> Option<DomainId> {
        let line = line_of(addr);
        let domains = self.caches.len();
        let set = self.caches[0].set_of(line);
        let row = self.first + set * domains;
        let signatures = &self.signatures[row..row + domains];
        let bit = signature_bit(line);
        let holds = |d: usize| signatures[d] & bit != 0 && self.caches[d].holds(line);
        if home != local && holds(home.index()) {
            return Some(home);
        }
        (0..domains)
            .find(|&d| d != local.index() && d != home.index() && holds(d))
            .map(|d| DomainId(d as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_across_sets() {
        let mut complex = L3Complex::new(1, CacheConfig::l3());
        for i in 0..64u64 {
            assert!(!complex.access(DomainId(0), i * 64));
        }
        for i in 0..64u64 {
            assert!(complex.access(DomainId(0), i * 64), "line {i} missing");
        }
    }

    #[test]
    fn probe_is_passive() {
        let mut complex = L3Complex::new(1, CacheConfig::l3());
        assert!(!complex.domain(DomainId(0)).probe(0x40));
        assert!(!complex.access(DomainId(0), 0x40));
        assert!(complex.domain(DomainId(0)).probe(0x40));
    }

    #[test]
    fn domains_are_independent() {
        let mut complex = L3Complex::new(2, CacheConfig::l3());
        complex.access(DomainId(0), 0x1000);
        assert!(complex.domain(DomainId(0)).probe(0x1000));
        assert!(!complex.domain(DomainId(1)).probe(0x1000));
        assert_eq!(
            complex.remote_holder(0x1000, DomainId(1), DomainId(1)),
            Some(DomainId(0))
        );
        assert_eq!(
            complex.remote_holder(0x1000, DomainId(0), DomainId(1)),
            None
        );
    }

    #[test]
    fn full_configured_capacity_is_usable() {
        let mut complex = L3Complex::new(1, CacheConfig::l3());
        let lines = (8 * 1024 * 1024 / 64) as u64;
        for i in 0..lines {
            complex.access(DomainId(0), i * 64);
        }
        let l3 = complex.domain(DomainId(0));
        let present = (0..lines).filter(|&i| l3.probe(i * 64)).count();
        assert_eq!(
            present as u64, lines,
            "a just-filled cache retains its capacity"
        );
    }
}
