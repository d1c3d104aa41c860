//! The cache model against the one it replaced: a set-associative cache
//! whose ways carry `u64` line tags and `u64` last-use stamps, with the
//! victim chosen as the first empty way in way order, else the way with
//! the oldest stamp. The model keeps one recency word per set instead,
//! and the L3 complex answers "which other domain holds this line" from
//! per-set signatures instead of probing every domain. Random
//! conflict-heavy streams (few sets, many lines) must get the same hit or
//! miss on every access, the same probe answers, and the same holder.

use numa_machine::DomainId;
use numa_sim::{Cache, CacheConfig, L3Complex, LINE_SIZE};
use proptest::prelude::*;

const INVALID: u64 = u64::MAX;

/// The stamp-LRU cache.
struct StampCache {
    sets: usize,
    assoc: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        let (sets, assoc) = (config.sets(), config.associativity);
        StampCache {
            sets,
            assoc,
            tags: vec![INVALID; sets * assoc],
            stamps: vec![0; sets * assoc],
            tick: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / LINE_SIZE;
        let base = (line as usize & (self.sets - 1)) * self.assoc;
        self.tick += 1;
        if let Some(w) = (0..self.assoc).find(|&w| self.tags[base + w] == line) {
            self.stamps[base + w] = self.tick;
            return true;
        }
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.assoc {
            if self.tags[base + w] == INVALID {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / LINE_SIZE;
        let base = (line as usize & (self.sets - 1)) * self.assoc;
        self.tags[base..base + self.assoc].contains(&line)
    }
}

/// The holder search by probing: `home` first, then every other domain in
/// ascending order.
fn probe_every_domain(l3s: &[StampCache], addr: u64, local: usize, home: usize) -> Option<usize> {
    if home != local && l3s[home].probe(addr) {
        return Some(home);
    }
    (0..l3s.len()).find(|&d| d != local && d != home && l3s[d].probe(addr))
}

/// The address of line `line` above the simulated address space's base.
fn addr(line: u64) -> u64 {
    0x1000_0000 + line * LINE_SIZE
}

/// Feed one stream to both caches; `ops` are `(line, probe line)`.
fn same_as_stamp_lru<const WAYS: usize>(sets: usize, ops: &[(u64, u64)]) {
    let config = CacheConfig::new((sets * WAYS) as u64 * LINE_SIZE, WAYS);
    let mut model = Cache::<WAYS>::new(config);
    let mut reference = StampCache::new(config);
    for (i, &(line, probe)) in ops.iter().enumerate() {
        assert_eq!(
            model.access(addr(line)),
            reference.access(addr(line)),
            "{WAYS}-way × {sets}: access {i} (line {line})"
        );
        assert_eq!(
            model.probe(addr(probe)),
            reference.probe(addr(probe)),
            "{WAYS}-way × {sets}: probe after access {i} (line {probe})"
        );
    }
}

proptest! {
    #[test]
    fn eight_way_sets_evict_what_stamp_lru_evicts(
        sets in prop::sample::select(vec![1usize, 2, 4]),
        ops in prop::collection::vec((0u64..48, 0u64..48), 1..1500)
    ) {
        same_as_stamp_lru::<8>(sets, &ops);
    }

    #[test]
    fn sixteen_way_sets_evict_what_stamp_lru_evicts(
        sets in prop::sample::select(vec![1usize, 2, 4]),
        ops in prop::collection::vec((0u64..96, 0u64..96), 1..1500)
    ) {
        same_as_stamp_lru::<16>(sets, &ops);
    }

    #[test]
    fn l3_holders_are_the_ones_probing_every_domain_finds(
        domains in 2usize..9,
        ops in prop::collection::vec((0usize..8, 0u64..80, 0usize..8), 1..1500)
    ) {
        // Two 16-way sets per domain: lines collide and evict constantly.
        let config = CacheConfig::new(2 * 16 * LINE_SIZE, 16);
        let mut complex = L3Complex::new(domains, config);
        let mut reference: Vec<StampCache> = (0..domains).map(|_| StampCache::new(config)).collect();
        for (i, &(local, line, home)) in ops.iter().enumerate() {
            let (local, home) = (local % domains, home % domains);
            let a = addr(line);
            let want = probe_every_domain(&reference, a, local, home);
            let got = complex.remote_holder(a, DomainId(local as u8), DomainId(home as u8));
            prop_assert_eq!(got.map(|d| d.index()), want, "holder before access {}", i);
            prop_assert_eq!(
                complex.access(DomainId(local as u8), a),
                reference[local].access(a),
                "access {} (domain {}, line {})", i, local, line
            );
            for (d, l3) in reference.iter().enumerate() {
                prop_assert_eq!(complex.domain(DomainId(d as u8)).probe(a), l3.probe(a));
            }
        }
    }
}

/// The empty ways of a set fill before anything is evicted, in way order,
/// and after that the oldest line goes — also when it was filled last of
/// all into a way a hit never touched again.
#[test]
fn a_full_set_evicts_its_least_recently_used_line() {
    let mut ops: Vec<(u64, u64)> = (0..8).map(|l| (l, l)).collect();
    ops.extend([(0, 7), (8, 1), (1, 1), (9, 2), (2, 3), (10, 0)]);
    same_as_stamp_lru::<8>(1, &ops);
}
