//! Set-associative LRU cache, used for private L1/L2 and (sharded) shared
//! L3 levels.
//!
//! Only presence is simulated, not data: the profiler's events need "where
//! was this access satisfied", which a tags-only model answers. Lines are
//! 64 bytes.

use serde::Serialize;

/// Line size in bytes (fixed — every modern x86/POWER level uses 64 B).
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

const INVALID: u64 = u64::MAX;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CacheConfig {
    pub size_bytes: u64,
    pub associativity: usize,
}

impl CacheConfig {
    pub fn new(size_bytes: u64, associativity: usize) -> Self {
        assert!(associativity >= 1);
        let lines = size_bytes / LINE_SIZE;
        assert!(lines >= associativity as u64, "cache smaller than one set");
        let sets = lines / associativity as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            associativity,
        }
    }

    /// Typical private L1D: 32 KiB, 8-way.
    pub fn l1d() -> Self {
        CacheConfig::new(32 * 1024, 8)
    }

    /// Typical private L2: 512 KiB, 8-way.
    pub fn l2() -> Self {
        CacheConfig::new(512 * 1024, 8)
    }

    /// Shared per-domain L3: 8 MiB, 16-way (order of a per-die last-level
    /// cache; rounded so sets stay a power of two).
    pub fn l3() -> Self {
        CacheConfig::new(8 * 1024 * 1024, 16)
    }

    pub fn sets(&self) -> usize {
        (self.size_bytes / LINE_SIZE) as usize / self.associativity
    }
}

/// A tags-only set-associative cache with true-LRU replacement.
pub struct Cache {
    sets: usize,
    assoc: usize,
    /// `sets × assoc` line numbers (`addr >> LINE_SHIFT`), row per set.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.associativity;
        Cache {
            sets,
            assoc,
            tags: vec![INVALID; sets * assoc],
            stamps: vec![0; sets * assoc],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Look up the line holding `addr`, updating LRU state and inserting it
    /// on a miss. Returns true on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> LINE_SHIFT;
        let set = self.set_of(line);
        let base = set * self.assoc;
        self.tick += 1;
        let ways = &mut self.tags[base..base + self.assoc];
        if let Some(w) = ways.iter().position(|&t| t == line) {
            self.stamps[base + w] = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Evict the LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.assoc {
            let idx = base + w;
            if self.tags[idx] == INVALID {
                victim = w;
                break;
            }
            if self.stamps[idx] < oldest {
                oldest = self.stamps[idx];
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Non-destructive presence check (no LRU update, no fill).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> LINE_SHIFT;
        let set = self.set_of(line);
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&line)
    }

    /// Drop all lines (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.stamps.fill(0);
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate resident size of the simulator structure itself.
    pub fn footprint_bytes(&self) -> usize {
        self.tags.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 8 lines, 2-way → 4 sets.
        Cache::new(CacheConfig::new(8 * LINE_SIZE, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::l1d();
        assert_eq!(c.sets(), 64);
        assert_eq!(CacheConfig::l3().sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheConfig::new(3 * LINE_SIZE, 1);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * LINE_SIZE).
        let stride = 4 * LINE_SIZE;
        let (a, b, d) = (0, stride, 2 * stride);
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40)); // still a miss: probe didn't insert
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x80);
        c.flush();
        assert!(!c.probe(0x80));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        // 4 sets × 2 ways: 8 distinct lines in distinct (set,way) slots all fit.
        for line in 0..8u64 {
            c.access(line * LINE_SIZE);
        }
        for line in 0..8u64 {
            assert!(c.probe(line * LINE_SIZE), "line {line} evicted");
        }
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        for round in 0..3 {
            for line in 0..64u64 {
                let hit = c.access(line * LINE_SIZE);
                if round == 0 {
                    assert!(!hit);
                }
            }
        }
        // 64 lines cycling through 8-line cache with LRU: every access misses.
        assert_eq!(c.hits(), 0);
    }
}
