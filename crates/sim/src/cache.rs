//! Set-associative LRU cache, used for private L1/L2 and the per-domain
//! shared L3 levels.
//!
//! Only presence is simulated, not data: the profiler's events need "where
//! was this access satisfied", which a tags-only model answers. Lines are
//! 64 bytes.

/// Line size in bytes (fixed — every modern x86/POWER level uses 64 B).
pub const LINE_SIZE: u64 = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// The tag of an empty way. No line reaches it: [`line_of`] keeps line
/// numbers below it.
pub(crate) const INVALID: u32 = u32::MAX;

/// Line number of `addr` (`addr >> LINE_SHIFT`) as the caches store it.
/// The address space hands out only addresses whose lines fit
/// (`AddressSpace::allocate` asserts it), so this holds for every address
/// a simulated program can reach.
#[inline]
pub(crate) fn line_of(addr: u64) -> u32 {
    let line = addr >> LINE_SHIFT;
    assert!(
        line < INVALID as u64,
        "address {addr:#x} is beyond the cache model's 32-bit line numbers"
    );
    line as u32
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug)]
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

/// Host cache line: rows of 2, 4, 8 or 16 ways never straddle two.
const HOST_LINE: usize = 64;

/// `len` copies of `fill` starting at index `first` of the returned
/// vector, which is the first element on a host cache line boundary; the
/// elements before it are padding.
pub(crate) fn host_aligned<T: Clone>(fill: T, len: usize) -> (Vec<T>, usize) {
    let size = std::mem::size_of::<T>();
    let v = vec![fill; HOST_LINE / size + len];
    let first = (HOST_LINE - v.as_ptr() as usize % HOST_LINE) % HOST_LINE / size;
    (v, first)
}

/// Ways per set a recency word can order: one nibble each in a `u64`.
const MAX_WAYS: usize = 16;

/// `1` in every nibble.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// The low `n` nibbles (`1 <= n <= 16`).
#[inline]
fn low_nibbles(n: usize) -> u64 {
    u64::MAX >> (64 - 4 * n)
}

/// What [`Cache::lookup`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Lookup {
    Hit,
    /// The line was filled into the way that held `evicted` ([`INVALID`]
    /// if the way was empty).
    Miss {
        evicted: u32,
    },
}

/// A tags-only `WAYS`-way set-associative cache with true-LRU replacement.
///
/// Each set is a row of `u32` line numbers, one per way, plus a *recency
/// word*: the way numbers from most to least recently used, a nibble each
/// (nibble 0 is the most recently used way). A hit moves its way to nibble
/// 0 and writes nothing else; a miss fills the way in the last nibble and
/// moves it to nibble 0. A fresh word lists the ways in descending order,
/// and an empty way is never hit, so empty ways fill in way order before
/// anything is evicted, and after that the least recently used way goes —
/// the way a per-way timestamp model picks (`tests/cache_model.rs` checks
/// the two against each other).
pub struct Cache<const WAYS: usize> {
    set_mask: usize,
    /// Row of set `s` is `tags[first + s * WAYS..][..WAYS]`; the entries
    /// before `first` only align the rows to host cache lines.
    tags: Vec<u32>,
    first: usize,
    /// One recency word per set.
    order: Vec<u64>,
}

impl<const WAYS: usize> Cache<WAYS> {
    pub fn new(config: CacheConfig) -> Self {
        assert_eq!(config.associativity, WAYS, "associativity of the config");
        assert!(
            WAYS <= MAX_WAYS,
            "a recency word orders at most {MAX_WAYS} ways"
        );
        let sets = config.sets();
        let (tags, first) = host_aligned(INVALID, sets * WAYS);
        let fresh = (0..WAYS).fold(0, |word, pos| word | ((WAYS - 1 - pos) as u64) << (4 * pos));
        Cache {
            set_mask: sets - 1,
            tags,
            first,
            order: vec![fresh; sets],
        }
    }

    #[inline]
    pub(crate) fn set_of(&self, line: u32) -> usize {
        line as usize & self.set_mask
    }

    /// The lines of one set, in way order.
    #[inline]
    pub(crate) fn row(&self, set: usize) -> &[u32; WAYS] {
        let start = self.first + set * WAYS;
        self.tags[start..start + WAYS]
            .try_into()
            .expect("a row is WAYS long")
    }

    /// Look `line` up, updating the LRU order and filling it on a miss.
    #[inline]
    pub(crate) fn lookup(&mut self, line: u32) -> Lookup {
        let set = self.set_of(line);
        let start = self.first + set * WAYS;
        let row: &mut [u32; WAYS] = (&mut self.tags[start..start + WAYS])
            .try_into()
            .expect("a row is WAYS long");
        let order = &mut self.order[set];
        // Compare every way without an early exit: a loop whose trip
        // count depends on where the line sits defeats branch prediction.
        let matches = row
            .iter()
            .enumerate()
            .fold(0u32, |mask, (w, &t)| mask | ((t == line) as u32) << w);
        if matches != 0 {
            // The way's nibble is the lowest zero nibble of the word XOR
            // the way in every nibble (each way is listed once, so the
            // lowest is exact); shift the nibbles below it up by one and
            // put the way in nibble 0.
            let way = matches.trailing_zeros() as u64;
            let x = *order ^ (way * NIBBLE_ONES);
            let zeros = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
            let below = low_nibbles(zeros.trailing_zeros() as usize / 4 + 1);
            *order = (*order & !below) | (*order << 4 & below) | way;
            Lookup::Hit
        } else {
            let victim = (*order >> (4 * (WAYS - 1))) as usize & 0xF;
            let evicted = std::mem::replace(&mut row[victim], line);
            *order = (*order << 4 & low_nibbles(WAYS)) | victim as u64;
            Lookup::Miss { evicted }
        }
    }

    /// Look up the line holding `addr`, updating LRU state and inserting it
    /// on a miss. Returns true on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.lookup(line_of(addr)) == Lookup::Hit
    }

    /// Is `line` resident? No LRU update, no fill.
    #[inline]
    pub(crate) fn holds(&self, line: u32) -> bool {
        self.row(self.set_of(line)).contains(&line)
    }

    /// Non-destructive presence check (no LRU update, no fill).
    pub fn probe(&self, addr: u64) -> bool {
        self.holds(line_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache<2> {
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
    #[should_panic(expected = "associativity")]
    fn config_must_match_the_way_count() {
        Cache::<8>::new(CacheConfig::new(32 * LINE_SIZE, 4));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheConfig::new(3 * LINE_SIZE, 1);
    }

    #[test]
    fn rows_do_not_straddle_host_lines() {
        let c = Cache::<16>::new(CacheConfig::l3());
        assert_eq!(c.row(0).as_ptr() as usize % HOST_LINE, 0);
        let c = Cache::<8>::new(CacheConfig::l1d());
        assert_eq!(c.row(1).as_ptr() as usize % HOST_LINE, 32);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
    }

    #[test]
    #[should_panic(expected = "recency word")]
    fn more_ways_than_a_recency_word_orders_rejected() {
        Cache::<32>::new(CacheConfig::new(32 * LINE_SIZE, 32));
    }

    #[test]
    fn empty_ways_fill_in_way_order_then_lru() {
        let mut c = Cache::<4>::new(CacheConfig::new(4 * LINE_SIZE, 4)); // one set
        for line in 0..3 {
            assert_eq!(c.lookup(line), Lookup::Miss { evicted: INVALID });
        }
        assert_eq!(c.row(0), &[0, 1, 2, INVALID]);
        assert_eq!(c.lookup(0), Lookup::Hit); // 1 is now the least recent
        assert_eq!(c.lookup(3), Lookup::Miss { evicted: INVALID });
        assert_eq!(c.lookup(4), Lookup::Miss { evicted: 1 });
        assert_eq!(c.row(0), &[0, 4, 2, 3]);
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
        // 64 lines cycling through an 8-line cache with LRU: every access
        // misses.
        for _ in 0..3 {
            for line in 0..64u64 {
                assert!(!c.access(line * LINE_SIZE), "line {line} hit");
            }
        }
    }
}
