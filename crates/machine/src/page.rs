//! The page map: virtual page → NUMA domain binding plus page-protection
//! bits.
//!
//! Two paper mechanisms live here:
//!
//! * **Placement** — pages are bound lazily: on the first touch, the owning
//!   region's [`PlacementPolicy`] decides the domain, falling back to the
//!   toucher's domain for `FirstTouch` (the Linux default, §2).
//! * **Protection** — the profiler's first-touch pinpointing (§6) revokes
//!   access to the pages of a freshly allocated variable; the first access to
//!   each protected page raises a synchronous fault that the execution engine
//!   delivers to the profiler, which attributes it and restores access.
//!
//! The map is organized as a sorted list of *regions* (one per allocation),
//! each holding per-page cells. The map is shared through `&self` by the
//! engine, the profiler and the caller that built the machine, all on the
//! one simulation thread, so the region list sits in a `RefCell` and each
//! page's state in a `Cell`. [`PageMap::touch`] still costs a borrow and a
//! binary search — too much to pay on every simulated access, so each
//! virtual thread goes through its own [`PageTlb`], which answers repeat
//! touches of a page after one comparison with the map's *epoch*.
//!
//! The epoch counts the operations that can make a cached answer wrong:
//! [`PageMap::register_region`], [`PageMap::remove_region`] and
//! [`PageMap::protect_extent`] each bump it. Everything else only moves a
//! page toward the state a TLB entry already assumes (bound, unprotected):
//! a binding never changes while its region lives, and `touch` /
//! [`PageMap::unprotect_extent`] only clear protection.

use crate::ids::{pages_spanned, DomainId, PageNum, PAGE_SHIFT, PAGE_SIZE};
use crate::policy::PlacementPolicy;
use std::cell::{Cell, RefCell};

/// Sentinel for "page not yet bound to any domain".
const UNBOUND: u8 = u8::MAX;

/// What a page-access resolution reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageQuery {
    /// Domain now backing the page.
    pub domain: DomainId,
    /// True if this access performed the binding (i.e. it was the page's
    /// first touch since allocation).
    pub bound_now: bool,
    /// Raised fault, if the page was protected. The engine must deliver this
    /// to the monitor before completing the access.
    pub fault: Option<FaultKind>,
}

/// Kind of synchronous fault raised by an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Access hit a protected page (the simulated SIGSEGV of §6). The page
    /// has already been unprotected; the faulting access then proceeds.
    FirstTouchTrap,
}

struct Region {
    start: u64,
    bytes: u64,
    policy: PlacementPolicy,
    /// Domain per page, `UNBOUND` until first touch.
    domains: Vec<Cell<u8>>,
    /// Per page: protected for first-touch trapping (see
    /// [`PageMap::protect_extent`]).
    trap: Vec<Cell<bool>>,
}

impl Region {
    fn pages(&self) -> u64 {
        pages_spanned(self.start, self.bytes)
    }

    fn end(&self) -> u64 {
        self.start + self.bytes
    }

    fn page_index(&self, addr: u64) -> usize {
        ((addr >> PAGE_SHIFT) - (self.start >> PAGE_SHIFT)) as usize
    }
}

/// The page map of one machine.
pub struct PageMap {
    num_domains: usize,
    regions: RefCell<Vec<Region>>,
    /// See the module doc.
    epoch: Cell<u64>,
}

impl PageMap {
    pub fn new(num_domains: usize) -> Self {
        assert!(num_domains >= 1 && num_domains < UNBOUND as usize);
        PageMap {
            num_domains,
            regions: RefCell::new(Vec::new()),
            epoch: Cell::new(0),
        }
    }

    pub fn num_domains(&self) -> usize {
        self.num_domains
    }

    /// Register an allocation region `[start, start+bytes)` with a placement
    /// policy. Regions must not overlap.
    ///
    /// # Panics
    /// Panics on overlap with an existing region or zero-size region.
    pub fn register_region(&self, start: u64, bytes: u64, policy: PlacementPolicy) {
        assert!(bytes > 0, "empty region");
        if let PlacementPolicy::Bind(d) = &policy {
            assert!(d.index() < self.num_domains, "bind domain out of range");
        }
        let pages = pages_spanned(start, bytes) as usize;
        let region = Region {
            start,
            bytes,
            policy,
            domains: vec![Cell::new(UNBOUND); pages],
            trap: vec![Cell::new(false); pages],
        };
        let mut regions = self.regions.borrow_mut();
        let pos = regions.partition_point(|r| r.start < start);
        if pos > 0 {
            let prev = &regions[pos - 1];
            assert!(prev.end() <= start, "region overlaps predecessor");
        }
        if pos < regions.len() {
            let next = &regions[pos];
            assert!(region.end() <= next.start, "region overlaps successor");
        }
        regions.insert(pos, region);
        self.bump_epoch();
    }

    /// Remove the region starting at `start` (e.g. on `free`). Returns true
    /// if a region was removed.
    pub fn remove_region(&self, start: u64) -> bool {
        let mut regions = self.regions.borrow_mut();
        if let Ok(idx) = regions.binary_search_by_key(&start, |r| r.start) {
            regions.remove(idx);
            self.bump_epoch();
            true
        } else {
            false
        }
    }

    /// Resolve an access to `addr` by a thread running in `toucher`'s
    /// domain: binds the page if this is its first touch and reports any
    /// protection fault (clearing the protection so the access can retry).
    ///
    /// # Panics
    /// Panics if `addr` does not fall in any registered region ("wild"
    /// accesses are workload bugs).
    pub fn touch(&self, addr: u64, toucher: DomainId) -> PageQuery {
        let regions = self.regions.borrow();
        let r = Self::find(&regions, addr)
            .unwrap_or_else(|| panic!("access to unmapped address {addr:#x}"));
        let idx = r.page_index(addr);

        // Protection check first: the fault conceptually precedes the
        // access, and clears the protection.
        let fault = r.trap[idx]
            .replace(false)
            .then_some(FaultKind::FirstTouchTrap);

        let cell = &r.domains[idx];
        let current = cell.get();
        if current != UNBOUND {
            return PageQuery {
                domain: DomainId(current),
                bound_now: false,
                fault,
            };
        }
        let target = r
            .policy
            .domain_for_page(idx as u64, r.pages())
            .unwrap_or(toucher);
        debug_assert!(target.index() < self.num_domains);
        cell.set(target.0);
        PageQuery {
            domain: target,
            bound_now: true,
            fault,
        }
    }

    /// The domain backing `addr`, or `None` if unmapped or not yet touched.
    /// This is the `move_pages` query the profiler issues per sample.
    pub fn domain_of_addr(&self, addr: u64) -> Option<DomainId> {
        let regions = self.regions.borrow();
        let r = Self::find(&regions, addr)?;
        let d = r.domains[r.page_index(addr)].get();
        (d != UNBOUND).then_some(DomainId(d))
    }

    /// Protect the pages of the variable extent `[start, start+bytes)` for
    /// first-touch trapping. Following §6, only pages *fully contained* in
    /// the extent ("between the first and last page boundaries within the
    /// variable's extent") are protected, so accesses to neighbouring
    /// variables sharing a boundary page never fault spuriously.
    ///
    /// Returns the number of pages protected.
    pub fn protect_extent(&self, start: u64, bytes: u64) -> u64 {
        let first_full = start.div_ceil(PAGE_SIZE);
        let end_full = (start + bytes) >> PAGE_SHIFT; // exclusive page number
        if end_full <= first_full {
            return 0;
        }
        let regions = self.regions.borrow();
        let mut protected = 0;
        for pn in first_full..end_full {
            let addr = PageNum(pn).base_addr();
            if let Some(r) = Self::find(&regions, addr) {
                r.trap[r.page_index(addr)].set(true);
                protected += 1;
            }
        }
        self.bump_epoch();
        protected
    }

    /// Clear protection on every page of `[start, start+bytes)`.
    pub fn unprotect_extent(&self, start: u64, bytes: u64) {
        let regions = self.regions.borrow();
        let first = start >> PAGE_SHIFT;
        let last = (start + bytes.max(1) - 1) >> PAGE_SHIFT;
        for pn in first..=last {
            let addr = PageNum(pn).base_addr().max(start);
            if let Some(r) = Self::find(&regions, addr) {
                r.trap[r.page_index(addr)].set(false);
            }
        }
    }

    /// Is the page holding `addr` currently protected?
    pub fn is_protected(&self, addr: u64) -> bool {
        let regions = self.regions.borrow();
        Self::find(&regions, addr).is_some_and(|r| r.trap[r.page_index(addr)].get())
    }

    /// Pages of region `start` bound to each domain (index = domain id).
    /// Useful for verifying distributions in tests and reports.
    pub fn binding_histogram(&self, start: u64) -> Option<Vec<u64>> {
        let regions = self.regions.borrow();
        let idx = regions.binary_search_by_key(&start, |r| r.start).ok()?;
        let r = &regions[idx];
        let mut hist = vec![0u64; self.num_domains];
        for cell in &r.domains {
            let d = cell.get();
            if d != UNBOUND {
                hist[d as usize] += 1;
            }
        }
        Some(hist)
    }

    /// Total number of registered regions (diagnostics / footprint).
    pub fn region_count(&self) -> usize {
        self.regions.borrow().len()
    }

    /// Approximate resident bytes of the map itself (for the paper's <40 MB
    /// footprint check).
    pub fn footprint_bytes(&self) -> usize {
        let regions = self.regions.borrow();
        regions
            .iter()
            .map(|r| std::mem::size_of::<Region>() + r.domains.len() * 2)
            .sum()
    }

    fn bump_epoch(&self) {
        self.epoch.set(self.epoch.get() + 1);
    }

    fn find(regions: &[Region], addr: u64) -> Option<&Region> {
        let pos = regions.partition_point(|r| r.start <= addr);
        if pos == 0 {
            return None;
        }
        let r = &regions[pos - 1];
        (addr < r.end()).then_some(r)
    }
}

/// Slots in a [`PageTlb`]; a power of two, indexed by the low page-number
/// bits.
const TLB_SLOTS: usize = 256;

/// A slot that matches no page: page numbers have at most 52 bits.
const TLB_EMPTY: u64 = u64::MAX;

/// One thread's direct-mapped cache of page → home domain.
///
/// A slot is filled only from a [`PageMap::touch`] answer, after which the
/// page is bound and unprotected, and every slot is dropped as soon as the
/// map's epoch has moved — so a hit may answer `bound_now: false, fault:
/// None` without looking at the map.
pub struct PageTlb {
    epoch: u64,
    /// `page number << 8 | domain`.
    slots: [u64; TLB_SLOTS],
}

impl Default for PageTlb {
    fn default() -> Self {
        PageTlb {
            epoch: 0,
            slots: [TLB_EMPTY; TLB_SLOTS],
        }
    }
}

impl PageTlb {
    /// [`PageMap::touch`], answered from the cache when it can be.
    #[inline]
    pub fn touch(&mut self, map: &PageMap, addr: u64, toucher: DomainId) -> PageQuery {
        let epoch = map.epoch.get();
        if epoch != self.epoch {
            self.slots.fill(TLB_EMPTY);
            self.epoch = epoch;
        }
        let page = addr >> PAGE_SHIFT;
        let slot = &mut self.slots[page as usize % TLB_SLOTS];
        if *slot >> 8 == page {
            return PageQuery {
                domain: DomainId(*slot as u8),
                bound_now: false,
                fault: None,
            };
        }
        let q = map.touch(addr, toucher);
        *slot = page << 8 | q.domain.0 as u64;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> PageMap {
        PageMap::new(8)
    }

    const BASE: u64 = 0x10_0000;

    #[test]
    fn first_touch_binds_to_toucher() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let q = m.touch(BASE + 10, DomainId(3));
        assert_eq!(q.domain, DomainId(3));
        assert!(q.bound_now);
        // Second touch from elsewhere does not rebind.
        let q2 = m.touch(BASE + 20, DomainId(5));
        assert_eq!(q2.domain, DomainId(3));
        assert!(!q2.bound_now);
        assert_eq!(m.domain_of_addr(BASE), Some(DomainId(3)));
    }

    #[test]
    fn untouched_page_has_no_domain() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert_eq!(m.domain_of_addr(BASE + 2 * PAGE_SIZE), None);
    }

    #[test]
    fn interleave_ignores_toucher() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::interleave_all(4));
        for p in 0..4u64 {
            let q = m.touch(BASE + p * PAGE_SIZE, DomainId(7));
            assert_eq!(q.domain, DomainId((p % 4) as u8));
        }
    }

    #[test]
    fn blockwise_distribution_binds_blocks() {
        let m = map();
        m.register_region(BASE, 8 * PAGE_SIZE, PlacementPolicy::blockwise_all(4));
        for p in 0..8u64 {
            m.touch(BASE + p * PAGE_SIZE, DomainId(0));
        }
        let hist = m.binding_histogram(BASE).unwrap();
        assert_eq!(hist, vec![2, 2, 2, 2, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn wild_access_panics() {
        map().touch(0xdead_0000, DomainId(0));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.register_region(BASE + PAGE_SIZE, PAGE_SIZE, PlacementPolicy::FirstTouch);
    }

    #[test]
    fn adjacent_regions_allowed() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.register_region(
            BASE + 4 * PAGE_SIZE,
            PAGE_SIZE,
            PlacementPolicy::Bind(DomainId(1)),
        );
        let q = m.touch(BASE + 4 * PAGE_SIZE, DomainId(0));
        assert_eq!(q.domain, DomainId(1));
    }

    #[test]
    fn remove_region_unmaps() {
        let m = map();
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert!(m.remove_region(BASE));
        assert!(!m.remove_region(BASE));
        assert_eq!(m.domain_of_addr(BASE), None);
    }

    #[test]
    fn protection_faults_once_per_page() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert_eq!(m.protect_extent(BASE, 4 * PAGE_SIZE), 4);
        assert!(m.is_protected(BASE));
        let q = m.touch(BASE + 100, DomainId(0));
        assert_eq!(q.fault, Some(FaultKind::FirstTouchTrap));
        // Fault already consumed; subsequent touches of the same page are clean.
        let q2 = m.touch(BASE + 200, DomainId(0));
        assert_eq!(q2.fault, None);
        // Other pages still protected.
        let q3 = m.touch(BASE + PAGE_SIZE, DomainId(0));
        assert_eq!(q3.fault, Some(FaultKind::FirstTouchTrap));
    }

    #[test]
    fn protect_extent_skips_partial_boundary_pages() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        // Extent starts mid-page and ends mid-page: only the two fully
        // contained pages are protected (§6).
        let protected = m.protect_extent(BASE + 100, 3 * PAGE_SIZE);
        assert_eq!(protected, 2);
        assert!(!m.is_protected(BASE + 100));
        assert!(m.is_protected(BASE + PAGE_SIZE));
        assert!(m.is_protected(BASE + 2 * PAGE_SIZE));
        assert!(!m.is_protected(BASE + 3 * PAGE_SIZE + 100));
    }

    #[test]
    fn protect_extent_smaller_than_page_protects_nothing() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert_eq!(m.protect_extent(BASE + 8, 64), 0);
    }

    #[test]
    fn unprotect_extent_clears_flags() {
        let m = map();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        m.protect_extent(BASE, 4 * PAGE_SIZE);
        m.unprotect_extent(BASE, 4 * PAGE_SIZE);
        for p in 0..4u64 {
            assert!(!m.is_protected(BASE + p * PAGE_SIZE));
        }
    }

    #[test]
    fn tlb_hit_repeats_the_maps_answer() {
        let m = map();
        let mut tlb = PageTlb::default();
        m.register_region(BASE, 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let first = tlb.touch(&m, BASE + 8, DomainId(3));
        assert!(first.bound_now);
        let hit = PageQuery {
            domain: DomainId(3),
            bound_now: false,
            fault: None,
        };
        // A hit ignores the toucher, as a bound page does.
        assert_eq!(tlb.touch(&m, BASE + 16, DomainId(5)), hit);
        assert_eq!(
            tlb.touch(&m, BASE + 16, DomainId(5)),
            m.touch(BASE, DomainId(5))
        );
        // Pages that collide in the direct-mapped table evict each other
        // and still resolve.
        let far = BASE + TLB_SLOTS as u64 * PAGE_SIZE;
        m.register_region(far, PAGE_SIZE, PlacementPolicy::Bind(DomainId(6)));
        assert_eq!(tlb.touch(&m, far, DomainId(0)).domain, DomainId(6));
        assert_eq!(tlb.touch(&m, BASE, DomainId(0)), hit);
        assert_eq!(tlb.touch(&m, far, DomainId(0)).domain, DomainId(6));
    }

    #[test]
    fn a_binding_made_through_one_tlb_is_seen_through_another() {
        let m = map();
        let (mut t0, mut t5) = (PageTlb::default(), PageTlb::default());
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert!(t0.touch(&m, BASE, DomainId(0)).bound_now);
        for _ in 0..2 {
            let q = t5.touch(&m, BASE, DomainId(5));
            assert_eq!((q.domain, q.bound_now), (DomainId(0), false));
        }
    }

    #[test]
    fn protecting_touched_pages_traps_once_per_page_through_a_warm_tlb() {
        let m = map();
        let mut tlb = PageTlb::default();
        m.register_region(BASE, 4 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let sweep = |tlb: &mut PageTlb| {
            (0..8u64)
                .filter(|i| {
                    let q = tlb.touch(&m, BASE + i / 2 * PAGE_SIZE + i % 2 * 64, DomainId(1));
                    q.fault.is_some()
                })
                .count()
        };
        assert_eq!(sweep(&mut tlb), 0);
        assert_eq!(m.protect_extent(BASE, 4 * PAGE_SIZE), 4);
        assert_eq!(sweep(&mut tlb), 4, "one trap per page, not per access");
        assert_eq!(sweep(&mut tlb), 0);
    }

    #[test]
    #[should_panic(expected = "access to unmapped address")]
    fn a_warm_tlb_does_not_outlive_its_region() {
        let m = map();
        let mut tlb = PageTlb::default();
        m.register_region(BASE, PAGE_SIZE, PlacementPolicy::FirstTouch);
        tlb.touch(&m, BASE, DomainId(0));
        tlb.touch(&m, BASE, DomainId(0));
        m.remove_region(BASE);
        tlb.touch(&m, BASE, DomainId(0));
    }

    #[test]
    fn footprint_scales_with_pages() {
        let m = map();
        m.register_region(BASE, 1024 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        assert!(m.footprint_bytes() >= 2048);
        assert!(m.footprint_bytes() < 64 * 1024);
    }
}
