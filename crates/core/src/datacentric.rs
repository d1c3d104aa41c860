//! Data-centric attribution: variables and the address→variable map (§5.1).
//!
//! Heap variables are tracked from their allocation (with the full
//! allocation call path, as HPCToolkit attributes heap data to allocation
//! contexts); static variables are registered from the "symbol table" (the
//! workload announces them at startup); stack variables are supported as an
//! extension (the paper's future work #1).

use numa_machine::{PAGE_SHIFT, PAGE_SIZE};
use numa_sim::{Frame, VarKind};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Identifier of a monitored variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// Everything known about one variable.
#[derive(Clone, Debug)]
pub struct VarRecord {
    pub id: VarId,
    pub name: String,
    pub addr: u64,
    pub bytes: u64,
    pub kind: VarKind,
    /// Thread that performed the allocation.
    pub alloc_tid: usize,
    /// Full calling context of the allocation site.
    pub alloc_path: Vec<Frame>,
    /// Number of address-centric bins (§5.2): 1 for small variables, the
    /// configured bin count for variables spanning more than the threshold.
    pub bins: u16,
    /// Set when the variable was freed (late samples are dropped).
    pub freed: bool,
}

impl VarRecord {
    /// Bin index of an address within this variable.
    pub fn bin_of(&self, addr: u64) -> u16 {
        debug_assert!(addr >= self.addr && addr < self.addr + self.bytes);
        if self.bins <= 1 {
            return 0;
        }
        let off = addr - self.addr;
        // u128 to avoid overflow for huge variables.
        let idx = (off as u128 * self.bins as u128 / self.bytes as u128) as u16;
        idx.min(self.bins - 1)
    }

    /// Address range `[lo, hi)` of a bin.
    pub fn bin_range(&self, bin: u16) -> (u64, u64) {
        assert!(bin < self.bins.max(1));
        if self.bins <= 1 {
            return (self.addr, self.addr + self.bytes);
        }
        let lo = self.addr + self.bytes * bin as u64 / self.bins as u64;
        let hi = self.addr + self.bytes * (bin as u64 + 1) / self.bins as u64;
        (lo, hi)
    }

    /// Pages spanned by the variable's extent.
    pub fn pages(&self) -> u64 {
        let first = self.addr >> PAGE_SHIFT;
        let last = (self.addr + self.bytes - 1) >> PAGE_SHIFT;
        last - first + 1
    }
}

/// Decide the bin count per §5.2: a variable with an address range larger
/// than `threshold_pages` pages is divided into `bins` bins (default five
/// and five); smaller variables get a single bin.
pub fn bins_for(bytes: u64, bins: u16, threshold_pages: u64) -> u16 {
    if bytes > threshold_pages * PAGE_SIZE {
        bins.max(1)
    } else {
        1
    }
}

/// Registry of monitored variables with range lookup, updated through
/// `&self` from the profiler's allocation hooks.
pub struct VariableRegistry {
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    vars: Vec<VarRecord>,
    /// start → (end, id); ranges never overlap (the address space is a
    /// monotone bump allocator).
    by_range: BTreeMap<u64, (u64, VarId)>,
}

impl Default for VariableRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl VariableRegistry {
    pub fn new() -> Self {
        VariableRegistry {
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Register a variable; returns its id.
    #[allow(clippy::too_many_arguments)] // mirrors the allocation event's fields
    pub fn register(
        &self,
        name: &str,
        addr: u64,
        bytes: u64,
        kind: VarKind,
        alloc_tid: usize,
        alloc_path: Vec<Frame>,
        bins: u16,
    ) -> VarId {
        let mut inner = self.inner.borrow_mut();
        let id = VarId(inner.vars.len() as u32);
        inner.vars.push(VarRecord {
            id,
            name: name.to_string(),
            addr,
            bytes,
            kind,
            alloc_tid,
            alloc_path,
            bins,
            freed: false,
        });
        inner.by_range.insert(addr, (addr + bytes, id));
        id
    }

    /// The live variable containing `addr`, if any.
    pub fn lookup(&self, addr: u64) -> Option<VarId> {
        let inner = self.inner.borrow();
        let (_, &(end, id)) = inner.by_range.range(..=addr).next_back()?;
        (addr < end && !inner.vars[id.0 as usize].freed).then_some(id)
    }

    /// Mark the variable starting at `addr` freed. Returns its id.
    pub fn mark_freed(&self, addr: u64) -> Option<VarId> {
        let mut inner = self.inner.borrow_mut();
        let &(_, id) = inner.by_range.get(&addr)?;
        inner.vars[id.0 as usize].freed = true;
        Some(id)
    }

    /// Snapshot of a record.
    pub fn record(&self, id: VarId) -> VarRecord {
        self.inner.borrow().vars[id.0 as usize].clone()
    }

    /// Run `f` against a record without cloning it (per-sample hot path).
    pub fn with_record<R>(&self, id: VarId, f: impl FnOnce(&VarRecord) -> R) -> R {
        f(&self.inner.borrow().vars[id.0 as usize])
    }

    /// All records (snapshot).
    pub fn all(&self) -> Vec<VarRecord> {
        self.inner.borrow().vars.clone()
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes.
    pub fn footprint_bytes(&self) -> usize {
        let inner = self.inner.borrow();
        inner.vars.len() * (std::mem::size_of::<VarRecord>() + 32) + inner.by_range.len() * 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(name: &str, addr: u64, bytes: u64, bins: u16) -> (VariableRegistry, VarId) {
        let r = VariableRegistry::new();
        let id = r.register(name, addr, bytes, VarKind::Heap, 0, Vec::new(), bins);
        (r, id)
    }

    #[test]
    fn lookup_hits_inside_range_only() {
        let (r, id) = registry_with("z", 0x10000, 0x1000, 1);
        assert_eq!(r.lookup(0x10000), Some(id));
        assert_eq!(r.lookup(0x10fff), Some(id));
        assert_eq!(r.lookup(0x11000), None);
        assert_eq!(r.lookup(0xffff), None);
    }

    #[test]
    fn lookup_distinguishes_adjacent_vars() {
        let r = VariableRegistry::new();
        let a = r.register("a", 0x1000, 0x1000, VarKind::Heap, 0, Vec::new(), 1);
        let b = r.register("b", 0x2000, 0x1000, VarKind::Heap, 0, Vec::new(), 1);
        assert_eq!(r.lookup(0x1fff), Some(a));
        assert_eq!(r.lookup(0x2000), Some(b));
    }

    #[test]
    fn freed_vars_stop_matching() {
        let (r, id) = registry_with("z", 0x10000, 0x1000, 1);
        assert_eq!(r.mark_freed(0x10000), Some(id));
        assert_eq!(r.lookup(0x10000), None);
        assert!(r.record(id).freed);
    }

    #[test]
    fn bin_of_partitions_evenly() {
        let (r, id) = registry_with("z", 0, 1000, 5);
        let rec = r.record(id);
        assert_eq!(rec.bin_of(0), 0);
        assert_eq!(rec.bin_of(199), 0);
        assert_eq!(rec.bin_of(200), 1);
        assert_eq!(rec.bin_of(999), 4);
    }

    #[test]
    fn bin_ranges_tile_the_variable() {
        let (r, id) = registry_with("z", 0x1000, 12345, 5);
        let rec = r.record(id);
        let mut expected_lo = rec.addr;
        for b in 0..rec.bins {
            let (lo, hi) = rec.bin_range(b);
            assert_eq!(lo, expected_lo);
            assert!(hi > lo);
            // Every address in [lo, hi) maps back to bin b.
            assert_eq!(rec.bin_of(lo), b);
            assert_eq!(rec.bin_of(hi - 1), b);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, rec.addr + rec.bytes);
    }

    #[test]
    fn bins_for_follows_paper_default() {
        // §5.2: a variable with an address range larger than five pages is
        // divided into five bins by default.
        assert_eq!(bins_for(5 * PAGE_SIZE, 5, 5), 1);
        assert_eq!(bins_for(5 * PAGE_SIZE + 1, 5, 5), 5);
        assert_eq!(bins_for(64, 5, 5), 1);
        assert_eq!(bins_for(1 << 30, 12, 5), 12);
    }

    #[test]
    fn huge_variable_bins_do_not_overflow() {
        let (r, id) = registry_with("huge", 0, u64::MAX / 2, 7);
        let rec = r.record(id);
        assert_eq!(rec.bin_of(u64::MAX / 2 - 1), 6);
    }
}
