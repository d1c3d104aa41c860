//! Virtual address space allocator for simulated programs.
//!
//! A simple monotone bump allocator: addresses are never reused, which keeps
//! every sampled address unambiguous for the profiler's postmortem analysis
//! (real HPCToolkit must version reused ranges; simulation lets us sidestep
//! that without changing what the profiler computes).

use crate::cache::LINE_SHIFT;
use numa_machine::PAGE_SIZE;

/// Base of the simulated address space (arbitrary, nonzero so that 0 stays
/// an obviously-invalid address).
pub const SPACE_BASE: u64 = 0x1000_0000;

/// Minimum alignment of any allocation (one cache line).
pub const MIN_ALIGN: u64 = 64;

/// Monotone virtual-address allocator shared by all threads of a program.
pub struct AddressSpace {
    next: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace { next: SPACE_BASE }
    }

    /// Reserve `bytes` of address space. Allocations of a page or more are
    /// page-aligned (like `malloc` for large requests), so whole-variable
    /// page protection and per-page placement behave as they would for real
    /// large arrays; smaller allocations are cache-line aligned.
    pub fn allocate(&mut self, bytes: u64) -> u64 {
        assert!(bytes > 0, "zero-size allocation");
        let align = if bytes >= PAGE_SIZE {
            PAGE_SIZE
        } else {
            MIN_ALIGN
        };
        let base = self.next.next_multiple_of(align);
        self.next = base + bytes;
        // The cache model stores 32-bit line numbers, all ones meaning "empty".
        assert!(
            (self.next - 1) >> LINE_SHIFT < u32::MAX as u64,
            "address space exhausted: {bytes} bytes at {base:#x} end beyond 32-bit line numbers"
        );
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_allocations_are_page_aligned() {
        let mut s = AddressSpace::new();
        s.allocate(100); // misalign the bump pointer
        let a = s.allocate(PAGE_SIZE * 3);
        assert_eq!(a % PAGE_SIZE, 0);
    }

    #[test]
    fn small_allocations_are_line_aligned_and_disjoint() {
        let mut s = AddressSpace::new();
        let a = s.allocate(10);
        let b = s.allocate(10);
        assert_eq!(a % MIN_ALIGN, 0);
        assert_eq!(b % MIN_ALIGN, 0);
        assert!(b >= a + 10);
    }

    #[test]
    #[should_panic(expected = "address space exhausted")]
    fn addresses_beyond_32_bit_lines_are_refused() {
        let mut s = AddressSpace::new();
        s.allocate((u32::MAX as u64) << LINE_SHIFT);
    }

    #[test]
    fn addresses_never_reused() {
        let mut s = AddressSpace::new();
        let mut last = 0;
        for _ in 0..100 {
            let a = s.allocate(8);
            assert!(a > last);
            last = a;
        }
    }
}
