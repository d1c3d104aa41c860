//! Small typed identifiers shared across the machine model.

/// Size of a simulated virtual-memory page in bytes (4 KiB, as on Linux).
pub const PAGE_SIZE: u64 = 4096;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Identifier of a NUMA domain (a set of cores with uniform access latency to
/// a set of memory banks, per the paper's §1 definition).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomainId(pub u8);

impl DomainId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Identifier of a hardware thread (what the OS calls a CPU).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CpuId(pub u16);

impl CpuId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A virtual page number (`addr >> PAGE_SHIFT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageNum(pub u64);

impl PageNum {
    /// Page containing `addr`.
    pub fn of_addr(addr: u64) -> Self {
        PageNum(addr >> PAGE_SHIFT)
    }

    /// First byte address of this page.
    pub fn base_addr(self) -> u64 {
        self.0 << PAGE_SHIFT
    }
}

/// Number of pages needed to cover `bytes` starting at `addr` (inclusive of
/// partial first/last pages).
pub fn pages_spanned(addr: u64, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let first = addr >> PAGE_SHIFT;
    let last = (addr + bytes - 1) >> PAGE_SHIFT;
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_num_roundtrip() {
        assert_eq!(PageNum::of_addr(0), PageNum(0));
        assert_eq!(PageNum::of_addr(PAGE_SIZE - 1), PageNum(0));
        assert_eq!(PageNum::of_addr(PAGE_SIZE), PageNum(1));
        assert_eq!(PageNum(7).base_addr(), 7 * PAGE_SIZE);
    }

    #[test]
    fn pages_spanned_handles_partial_pages() {
        assert_eq!(pages_spanned(0, 0), 0);
        assert_eq!(pages_spanned(0, 1), 1);
        assert_eq!(pages_spanned(0, PAGE_SIZE), 1);
        assert_eq!(pages_spanned(0, PAGE_SIZE + 1), 2);
        assert_eq!(pages_spanned(PAGE_SIZE - 1, 2), 2);
        assert_eq!(pages_spanned(100, PAGE_SIZE), 2);
    }
}
