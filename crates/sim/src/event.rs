//! Events the engine delivers to monitors.

use numa_machine::{AccessLevel, CpuId, DomainId, PlacementPolicy};
use serde::Serialize;

/// Kind of data object, for data-centric attribution. The paper handles heap
/// and static variables and lists stack variables as future work; the engine
/// tags all three so the profiler can monitor stack data too.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum VarKind {
    Heap,
    Static,
    Stack,
}

impl VarKind {
    pub fn name(self) -> &'static str {
        match self {
            VarKind::Heap => "heap",
            VarKind::Static => "static",
            VarKind::Stack => "stack",
        }
    }
}

/// One memory access, fully resolved by the machine model.
///
/// This is the simulated analogue of one address-sampling record: it carries
/// the effective address, the precise "instruction pointer" (innermost frame
/// plus line marker, delivered alongside via the call stack), the access
/// latency, and the data source — everything §3 lists as required for NUMA
/// profiling. Monitors see *every* access; sampling mechanisms decide which
/// become samples.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct MemoryEvent {
    /// Software thread index (0-based within the program).
    pub tid: usize,
    /// Hardware thread executing the access.
    pub cpu: CpuId,
    /// NUMA domain of `cpu`.
    pub thread_domain: DomainId,
    /// Effective address.
    pub addr: u64,
    /// Access width in bytes.
    pub size: u32,
    pub is_store: bool,
    /// Where the access was satisfied.
    pub level: AccessLevel,
    /// Home domain of the backing page (`move_pages` answer).
    pub home_domain: DomainId,
    /// Cycles the access took, including contention inflation.
    pub latency: u32,
    /// Source-line marker set by the workload via `ThreadCtx::at_line`.
    pub line: u32,
    /// True if this access bound the page (its first touch since
    /// allocation).
    pub first_touch_page: bool,
    /// The accessing thread's virtual clock when the access issued —
    /// lets monitors build time-series (trace) measurements.
    pub clock: u64,
}

impl MemoryEvent {
    /// Did this access touch data homed outside the accessing thread's
    /// domain? This is the predicate behind the `M_r` metric (§4.1) — note
    /// it deliberately ignores `level`: a cache hit on remotely-homed data
    /// still counts, which is the bias the paper's `lpi_NUMA` corrects for.
    pub fn is_remote_homed(&self) -> bool {
        self.home_domain != self.thread_domain
    }
}

/// An allocation announced to monitors.
#[derive(Clone, Debug)]
pub struct AllocInfo<'a> {
    pub tid: usize,
    /// Variable name as written in the source program.
    pub name: &'a str,
    pub addr: u64,
    pub bytes: u64,
    pub kind: VarKind,
    pub policy: &'a PlacementPolicy,
}

/// A first-touch page fault (the simulated SIGSEGV of §6), delivered
/// synchronously before the faulting access completes.
#[derive(Clone, Copy, Debug)]
pub struct PageFaultEvent {
    pub tid: usize,
    pub cpu: CpuId,
    pub thread_domain: DomainId,
    /// Faulting data address (the `siginfo` address of §6).
    pub addr: u64,
    pub is_store: bool,
    pub line: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(thread_domain: u8, home: u8) -> MemoryEvent {
        MemoryEvent {
            tid: 0,
            cpu: CpuId(0),
            thread_domain: DomainId(thread_domain),
            addr: 0x1000,
            size: 8,
            is_store: false,
            level: AccessLevel::L1,
            home_domain: DomainId(home),
            latency: 4,
            line: 0,
            first_touch_page: false,
            clock: 0,
        }
    }

    #[test]
    fn remote_homed_ignores_cache_level() {
        // L1 hit on remote-homed data is still "remote" for M_r — the bias
        // the paper documents in §4.1.
        assert!(ev(0, 1).is_remote_homed());
        assert!(!ev(2, 2).is_remote_homed());
    }
}
