//! The monitor interface: how a profiler observes an execution.
//!
//! The engine calls a [`Monitor`] synchronously for every observable action
//! the monitor's [`SampleGate`] lets through. Each callback returns the
//! number of *monitoring overhead cycles* to charge to the acting thread's
//! clock — this is how Table 2's overhead percentages are reproduced: a
//! sampling mechanism pays per-sample costs (signal delivery, stack
//! unwinding, `move_pages` queries) and, for instrumentation based schemes
//! like Soft-IBS, per-event costs.

use crate::event::{AllocInfo, MemoryEvent, PageFaultEvent};
use crate::func::Frame;
use numa_machine::{AccessLevel, CpuId, DomainId};

/// What one thread may retire without calling its monitor — the simulated
/// PMU counting between samples.
///
/// An access *ticks* if it passes the predicate; a compute instruction
/// ticks if `compute_ticks`. The engine retires `quiet` ticks (and any
/// number of non-ticking instructions) unseen, delivers the next ticking
/// access — or a `compute(n)` block with `n > quiet` — through
/// [`Monitor::on_access`] / [`Monitor::on_compute`], and then asks
/// [`Monitor::gate`] for the next gate. What it retired unseen it reports
/// through [`Monitor::on_unseen`] before that callback.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SampleGate {
    /// Stores never tick.
    pub loads_only: bool,
    /// Accesses served closer to the core than this never tick.
    pub min_level: AccessLevel,
    /// Accesses faster than this never tick.
    pub min_latency: u32,
    /// Non-memory instructions tick, one each.
    pub compute_ticks: bool,
    /// Monitoring cycles the engine charges for every access it retires
    /// unseen (a delivered access pays through its callback's return).
    pub stub_cost: u64,
    /// Ticks that may be retired before the next must be delivered.
    pub quiet: u64,
}

impl SampleGate {
    /// Every access and every compute block is delivered.
    pub const DELIVER_ALL: SampleGate = SampleGate {
        loads_only: false,
        min_level: AccessLevel::L1,
        min_latency: 0,
        compute_ticks: true,
        stub_cost: 0,
        quiet: 0,
    };

    /// No access and no compute block is ever delivered.
    pub const CLOSED: SampleGate = SampleGate {
        compute_ticks: false,
        quiet: u64::MAX,
        ..SampleGate::DELIVER_ALL
    };

    /// Does an access with these properties tick?
    #[inline]
    pub fn ticks(&self, is_store: bool, level: AccessLevel, latency: u32) -> bool {
        !(self.loads_only && is_store) && level >= self.min_level && latency >= self.min_latency
    }
}

/// Observer of a simulated execution. All methods have no-op defaults, so a
/// monitor implements only what it needs; the default gate delivers
/// everything, so a monitor that does not implement [`Monitor::gate`] sees
/// every access and every compute block.
///
/// The engine is the only caller and runs one virtual thread at a time, so
/// calls arrive strictly one after another, and each borrow a monitor takes
/// of its own state ends before the callback returns.
pub trait Monitor {
    /// A virtual thread came online, bound to `cpu` in `domain`.
    fn on_thread_start(&self, tid: usize, cpu: CpuId, domain: DomainId) {
        let _ = (tid, cpu, domain);
    }

    /// What `tid` may retire unseen from here on. Asked once after
    /// [`Monitor::on_thread_start`] and again after every delivered
    /// [`Monitor::on_access`] / [`Monitor::on_compute`].
    fn gate(&self, tid: usize) -> SampleGate {
        let _ = tid;
        SampleGate::DELIVER_ALL
    }

    /// `tid` retired `instructions` instructions unseen since the last
    /// report, `ticks` of which ticked (never more than the gate's
    /// `quiet`). Called before a delivered callback and before
    /// [`Monitor::on_thread_end`], and only with something to report.
    fn on_unseen(&self, tid: usize, instructions: u64, ticks: u64) {
        let _ = (tid, instructions, ticks);
    }

    /// An allocation (heap, static, or stack) with the allocating call path.
    /// Returns overhead cycles (e.g. the cost of installing page protection
    /// for first-touch trapping).
    fn on_alloc(&self, info: &AllocInfo<'_>, stack: &[Frame]) -> u64 {
        let _ = (info, stack);
        0
    }

    /// A deallocation. Returns overhead cycles.
    fn on_free(&self, tid: usize, addr: u64) -> u64 {
        let _ = (tid, addr);
        0
    }

    /// `n` non-memory instructions retired by `tid`. Returns overhead
    /// cycles (e.g. samples that fire inside the block).
    fn on_compute(&self, tid: usize, n: u64, stack: &[Frame]) -> u64 {
        let _ = (tid, n, stack);
        0
    }

    /// A memory access completed. Returns overhead cycles.
    fn on_access(&self, ev: &MemoryEvent, stack: &[Frame]) -> u64 {
        let _ = (ev, stack);
        0
    }

    /// A protected page was touched for the first time (§6). Returns
    /// overhead cycles (the SIGSEGV handler's work).
    fn on_page_fault(&self, fault: &PageFaultEvent, stack: &[Frame]) -> u64 {
        let _ = (fault, stack);
        0
    }

    /// `exit_frame` was called on an empty call stack (a malformed
    /// replayed program). The engine already counted and absorbed the
    /// underflow; this hook lets a profiler surface it on the profile.
    fn on_stack_underflow(&self, tid: usize) {
        let _ = tid;
    }

    /// A virtual thread finished with its final clock value.
    fn on_thread_end(&self, tid: usize, clock: u64) {
        let _ = (tid, clock);
    }
}

/// Monitor that observes nothing and charges nothing — used for baseline
/// (unmonitored) runs when measuring overhead.
pub struct NullMonitor;

impl Monitor for NullMonitor {
    fn gate(&self, _tid: usize) -> SampleGate {
        SampleGate::CLOSED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_monitor_charges_zero() {
        let m = NullMonitor;
        assert_eq!(m.on_free(0, 0), 0);
        assert_eq!(m.on_compute(0, 100, &[]), 0);
    }
}
