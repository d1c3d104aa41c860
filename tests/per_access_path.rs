//! The per-access path's shortcuts — the sample gate and the per-thread
//! page TLB — seen from outside the engine: the profiler is called only
//! when a sample can fire, and first-touch traps behave as if every access
//! still went to the page map.

use hpctoolkit_numa::machine::{CpuId, DomainId, Machine, MachinePreset, PlacementPolicy};
use hpctoolkit_numa::profiler::{
    finish_profile, FirstTouchGranularity, NumaProfile, NumaProfiler, ProfilerConfig,
};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind};
use hpctoolkit_numa::sim::{
    AllocInfo, Frame, MemoryEvent, Monitor, PageFaultEvent, Program, ProgramStats, SampleGate,
};
use hpctoolkit_numa::workloads::{Lulesh, LuleshVariant, Workload};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

fn machine() -> Machine {
    Machine::from_preset(MachinePreset::AmdMagnyCours)
}

/// The profiler, with its `on_access`, `on_compute` and `on_alloc` calls
/// counted.
struct Counting {
    inner: Rc<NumaProfiler>,
    counts: Rc<[AtomicU64; 3]>,
}

impl Monitor for Counting {
    fn on_thread_start(&self, tid: usize, cpu: CpuId, domain: DomainId) {
        self.inner.on_thread_start(tid, cpu, domain)
    }
    fn gate(&self, tid: usize) -> SampleGate {
        self.inner.gate(tid)
    }
    fn on_unseen(&self, tid: usize, instructions: u64, ticks: u64) {
        self.inner.on_unseen(tid, instructions, ticks)
    }
    fn on_alloc(&self, info: &AllocInfo<'_>, stack: &[Frame]) -> u64 {
        self.counts[2].fetch_add(1, Relaxed);
        self.inner.on_alloc(info, stack)
    }
    fn on_free(&self, tid: usize, addr: u64) -> u64 {
        self.inner.on_free(tid, addr)
    }
    fn on_compute(&self, tid: usize, n: u64, stack: &[Frame]) -> u64 {
        self.counts[1].fetch_add(1, Relaxed);
        self.inner.on_compute(tid, n, stack)
    }
    fn on_access(&self, ev: &MemoryEvent, stack: &[Frame]) -> u64 {
        self.counts[0].fetch_add(1, Relaxed);
        self.inner.on_access(ev, stack)
    }
    fn on_page_fault(&self, fault: &PageFaultEvent, stack: &[Frame]) -> u64 {
        self.inner.on_page_fault(fault, stack)
    }
    fn on_stack_underflow(&self, tid: usize) {
        self.inner.on_stack_underflow(tid)
    }
    fn on_thread_end(&self, tid: usize, clock: u64) {
        self.inner.on_thread_end(tid, clock)
    }
}

#[test]
fn the_profiler_is_called_only_when_a_sample_can_fire() {
    // `hpcrun-sim --workload lulesh --size small` under each mechanism.
    const THREADS: usize = 48;
    for kind in MechanismKind::ALL {
        let mechanism = MechanismConfig::scaled(kind, 64);
        let dilution = mechanism.dilution;
        let m = machine();
        let profiler = Rc::new(NumaProfiler::new(
            m.clone(),
            ProfilerConfig::new(mechanism),
            THREADS,
        ));
        let counts = Rc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);
        let monitor = Rc::new(Counting {
            inner: profiler.clone(),
            counts: counts.clone(),
        });
        let mut p = Program::new(m, THREADS, monitor);
        Lulesh::new(20, 3, LuleshVariant::Baseline).execute(&mut p);
        let stats = p.stats();
        let profile = finish_profile(p, profiler);

        let (accesses, computes) = (counts[0].load(Relaxed), counts[1].load(Relaxed));
        let samples_mem: u64 = profile.threads.iter().map(|t| t.totals.samples_mem).sum();
        // The three whose period a run this short reaches.
        if matches!(
            kind,
            MechanismKind::Ibs | MechanismKind::Mrk | MechanismKind::Pebs
        ) {
            assert!(samples_mem > 0, "{kind:?}");
        }
        if kind == MechanismKind::Mrk {
            // A delivery is a fire of the marking stage, whose interval
            // jitters ±25 % around `dilution`; only some of those go on to
            // fire the period counter.
            let numa_events: u64 = profile.threads.iter().map(|t| t.numa_events).sum();
            assert!(accesses >= samples_mem, "{accesses} < {samples_mem}");
            assert!(
                accesses <= 2 * numa_events / dilution + THREADS as u64,
                "{accesses} deliveries for {numa_events} events at dilution {dilution}"
            );
        } else {
            assert_eq!(accesses, samples_mem, "{kind:?}");
        }
        assert!(
            computes <= profile.total_instruction_samples() - samples_mem,
            "{kind:?}: {computes} compute deliveries"
        );
        assert_eq!(stats.monitor_callbacks, accesses + computes, "{kind:?}");
        assert!(
            stats.monitor_callbacks <= stats.mem_accesses / 20,
            "{kind:?}: {} callbacks in {} accesses",
            stats.monitor_callbacks,
            stats.mem_accesses
        );
        // What went by unseen is still counted (Eq. 3's denominator): the
        // profiler's `I` is every access and compute instruction, i.e. all
        // but the engine's 8 bookkeeping instructions per allocation.
        assert_eq!(
            profile.total_instructions() + 8 * counts[2].load(Relaxed),
            stats.instructions,
            "{kind:?}"
        );
    }
}

/// Thread 0 allocates and sweeps an 8-page array of `elem`-byte elements
/// twice, the pages are protected again behind the profiler's back, then
/// `second` stores to the last element — the line thread 0 touched last —
/// and sweeps the array twice more. Returns the offsets into the array of
/// the first touches recorded, in order.
fn reprotected_sweeps(granularity: FirstTouchGranularity, second: usize, elem: u64) -> Vec<u64> {
    const BYTES: u64 = 8 * 4096;
    let sweeps = |ctx: &mut hpctoolkit_numa::sim::ThreadCtx<'_>, base: u64| {
        for _ in 0..2 {
            ctx.store_range(base, BYTES / elem, elem as u32);
        }
    };
    let m = machine();
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::SoftIbs, 1024))
        .with_first_touch_granularity(granularity);
    let profiler = Rc::new(NumaProfiler::new(m.clone(), config, 2));
    let mut p = Program::new(m.clone(), 2, profiler.clone());
    let mut base = 0;
    p.serial("init", |ctx| {
        base = ctx.alloc("arr", BYTES, PlacementPolicy::FirstTouch);
        sweeps(ctx, base);
    });
    assert_eq!(m.page_map().protect_extent(base, BYTES), 8);
    p.parallel("again", |tid, ctx| {
        if tid == second {
            ctx.store(base + BYTES - elem, elem as u32);
            sweeps(ctx, base);
        }
    });
    let touches = finish_profile(p, profiler).first_touches;
    touches.iter().map(|t| t.addr - base).collect()
}

#[test]
fn reprotected_pages_trap_again_through_a_warm_tlb_exactly_as_through_a_cold_one() {
    use FirstTouchGranularity::{Page, Variable};
    // Thread 0's TLB holds all eight pages when they are re-protected;
    // thread 1's holds none.
    for (granularity, expected) in [(Page, 8 + 8), (Variable, 1 + 1)] {
        assert_eq!(
            reprotected_sweeps(granularity, 0, 64).len(),
            expected,
            "warm"
        );
        assert_eq!(
            reprotected_sweeps(granularity, 1, 64).len(),
            expected,
            "cold"
        );
    }
}

/// With 8-byte elements consecutive accesses share a line, and the
/// re-protection falls between two of them: thread 0's last store before
/// it and its first after it hit the same line. The same-line path must
/// not carry that access past the trap.
#[test]
fn reprotection_between_two_accesses_to_one_line_still_traps() {
    use FirstTouchGranularity::{Page, Variable};
    let last = 8 * 4096 - 8;
    for (granularity, expected) in [(Page, 8 + 8), (Variable, 1 + 1)] {
        for (second, tlb) in [(0, "warm"), (1, "cold")] {
            let touches = reprotected_sweeps(granularity, second, 8);
            assert_eq!(touches.len(), expected, "{tlb}");
            // The first access after the re-protection is the one that
            // traps, not a later one that reaches the page another way.
            assert_eq!(touches[expected / 2], last, "{tlb}: {touches:?}");
        }
    }
}

/// Eight threads each allocate and first-touch their own variable, then
/// after the join read their right-hand neighbour's.
fn own_then_neighbour() -> (ProgramStats, NumaProfile) {
    const THREADS: usize = 8;
    const BYTES: u64 = 4 * 4096;
    let m = machine();
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64))
        .with_first_touch_granularity(FirstTouchGranularity::Page);
    let profiler = Rc::new(NumaProfiler::new(m.clone(), config, THREADS));
    let mut p = Program::new(m, THREADS, profiler.clone());
    let mut bases = [0; THREADS];
    p.parallel("init", |tid, ctx| {
        let base = ctx.alloc(&format!("v{tid}"), BYTES, PlacementPolicy::FirstTouch);
        ctx.store_range(base, BYTES / 64, 64);
        bases[tid] = base;
    });
    p.parallel("read", |tid, ctx| {
        let base = bases[(tid + 1) % THREADS];
        ctx.load_range(base, BYTES / 64, 64);
        ctx.compute(100);
    });
    let stats = p.stats();
    (stats, finish_profile(p, profiler))
}

#[test]
fn every_page_traps_once_and_the_profiler_counts_every_access() {
    let (stats, profile) = own_then_neighbour();
    assert_eq!(profile.first_touches.len(), 8 * 4);
    // Per thread: its own variable's stores, the neighbour's loads and
    // the compute block.
    let accesses = 2 * 4 * 4096 / 64;
    let per_thread: Vec<u64> = profile.threads.iter().map(|t| t.instructions).collect();
    assert_eq!(per_thread, vec![accesses + 100; 8]);
    assert_eq!(stats.mem_accesses, 8 * accesses);
}
