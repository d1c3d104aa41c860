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
    AllocInfo, ExecMode, Frame, MemoryEvent, Monitor, PageFaultEvent, Program, ProgramStats,
    SampleGate,
};
use hpctoolkit_numa::workloads::{Lulesh, LuleshVariant, Workload};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

fn machine() -> Machine {
    Machine::from_preset(MachinePreset::AmdMagnyCours)
}

/// The profiler, with its `on_access`, `on_compute` and `on_alloc` calls
/// counted.
struct Counting {
    inner: Arc<NumaProfiler>,
    counts: Arc<[AtomicU64; 3]>,
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
        let profiler = Arc::new(NumaProfiler::new(
            m.clone(),
            ProfilerConfig::new(mechanism),
            THREADS,
        ));
        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);
        let monitor = Arc::new(Counting {
            inner: profiler.clone(),
            counts: counts.clone(),
        });
        let mut p = Program::new(m, THREADS, ExecMode::Sequential, monitor);
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

/// Thread 0 allocates and sweeps an 8-page array twice, the pages are
/// protected again behind the profiler's back, then `second` sweeps it
/// twice more. Returns the first touches recorded.
fn reprotected_sweeps(granularity: FirstTouchGranularity, second: usize) -> usize {
    const BYTES: u64 = 8 * 4096;
    let sweeps = |ctx: &mut hpctoolkit_numa::sim::ThreadCtx<'_>, base: u64| {
        for _ in 0..2 {
            ctx.store_range(base, BYTES / 64, 64);
        }
    };
    let m = machine();
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::SoftIbs, 1024))
        .with_first_touch_granularity(granularity);
    let profiler = Arc::new(NumaProfiler::new(m.clone(), config, 2));
    let mut p = Program::new(m.clone(), 2, ExecMode::Sequential, profiler.clone());
    let mut base = 0;
    p.serial("init", |ctx| {
        base = ctx.alloc("arr", BYTES, PlacementPolicy::FirstTouch);
        sweeps(ctx, base);
    });
    assert_eq!(m.page_map().protect_extent(base, BYTES), 8);
    p.parallel("again", |tid, ctx| {
        if tid == second {
            sweeps(ctx, base);
        }
    });
    finish_profile(p, profiler).first_touches.len()
}

#[test]
fn reprotected_pages_trap_again_through_a_warm_tlb_exactly_as_through_a_cold_one() {
    use FirstTouchGranularity::{Page, Variable};
    // Thread 0's TLB holds all eight pages when they are re-protected;
    // thread 1's holds none.
    for (granularity, expected) in [(Page, 8 + 8), (Variable, 1 + 1)] {
        assert_eq!(reprotected_sweeps(granularity, 0), expected, "warm");
        assert_eq!(reprotected_sweeps(granularity, 1), expected, "cold");
    }
}

/// Eight threads each allocate and first-touch their own variable, then
/// after the join read their right-hand neighbour's.
fn own_then_neighbour(mode: ExecMode) -> (ProgramStats, NumaProfile) {
    const THREADS: usize = 8;
    const BYTES: u64 = 4 * 4096;
    let m = machine();
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 64))
        .with_first_touch_granularity(FirstTouchGranularity::Page);
    let profiler = Arc::new(NumaProfiler::new(m.clone(), config, THREADS));
    let mut p = Program::new(m, THREADS, mode, profiler.clone());
    let bases: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
    p.parallel("init", |tid, ctx| {
        let base = ctx.alloc(&format!("v{tid}"), BYTES, PlacementPolicy::FirstTouch);
        ctx.store_range(base, BYTES / 64, 64);
        bases[tid].store(base, Relaxed);
    });
    p.parallel("read", |tid, ctx| {
        let base = bases[(tid + 1) % THREADS].load(Relaxed);
        ctx.load_range(base, BYTES / 64, 64);
        ctx.compute(100);
    });
    let stats = p.stats();
    (stats, finish_profile(p, profiler))
}

#[test]
fn parallel_mode_traps_and_counts_what_sequential_mode_does() {
    let (seq_stats, seq) = own_then_neighbour(ExecMode::Sequential);
    let (par_stats, par) = own_then_neighbour(ExecMode::Parallel);
    assert_eq!(seq.first_touches.len(), 8 * 4);
    assert_eq!(par.first_touches.len(), seq.first_touches.len());
    let per_thread =
        |p: &NumaProfile| -> Vec<u64> { p.threads.iter().map(|t| t.instructions).collect() };
    assert_eq!(per_thread(&par), per_thread(&seq));
    assert_eq!(par_stats.instructions, seq_stats.instructions);
    assert_eq!(par_stats.mem_accesses, seq_stats.mem_accesses);
}
