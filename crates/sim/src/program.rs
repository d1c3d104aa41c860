//! The program engine: fork-join execution of simulated multithreaded
//! programs.
//!
//! A [`Program`] owns one virtual thread per software thread, each pinned to
//! a hardware thread of the machine. Workloads are sequences of `serial`
//! (master-thread) and `parallel` (OpenMP-style) regions. Inside a parallel
//! region the engine runs the virtual threads one after another, each on its
//! own clock, so a run is deterministic: the same program on the same
//! machine produces the same events, clocks and profile bytes. After every
//! region the engine joins at a barrier: all thread clocks advance to the
//! slowest participant, which is how fork-join programs actually spend time.

use crate::event::VarKind;
use crate::func::{FrameKind, FuncRegistry};
use crate::l3::L3Complex;
use crate::monitor::{Monitor, NullMonitor};
use crate::space::AddressSpace;
use crate::thread::{ThreadCtx, ThreadState};
use numa_machine::{CpuId, Machine};
use std::rc::Rc;

/// How parallel regions execute. The engine has one mode: virtual threads
/// run one after another, deterministically. The type remains because the
/// benchmark harness under `benchmark/` names `ExecMode::Sequential` when it
/// calls `run_profiled` and `run_unmonitored`; it goes when the harness
/// stops naming it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// One thread at a time; deterministic.
    Sequential,
}

/// Environment shared by all virtual threads of one program. The engine
/// lends it to one thread at a time.
pub struct SharedEnv {
    pub(crate) machine: Machine,
    pub(crate) l3: L3Complex,
    pub(crate) space: AddressSpace,
    pub(crate) funcs: FuncRegistry,
    pub(crate) monitor: Rc<dyn Monitor>,
    pub(crate) num_threads: usize,
}

/// Aggregate execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Fork-join elapsed time: the synchronized clock after the last region.
    pub elapsed_cycles: u64,
    /// Elapsed time with all monitoring overhead removed from every
    /// thread's critical path (the "without monitoring" column of Table 2 —
    /// exact here because monitoring adds no memory traffic in the model).
    pub baseline_cycles: u64,
    /// Total instructions retired across threads.
    pub instructions: u64,
    /// Total memory accesses across threads.
    pub mem_accesses: u64,
    /// `on_access` + `on_compute` calls the monitor's gate let through,
    /// across threads.
    pub monitor_callbacks: u64,
    /// DRAM requests per home domain (index = domain id), across threads:
    /// the load each domain's memory controller served.
    pub dram_requests: Vec<u64>,
}

impl ProgramStats {
    /// Monitoring overhead as a fraction of baseline time (Table 2's
    /// percentage).
    pub fn overhead_fraction(&self) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        (self.elapsed_cycles as f64 - self.baseline_cycles as f64) / self.baseline_cycles as f64
    }
}

/// A simulated multithreaded program execution.
pub struct Program {
    env: SharedEnv,
    threads: Vec<ThreadState>,
    elapsed: u64,
    baseline_elapsed: u64,
    finished: bool,
}

impl Program {
    /// Create a program with `n_threads` software threads spread across the
    /// machine's domains round-robin (the paper's per-core binding), under
    /// `monitor`.
    pub fn new(machine: Machine, n_threads: usize, monitor: Rc<dyn Monitor>) -> Self {
        let binding = machine.topology().spread_binding(n_threads);
        Self::with_binding(machine, binding, monitor)
    }

    /// Create a program with an unmonitored (null) monitor.
    pub fn unmonitored(machine: Machine, n_threads: usize) -> Self {
        Self::new(machine, n_threads, Rc::new(NullMonitor))
    }

    /// Create a program with an explicit thread→CPU binding.
    pub fn with_binding(machine: Machine, binding: Vec<CpuId>, monitor: Rc<dyn Monitor>) -> Self {
        assert!(!binding.is_empty(), "a program needs at least one thread");
        assert_eq!(
            machine.page_map().region_count(),
            0,
            "a Machine instance hosts one Program: its page map already              holds regions from a previous run — build a fresh Machine"
        );
        let l3 = L3Complex::new(
            machine.topology().domains(),
            crate::cache::CacheConfig::l3(),
        );
        let threads: Vec<ThreadState> = binding
            .iter()
            .enumerate()
            .map(|(tid, &cpu)| {
                let domain = machine.topology().domain_of_cpu(cpu);
                monitor.on_thread_start(tid, cpu, domain);
                ThreadState::new(tid, cpu, domain, &machine, monitor.gate(tid))
            })
            .collect();
        let num_threads = threads.len();
        Program {
            env: SharedEnv {
                machine,
                l3,
                space: AddressSpace::new(),
                funcs: FuncRegistry::new(),
                monitor,
                num_threads,
            },
            threads,
            elapsed: 0,
            baseline_elapsed: 0,
            finished: false,
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.env.machine
    }

    pub fn num_threads(&self) -> usize {
        self.env.num_threads
    }

    /// Run `f` on the master thread (thread 0) inside a function frame named
    /// `name`; all other threads wait at the join.
    pub fn serial(&mut self, name: &str, f: impl FnOnce(&mut ThreadCtx<'_>)) {
        assert!(!self.finished, "program already finished");
        let starts = self.region_starts();
        let mut ctx = ThreadCtx {
            state: &mut self.threads[0],
            env: &mut self.env,
        };
        ctx.call(name, f);
        self.join_region(&starts);
    }

    /// Run `f(tid, ctx)` on every thread, in thread order, inside a
    /// parallel-region frame named `name` (the OpenMP parallel region of the
    /// source program), then join.
    pub fn parallel(&mut self, name: &str, mut f: impl FnMut(usize, &mut ThreadCtx<'_>)) {
        assert!(!self.finished, "program already finished");
        let starts = self.region_starts();
        let region_id = self.env.funcs.intern(name);
        for (tid, state) in self.threads.iter_mut().enumerate() {
            let mut ctx = ThreadCtx {
                state,
                env: &mut self.env,
            };
            ctx.enter_id(region_id, FrameKind::ParallelRegion);
            f(tid, &mut ctx);
            ctx.exit_frame();
        }
        self.join_region(&starts);
    }

    /// Every thread's `(clock, monitor_cycles)` as a region begins.
    fn region_starts(&self) -> Vec<(u64, u64)> {
        self.threads
            .iter()
            .map(|t| (t.clock, t.monitor_cycles))
            .collect()
    }

    /// Fork-join barrier accounting: first charge memory-controller
    /// contention for the region (from the region's aggregate per-domain
    /// DRAM load), then advance elapsed time by the slowest participant and
    /// synchronize every thread's clock to the barrier.
    fn join_region(&mut self, starts: &[(u64, u64)]) {
        self.charge_region_contention();
        let mut max_delta = 0u64;
        let mut max_baseline_delta = 0u64;
        for (t, &(clock0, oh0)) in self.threads.iter().zip(starts) {
            let delta = t.clock - clock0;
            let oh_delta = t.monitor_cycles - oh0;
            max_delta = max_delta.max(delta);
            max_baseline_delta = max_baseline_delta.max(delta - oh_delta);
        }
        self.elapsed += max_delta;
        self.baseline_elapsed += max_baseline_delta;
        for t in &mut self.threads {
            t.clock = self.elapsed;
        }
    }

    /// Fork-join contention model (§2's bandwidth-saturation effect): a
    /// domain whose controller served far more than its fair share of the
    /// region's concurrent DRAM traffic serves it with inflated latency —
    /// up to ~5× when one domain takes everything. The overload factor of
    /// domain `d` is `share_d × active_threads / cpus_per_domain`, and
    /// every thread's clock is charged its own stalls scaled by the
    /// domain's multiplier.
    fn charge_region_contention(&mut self) {
        let domains = self.env.machine.topology().domains();
        let mut totals = vec![0u64; domains];
        let mut active_threads = 0u64;
        for t in &self.threads {
            // Only threads that made at least one DRAM access this region
            // count as active (concurrent) demand.
            if !t.region_dram {
                continue;
            }
            active_threads += 1;
            for (d, s) in t.region_dram_stalls.iter().enumerate() {
                totals[d] += s;
            }
        }
        let grand: u64 = totals.iter().sum();
        if grand > 0 {
            let lat = self.env.machine.latency_model();
            let per_domain_cpus = self.env.machine.topology().cpus_per_domain() as f64;
            let mults: Vec<f64> = totals
                .iter()
                .map(|&c| {
                    let share = c as f64 / grand as f64;
                    let load = share * active_threads as f64 / per_domain_cpus;
                    lat.contention_multiplier_load(load)
                })
                .collect();
            for t in &mut self.threads {
                let extra: u64 = t
                    .region_dram_stalls
                    .iter()
                    .zip(&mults)
                    .map(|(&s, &m)| (s as f64 * (m - 1.0)).round() as u64)
                    .sum();
                t.clock += extra;
            }
        }
        for t in &mut self.threads {
            t.region_dram_stalls.fill(0);
            t.region_dram = false;
        }
    }

    /// Declare the execution complete: notifies the monitor of what each
    /// thread retired unseen since its last callback and of final
    /// per-thread clocks. Further regions panic.
    pub fn finish(&mut self) -> ProgramStats {
        if !self.finished {
            self.finished = true;
            for state in &mut self.threads {
                let mut ctx = ThreadCtx {
                    state,
                    env: &mut self.env,
                };
                ctx.report_unseen();
                ctx.env.monitor.on_thread_end(ctx.tid(), ctx.clock());
            }
        }
        self.stats()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ProgramStats {
        let mut dram_requests = vec![0u64; self.env.machine.topology().domains()];
        for t in &self.threads {
            for (sum, n) in dram_requests.iter_mut().zip(&t.dram_requests) {
                *sum += n;
            }
        }
        ProgramStats {
            elapsed_cycles: self.elapsed,
            baseline_cycles: self.baseline_elapsed,
            instructions: self.threads.iter().map(|t| t.instructions).sum(),
            mem_accesses: self.threads.iter().map(|t| t.mem_accesses).sum(),
            monitor_callbacks: self.threads.iter().map(|t| t.monitor_callbacks).sum(),
            dram_requests,
        }
    }

    /// Tear the program down, keeping only the function-name registry.
    /// Dropping the program here also drops its clone of the monitor `Rc`,
    /// so a profiler held behind `Rc` becomes uniquely owned again.
    pub fn into_func_registry(self) -> FuncRegistry {
        self.env.funcs
    }
}

/// Allocate a variable before any region runs (e.g. static data known at
/// load time): helper that runs a one-off serial region.
pub fn alloc_static(program: &mut Program, name: &str, bytes: u64) -> u64 {
    let mut addr = 0;
    program.serial("__static_init", |ctx| {
        addr = ctx.alloc_kind(
            name,
            bytes,
            numa_machine::PlacementPolicy::FirstTouch,
            VarKind::Static,
        );
    });
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemoryEvent;
    use crate::func::Frame;
    use numa_machine::{MachinePreset, PlacementPolicy};
    use std::cell::RefCell;

    fn machine() -> Machine {
        Machine::from_preset(MachinePreset::AmdMagnyCours)
    }

    #[test]
    fn serial_region_runs_on_master() {
        let mut p = Program::unmonitored(machine(), 4);
        p.serial("init", |ctx| {
            assert_eq!(ctx.tid(), 0);
            assert_eq!(ctx.domain().0, 0);
            ctx.compute(10);
        });
        let stats = p.finish();
        assert!(stats.elapsed_cycles >= 10);
        assert_eq!(stats.instructions, 10);
    }

    #[test]
    fn parallel_region_visits_every_thread() {
        let mut p = Program::unmonitored(machine(), 8);
        let mut seen = Vec::new();
        p.parallel("work", |tid, ctx| {
            seen.push(tid);
            ctx.compute(5);
        });
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn threads_spread_across_domains() {
        let p = Program::unmonitored(machine(), 8);
        // Round-robin binding on 8 domains: thread i in domain i.
        let domains: Vec<u8> = (0..8)
            .map(|i| {
                p.machine()
                    .topology()
                    .domain_of_cpu(p.machine().topology().spread_binding(8)[i])
                    .0
            })
            .collect();
        assert_eq!(domains, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn elapsed_is_max_of_parallel_threads() {
        let mut p = Program::unmonitored(machine(), 4);
        p.parallel("uneven", |tid, ctx| {
            ctx.compute((tid as u64 + 1) * 100);
        });
        let stats = p.finish();
        assert_eq!(stats.elapsed_cycles, 400);
        assert_eq!(stats.instructions, 100 + 200 + 300 + 400);
    }

    #[test]
    fn regions_accumulate_elapsed() {
        let mut p = Program::unmonitored(machine(), 2);
        p.serial("a", |ctx| ctx.compute(50));
        p.parallel("b", |_, ctx| ctx.compute(100));
        assert_eq!(p.stats().elapsed_cycles, 150);
    }

    #[test]
    fn stack_underflow_is_a_counted_no_op() {
        struct Recorder(RefCell<Vec<usize>>);
        impl Monitor for Recorder {
            fn on_stack_underflow(&self, tid: usize) {
                self.0.borrow_mut().push(tid);
            }
        }
        let rec = Rc::new(Recorder(RefCell::new(Vec::new())));
        let mut p = Program::new(machine(), 1, rec.clone());
        p.serial("main", |ctx| {
            // A malformed replayed program: exits outnumber enters. The
            // first pop closes "main"; the next two underflow; the
            // region's own closing pop underflows a third time.
            ctx.exit_frame();
            ctx.exit_frame();
            ctx.exit_frame();
            assert_eq!(ctx.stack_underflows(), 2);
            assert!(ctx.stack().is_empty());
            // The context still works after the underflows.
            ctx.compute(5);
        });
        assert_eq!(rec.0.borrow().as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn first_touch_allocation_and_access() {
        let mut p = Program::unmonitored(machine(), 2);
        let mut base = 0;
        p.serial("alloc", |ctx| {
            base = ctx.alloc("arr", 2 * 4096, PlacementPolicy::FirstTouch);
            ctx.store(base, 8); // master (domain 0) touches first page
        });
        let m = p.machine().clone();
        assert_eq!(m.domain_of_addr(base).map(|d| d.0), Some(0));
        assert_eq!(m.domain_of_addr(base + 4096), None);
    }

    #[test]
    fn cache_hierarchy_produces_hits_on_reuse() {
        struct Recorder(RefCell<Vec<numa_machine::AccessLevel>>);
        impl Monitor for Recorder {
            fn on_access(&self, ev: &MemoryEvent, _stack: &[Frame]) -> u64 {
                self.0.borrow_mut().push(ev.level);
                0
            }
        }
        let rec = Rc::new(Recorder(RefCell::new(Vec::new())));
        let mut p = Program::new(machine(), 1, rec.clone());
        p.serial("main", |ctx| {
            let a = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            ctx.load(a, 8);
            ctx.load(a, 8);
            ctx.load(a + 8, 8); // same line
        });
        let levels = rec.0.borrow().clone();
        assert_eq!(levels.len(), 3);
        assert!(levels[0].is_memory(), "cold access goes to DRAM");
        assert_eq!(levels[1], numa_machine::AccessLevel::L1);
        assert_eq!(levels[2], numa_machine::AccessLevel::L1);
    }

    #[test]
    fn remote_access_costs_more_than_local() {
        // Thread 1 (domain 1) reads data homed in domain 0.
        struct LatRec(RefCell<Vec<(bool, u32)>>);
        impl Monitor for LatRec {
            fn on_access(&self, ev: &MemoryEvent, _stack: &[Frame]) -> u64 {
                if ev.level.is_memory() {
                    self.0.borrow_mut().push((ev.is_remote_homed(), ev.latency));
                }
                0
            }
        }
        let rec = Rc::new(LatRec(RefCell::new(Vec::new())));
        let mut p = Program::new(machine(), 2, rec.clone());
        let mut base = 0;
        p.serial("alloc", |ctx| {
            base = ctx.alloc(
                "arr",
                1 << 20,
                PlacementPolicy::Bind(numa_machine::DomainId(0)),
            );
        });
        p.parallel("read", |tid, ctx| {
            if tid == 1 {
                // Large strides so every access is a fresh DRAM access.
                for i in 0..64u64 {
                    ctx.load(base + i * 4096, 8);
                }
            }
        });
        p.parallel("read_local", |tid, ctx| {
            if tid == 0 {
                for i in 0..64u64 {
                    ctx.load(base + 2048 + i * 4096, 8);
                }
            }
        });
        let recs = rec.0.borrow().clone();
        let remote: Vec<u32> = recs.iter().filter(|(r, _)| *r).map(|(_, l)| *l).collect();
        let local: Vec<u32> = recs.iter().filter(|(r, _)| !*r).map(|(_, l)| *l).collect();
        assert!(!remote.is_empty() && !local.is_empty());
        let avg = |v: &[u32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!(
            avg(&remote) > avg(&local) * 1.3,
            "remote {:.0} vs local {:.0}",
            avg(&remote),
            avg(&local)
        );
    }

    #[test]
    fn monitoring_overhead_is_separated() {
        struct Costly;
        impl Monitor for Costly {
            fn on_access(&self, _ev: &MemoryEvent, _stack: &[Frame]) -> u64 {
                100
            }
        }
        let mut p = Program::new(machine(), 1, Rc::new(Costly));
        p.serial("main", |ctx| {
            let a = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            for _ in 0..10 {
                ctx.load(a, 8);
            }
        });
        let stats = p.finish();
        assert_eq!(stats.elapsed_cycles - stats.baseline_cycles, 1000);
        assert!(stats.overhead_fraction() > 0.0);
    }

    #[test]
    fn dram_requests_count_each_dram_access_by_home_domain() {
        use numa_machine::{AccessLevel, DomainId};
        struct DramEvents(RefCell<u64>);
        impl Monitor for DramEvents {
            fn on_access(&self, ev: &MemoryEvent, _stack: &[Frame]) -> u64 {
                if matches!(ev.level, AccessLevel::MemLocal | AccessLevel::MemRemote) {
                    *self.0.borrow_mut() += 1;
                }
                0
            }
        }
        // One line per page over 64 pages, swept by each of 8 threads in
        // turn: cold lines reach DRAM, later sweeps may hit a cache.
        let sweep = |policy: PlacementPolicy| {
            let mon = Rc::new(DramEvents(RefCell::new(0)));
            let mut p = Program::new(machine(), 8, mon.clone());
            let mut base = 0;
            p.serial("alloc", |ctx| base = ctx.alloc("a", 64 * 4096, policy));
            p.parallel("sweep", |_, ctx| {
                for page in 0..64 {
                    ctx.load(base + page * 4096, 8);
                }
            });
            let stats = p.finish();
            let seen = *mon.0.borrow();
            (stats.dram_requests, seen)
        };

        let (bound, seen) = sweep(PlacementPolicy::Bind(DomainId(0)));
        assert_eq!(bound.len(), 8);
        assert!(bound[0] >= 64, "{bound:?}");
        assert_eq!(bound[1..], [0; 7]);
        assert_eq!(bound.iter().sum::<u64>(), seen);

        let (interleaved, seen) = sweep(PlacementPolicy::interleave_all(8));
        assert!(interleaved[0] >= 8, "{interleaved:?}");
        assert!(
            interleaved.iter().all(|&n| n == interleaved[0]),
            "{interleaved:?}"
        );
        assert_eq!(interleaved.iter().sum::<u64>(), seen);
    }

    #[test]
    fn call_stack_nesting_visible_to_monitor() {
        struct StackDepth(RefCell<Vec<usize>>);
        impl Monitor for StackDepth {
            fn on_access(&self, _ev: &MemoryEvent, stack: &[Frame]) -> u64 {
                self.0.borrow_mut().push(stack.len());
                0
            }
        }
        let rec = Rc::new(StackDepth(RefCell::new(Vec::new())));
        let mut p = Program::new(machine(), 1, rec.clone());
        p.serial("main", |ctx| {
            let a = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            ctx.load(a, 8); // depth: main
            ctx.call("inner", |ctx| {
                ctx.load(a, 8); // depth: main > inner
            });
        });
        assert_eq!(&*rec.0.borrow(), &[1, 2]);
    }

    #[test]
    fn gated_monitor_sees_what_its_gate_lets_through_and_is_told_the_rest() {
        use crate::monitor::SampleGate;
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        /// Every tenth load, and any compute block longer than what is
        /// left of the ten.
        #[derive(Default)]
        struct TenthLoad {
            loads: AtomicU64,
            computes: AtomicU64,
            unseen_instructions: AtomicU64,
            unseen_ticks: AtomicU64,
        }
        impl Monitor for TenthLoad {
            fn gate(&self, _tid: usize) -> SampleGate {
                SampleGate {
                    loads_only: true,
                    stub_cost: 3,
                    quiet: 9,
                    ..SampleGate::DELIVER_ALL
                }
            }
            fn on_unseen(&self, _tid: usize, instructions: u64, ticks: u64) {
                assert!(ticks <= 9 && ticks <= instructions);
                self.unseen_instructions.fetch_add(instructions, Relaxed);
                self.unseen_ticks.fetch_add(ticks, Relaxed);
            }
            fn on_access(&self, ev: &MemoryEvent, _stack: &[Frame]) -> u64 {
                assert!(!ev.is_store);
                self.loads.fetch_add(1, Relaxed);
                7
            }
            fn on_compute(&self, _tid: usize, n: u64, _stack: &[Frame]) -> u64 {
                self.computes.fetch_add(n, Relaxed);
                0
            }
        }
        let mon = Rc::new(TenthLoad::default());
        let mut p = Program::new(machine(), 1, mon.clone());
        p.serial("main", |ctx| {
            let a = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            for i in 0..25 {
                ctx.load(a + i * 8, 8); // delivered: the 10th and the 20th
                ctx.store(a + i * 8, 8); // never ticks
            }
            ctx.compute(4); // 5 loads + 4 = 9 ticks: still quiet
            ctx.compute(1); // the 10th tick
            ctx.compute(3);
        });
        let stats = p.finish();
        assert_eq!(mon.loads.load(Relaxed), 2);
        assert_eq!(mon.computes.load(Relaxed), 1);
        assert_eq!(stats.monitor_callbacks, 3);
        assert_eq!(mon.unseen_instructions.load(Relaxed), 23 + 25 + 4 + 3);
        assert_eq!(mon.unseen_ticks.load(Relaxed), 23 + 4 + 3);
        // The stub is charged for every access retired unseen, the
        // callback's own return for the two delivered.
        assert_eq!(
            stats.elapsed_cycles - stats.baseline_cycles,
            (23 + 25) * 3 + 2 * 7
        );
    }

    #[test]
    fn unmonitored_runs_make_no_callbacks() {
        let mut p = Program::unmonitored(machine(), 2);
        p.parallel("work", |_, ctx| {
            let a = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            ctx.load_range(a, 64, 8);
            ctx.compute(1000);
        });
        let stats = p.finish();
        assert_eq!(stats.monitor_callbacks, 0);
        assert_eq!(stats.mem_accesses, 128);
        assert_eq!(stats.instructions, 2 * (8 + 64 + 1000));
    }

    #[test]
    #[should_panic(expected = "access to unmapped address")]
    fn freed_memory_stays_unmapped_for_a_thread_that_cached_its_pages() {
        let mut p = Program::unmonitored(machine(), 1);
        p.serial("main", |ctx| {
            let a = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            ctx.load(a, 8);
            ctx.load(a, 8);
            ctx.free(a);
            ctx.load(a, 8);
        });
    }

    #[test]
    fn a_page_is_bound_once_and_every_thread_sees_that_binding() {
        struct Homes(RefCell<Vec<(usize, u8, bool)>>);
        impl Monitor for Homes {
            fn on_access(&self, ev: &MemoryEvent, _stack: &[Frame]) -> u64 {
                self.0
                    .borrow_mut()
                    .push((ev.tid, ev.home_domain.0, ev.first_touch_page));
                0
            }
        }
        let rec = Rc::new(Homes(RefCell::new(Vec::new())));
        let mut p = Program::new(machine(), 8, rec.clone());
        let mut base = 0;
        p.serial("init", |ctx| {
            base = ctx.alloc("x", 4096, PlacementPolicy::FirstTouch);
            ctx.store(base, 8);
            ctx.store(base + 64, 8);
        });
        p.parallel("read", |tid, ctx| {
            if tid == 5 {
                ctx.load(base, 8);
                ctx.load(base + 128, 8);
            }
        });
        assert_eq!(
            &*rec.0.borrow(),
            &[(0, 0, true), (0, 0, false), (5, 0, false), (5, 0, false)]
        );
    }

    #[test]
    fn latency_table_matches_the_latency_model_on_every_preset() {
        use numa_machine::{AccessLevel, DomainId};
        for preset in MachinePreset::ALL {
            let m = Machine::from_preset(preset);
            let domains = m.topology().domains();
            let model = m.latency_model();
            for local in (0..domains).map(|d| DomainId(d as u8)) {
                let table = crate::thread::latency_table(&m, local);
                assert_eq!(table.len(), AccessLevel::ALL.len() * domains);
                for level in AccessLevel::ALL {
                    for serving in (0..domains).map(|d| DomainId(d as u8)) {
                        let hops = m.interconnect().hops(local, serving);
                        let latency = model.latency(level, hops, 1.0);
                        assert_eq!(
                            table[level as usize * domains + serving.index()],
                            (latency, model.stall_cycles(latency)),
                            "{preset:?} {level:?} {local:?}→{serving:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn regions_after_finish_panic() {
        let mut p = Program::unmonitored(machine(), 1);
        p.finish();
        p.serial("late", |_| {});
    }
}
