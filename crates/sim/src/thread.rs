//! Per-thread execution context: the API simulated programs are written
//! against.
//!
//! A workload is ordinary Rust that narrates its execution to the engine:
//! `call`/`region` maintain the call stack, `alloc` announces data objects,
//! `load`/`store` issue memory accesses (resolved through the cache hierarchy
//! and NUMA model), and `compute` retires non-memory instructions. Each
//! virtual thread is pinned to one hardware thread, as the paper's
//! experiments pin software threads to cores.

use crate::cache::{Cache, LINE_SHIFT, LINE_SIZE};
use crate::event::{AllocInfo, MemoryEvent, PageFaultEvent, VarKind};
use crate::func::{Frame, FrameKind, FuncId};
use crate::monitor::SampleGate;
use crate::program::SharedEnv;
use numa_machine::{AccessLevel, CpuId, DomainId, Machine, PageTlb};

/// Cycles charged for taking a first-touch trap, before the monitor's own
/// handler cost (kernel signal delivery + mprotect restore).
pub const FAULT_DELIVERY_COST: u64 = 3000;

/// Cycles charged for an allocation call itself.
pub const ALLOC_BASE_COST: u64 = 120;

/// Persistent state of one virtual thread (survives across regions so cache
/// contents and the clock carry over, like a real pinned thread).
pub struct ThreadState {
    pub(crate) tid: usize,
    pub(crate) cpu: CpuId,
    pub(crate) domain: DomainId,
    /// Virtual cycle clock, including monitoring overhead.
    pub(crate) clock: u64,
    /// Cycles of the clock attributable to monitoring.
    pub(crate) monitor_cycles: u64,
    pub(crate) instructions: u64,
    pub(crate) mem_accesses: u64,
    pub(crate) l1: Cache<8>,
    pub(crate) l2: Cache<8>,
    pub(crate) stack: Vec<Frame>,
    /// `exit_frame` calls that found an empty stack (a malformed
    /// replayed program); each is a counted no-op, never a panic.
    pub(crate) stack_underflows: u64,
    pub(crate) line: u32,
    /// DRAM stall cycles accumulated in the current region, per target
    /// domain — the basis for the fork-join contention charge applied at
    /// the region join (see `Program::join_region`).
    pub(crate) region_dram_stalls: Vec<u64>,
    /// The thread made a DRAM access in the current region.
    pub(crate) region_dram: bool,
    /// DRAM requests per home domain over the whole run, summed into
    /// [`ProgramStats::dram_requests`](crate::ProgramStats::dram_requests).
    pub(crate) dram_requests: Vec<u64>,
    tlb: PageTlb,
    /// The line of this thread's previous access, the page-map epoch read
    /// as it began and its page's home domain (see [`ThreadCtx::access`]).
    last_line: u64,
    last_epoch: u64,
    last_home: DomainId,
    /// Domains of the machine: the stride of `latencies`.
    domains: usize,
    /// `(latency, stall)` of an access served at a level by a domain, see
    /// [`latency_table`].
    latencies: Vec<(u32, u64)>,
    /// The monitor's current gate; `gate.quiet` is the live countdown.
    gate: SampleGate,
    /// Instructions, and the ticks among them, retired since the monitor
    /// was last told ([`Monitor::on_unseen`](crate::Monitor::on_unseen)).
    unseen_instructions: u64,
    unseen_ticks: u64,
    /// Delivered `on_access` + `on_compute` calls.
    pub(crate) monitor_callbacks: u64,
}

impl ThreadState {
    pub(crate) fn new(
        tid: usize,
        cpu: CpuId,
        domain: DomainId,
        machine: &Machine,
        gate: SampleGate,
    ) -> Self {
        let domains = machine.topology().domains();
        ThreadState {
            tid,
            cpu,
            domain,
            clock: 0,
            monitor_cycles: 0,
            instructions: 0,
            mem_accesses: 0,
            l1: Cache::new(crate::cache::CacheConfig::l1d()),
            l2: Cache::new(crate::cache::CacheConfig::l2()),
            stack: Vec::with_capacity(32),
            stack_underflows: 0,
            line: 0,
            region_dram_stalls: vec![0; domains],
            region_dram: false,
            dram_requests: vec![0; domains],
            tlb: PageTlb::default(),
            last_line: u64::MAX,
            last_epoch: 0,
            last_home: domain,
            domains,
            latencies: latency_table(machine, domain),
            gate,
            unseen_instructions: 0,
            unseen_ticks: 0,
            monitor_callbacks: 0,
        }
    }
}

/// Uncontended `(latency, stall)` of every access a thread in `domain` can
/// make, indexed `level as usize * domains + serving domain`: the latency
/// model and the hop matrix are fixed for a run, so the per-access path
/// looks up what it would otherwise recompute.
pub(crate) fn latency_table(machine: &Machine, domain: DomainId) -> Vec<(u32, u64)> {
    let model = machine.latency_model();
    let domains = machine.topology().domains();
    let mut table = Vec::with_capacity(AccessLevel::ALL.len() * domains);
    for level in AccessLevel::ALL {
        for serving in 0..domains {
            let hops = machine.interconnect().hops(domain, DomainId(serving as u8));
            let latency = model.latency(level, hops, 1.0);
            table.push((latency, model.stall_cycles(latency)));
        }
    }
    table
}

/// Mutable view of a thread during a region, holding the program's shared
/// environment for as long as the thread runs. Created by the engine;
/// workload code receives `&mut ThreadCtx`.
pub struct ThreadCtx<'a> {
    pub(crate) state: &'a mut ThreadState,
    pub(crate) env: &'a mut SharedEnv,
}

impl<'a> ThreadCtx<'a> {
    /// Software thread index within the program.
    pub fn tid(&self) -> usize {
        self.state.tid
    }

    /// Hardware thread this virtual thread is pinned to.
    pub fn cpu(&self) -> CpuId {
        self.state.cpu
    }

    /// NUMA domain of the pinned CPU.
    pub fn domain(&self) -> DomainId {
        self.state.domain
    }

    /// Current virtual time in cycles (monitoring overhead included).
    pub fn clock(&self) -> u64 {
        self.state.clock
    }

    /// Number of threads in the program (for partitioning work).
    pub fn num_threads(&self) -> usize {
        self.env.num_threads
    }

    /// Number of NUMA domains on the machine.
    pub fn num_domains(&self) -> usize {
        self.env.machine.topology().domains()
    }

    // ---- call structure -------------------------------------------------

    /// Execute `f` inside a function frame named `name`.
    pub fn call<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.env.funcs.intern(name);
        self.enter_id(id, FrameKind::Function);
        let r = f(self);
        self.exit_frame();
        r
    }

    /// Execute `f` inside a loop frame (finer-grained code-centric
    /// attribution, as HPCToolkit attributes to loops).
    pub fn loop_scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.env.funcs.intern(name);
        self.enter_id(id, FrameKind::Loop);
        let r = f(self);
        self.exit_frame();
        r
    }

    /// Push a frame by pre-interned id (hot-path variant of [`Self::call`]).
    pub fn enter_id(&mut self, func: FuncId, kind: FrameKind) {
        self.state.stack.push(Frame { func, kind });
    }

    /// Pop the innermost frame. Popping an empty stack — a malformed
    /// replayed program whose exits outnumber its enters — degrades to a
    /// counted no-op instead of panicking, so one bad input cannot take
    /// down a simulation serving other work. The count is reported to
    /// the monitor (and surfaces on the profile) via
    /// [`Monitor::on_stack_underflow`](crate::Monitor::on_stack_underflow).
    pub fn exit_frame(&mut self) {
        if self.state.stack.pop().is_none() {
            self.state.stack_underflows += 1;
            self.env.monitor.on_stack_underflow(self.state.tid);
        }
    }

    /// How many times `exit_frame` hit an empty stack on this thread.
    pub fn stack_underflows(&self) -> u64 {
        self.state.stack_underflows
    }

    /// Set the source-line marker attached to subsequent accesses.
    pub fn at_line(&mut self, line: u32) {
        self.state.line = line;
    }

    /// Current call stack (outermost first).
    pub fn stack(&self) -> &[Frame] {
        &self.state.stack
    }

    /// Intern a function name (for `enter_id`).
    pub fn intern(&mut self, name: &str) -> FuncId {
        self.env.funcs.intern(name)
    }

    // ---- data objects ----------------------------------------------------

    /// Allocate a named heap variable with a placement policy. Returns its
    /// base address.
    pub fn alloc(&mut self, name: &str, bytes: u64, policy: numa_machine::PlacementPolicy) -> u64 {
        self.alloc_kind(name, bytes, policy, VarKind::Heap)
    }

    /// Allocate a named variable of an explicit kind (static variables are
    /// "allocated" at load time by real programs; here the workload
    /// announces them the same way, tagged [`VarKind::Static`]).
    pub fn alloc_kind(
        &mut self,
        name: &str,
        bytes: u64,
        policy: numa_machine::PlacementPolicy,
        kind: VarKind,
    ) -> u64 {
        let addr = self.env.space.allocate(bytes);
        self.env
            .machine
            .page_map()
            .register_region(addr, bytes, policy.clone());
        self.state.clock += ALLOC_BASE_COST;
        self.state.instructions += 8; // allocator bookkeeping instructions
        let info = AllocInfo {
            tid: self.state.tid,
            name,
            addr,
            bytes,
            kind,
            policy: &policy,
        };
        let oh = self.env.monitor.on_alloc(&info, &self.state.stack);
        self.charge_overhead(oh);
        addr
    }

    /// Free a previously allocated variable.
    pub fn free(&mut self, addr: u64) {
        self.env.machine.page_map().remove_region(addr);
        self.state.clock += ALLOC_BASE_COST / 2;
        let oh = self.env.monitor.on_free(self.state.tid, addr);
        self.charge_overhead(oh);
    }

    // ---- execution --------------------------------------------------------

    /// Retire `n` non-memory instructions (1 cycle each — an in-order,
    /// 1-IPC core model).
    pub fn compute(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let st = &mut *self.state;
        st.instructions += n;
        st.clock += n;
        if !st.gate.compute_ticks {
            st.unseen_instructions += n;
        } else if n <= st.gate.quiet {
            st.gate.quiet -= n;
            st.unseen_instructions += n;
            st.unseen_ticks += n;
        } else {
            self.report_unseen();
            let st = &mut *self.state;
            let oh = self.env.monitor.on_compute(st.tid, n, &st.stack);
            self.delivered(oh);
        }
    }

    /// Tell the monitor what was retired since it was last told.
    pub(crate) fn report_unseen(&mut self) {
        let st = &mut *self.state;
        if st.unseen_instructions > 0 {
            let (instructions, ticks) = (st.unseen_instructions, st.unseen_ticks);
            self.env.monitor.on_unseen(st.tid, instructions, ticks);
            st.unseen_instructions = 0;
            st.unseen_ticks = 0;
        }
    }

    /// Bookkeeping after a delivered `on_access` / `on_compute` that
    /// charged `overhead`: count it, charge it, re-arm the gate.
    fn delivered(&mut self, overhead: u64) {
        self.charge_overhead(overhead);
        self.state.monitor_callbacks += 1;
        self.state.gate = self.env.monitor.gate(self.state.tid);
    }

    /// Issue a load of `size` bytes at `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64, size: u32) {
        self.access(addr, size, false);
    }

    /// Issue a store of `size` bytes at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u32) {
        self.access(addr, size, true);
    }

    /// One access. If it touches the line of this thread's previous access
    /// and the page map's epoch has not moved since that one began, its
    /// outcome is known without the page TLB or the hierarchy walk: the
    /// page is bound and unprotected (the previous access saw to that and
    /// nothing has re-protected it), and the line is the most recently used
    /// way of its L1 set (nothing but this thread touches its L1), so it
    /// hits there and the LRU order stays as it is.
    #[inline]
    fn access(&mut self, addr: u64, size: u32, is_store: bool) {
        let st = &mut *self.state;
        st.instructions += 1;
        st.mem_accesses += 1;
        st.clock += 1; // issue slot

        let line = addr >> LINE_SHIFT;
        let map = self.env.machine.page_map();
        let epoch = map.epoch();
        let (level, serving, home, first_touch_page) =
            if line == st.last_line && epoch == st.last_epoch {
                (AccessLevel::L1, st.domain, st.last_home, false)
            } else {
                let q = st.tlb.touch(map, addr, st.domain);
                // The epoch read before the page lookup, not after a trap:
                // a trap handler that re-protects must send the next access
                // down this path.
                st.last_line = line;
                st.last_epoch = epoch;
                st.last_home = q.domain;
                if q.fault.is_some() {
                    self.deliver_trap(addr, is_store);
                }
                let st = &mut *self.state;
                let (level, serving) = if st.l1.access(addr) {
                    (AccessLevel::L1, st.domain)
                } else {
                    self.miss(addr, q.domain)
                };
                (level, serving, q.domain, q.bound_now)
            };

        // Sampled (PMU-visible) latency is the *uncontended* latency;
        // queueing delay under contention is charged to the clock at the
        // region join, where the whole region's per-domain load is known
        // exactly.
        let st = &mut *self.state;
        let (latency, stall) = st.latencies[level as usize * st.domains + serving.index()];
        st.clock += stall;

        // Between samples the simulated PMU only counts.
        let ticks = st.gate.ticks(is_store, level, latency);
        if !ticks || st.gate.quiet > 0 {
            st.unseen_instructions += 1;
            if ticks {
                st.gate.quiet -= 1;
                st.unseen_ticks += 1;
            }
            st.clock += st.gate.stub_cost;
            st.monitor_cycles += st.gate.stub_cost;
            return;
        }

        let ev = MemoryEvent {
            tid: st.tid,
            cpu: st.cpu,
            thread_domain: st.domain,
            addr,
            size,
            is_store,
            level,
            home_domain: home,
            latency,
            line: st.line,
            first_touch_page,
            clock: st.clock,
        };
        self.report_unseen();
        let oh = self.env.monitor.on_access(&ev, &self.state.stack);
        self.delivered(oh);
    }

    /// First-touch trap (simulated SIGSEGV): delivered before the access
    /// completes, exactly once per protected page (§6).
    #[cold]
    fn deliver_trap(&mut self, addr: u64, is_store: bool) {
        let st = &mut *self.state;
        let fault = PageFaultEvent {
            tid: st.tid,
            cpu: st.cpu,
            thread_domain: st.domain,
            addr,
            is_store,
            line: st.line,
        };
        st.clock += FAULT_DELIVERY_COST;
        st.monitor_cycles += FAULT_DELIVERY_COST;
        let oh = self.env.monitor.on_page_fault(&fault, &st.stack);
        st.clock += oh;
        st.monitor_cycles += oh;
    }

    /// The rest of the hierarchy walk for an access that missed L1: where
    /// it was served and by which domain. `access` fills on miss, so after
    /// the walk the line is resident in L1/L2 (and local L3 if it got that
    /// far) — allocate-on-miss at every level.
    #[inline(never)]
    fn miss(&mut self, addr: u64, home: DomainId) -> (AccessLevel, DomainId) {
        let st = &mut *self.state;
        if st.l2.access(addr) {
            (AccessLevel::L2, st.domain)
        } else if self.env.l3.access(st.domain, addr) {
            (AccessLevel::L3Local, st.domain)
        } else if let Some(d) = self.env.l3.remote_holder(addr, st.domain, home) {
            // Another domain's L3 holds the line (directory/probe-filter
            // coherence): a cache-to-cache transfer beats DRAM.
            (AccessLevel::L3Remote, d)
        } else {
            let level = numa_machine::latency::dram_level(st.domain, home);
            let (_, stall) = st.latencies[level as usize * st.domains + home.index()];
            st.dram_requests[home.index()] += 1;
            st.region_dram_stalls[home.index()] += stall;
            st.region_dram = true;
            (level, home)
        }
    }

    /// Convenience: load `count` consecutive elements of `elem_size` bytes
    /// starting at `base` (a unit-stride read sweep, one access per
    /// element).
    pub fn load_range(&mut self, base: u64, count: u64, elem_size: u32) {
        self.sweep(base, count, elem_size, false);
    }

    /// Convenience: store sweep, mirroring [`Self::load_range`].
    pub fn store_range(&mut self, base: u64, count: u64, elem_size: u32) {
        self.sweep(base, count, elem_size, true);
    }

    /// A sweep is one access per element, except that the elements after
    /// the first of each line go in one step when the gate lets them all
    /// pass unseen.
    fn sweep(&mut self, base: u64, count: u64, elem_size: u32, is_store: bool) {
        let elem = elem_size as u64;
        let mut i = 0;
        while i < count {
            let addr = base + i * elem;
            self.access(addr, elem_size, is_store);
            i += 1;
            let same_line = match elem {
                0 => count - i,
                _ => ((addr | (LINE_SIZE - 1)) - addr) / elem,
            };
            i += self.quiet_repeats(addr >> LINE_SHIFT, same_line.min(count - i), is_store);
        }
    }

    /// Retire up to `n` further accesses to `line` — the line this thread
    /// just accessed — as [`Self::access`] would one by one, as long as
    /// each is one that would take its same-line path and the gate would
    /// retire unseen. Returns how many were retired.
    fn quiet_repeats(&mut self, line: u64, n: u64, is_store: bool) -> u64 {
        let st = &mut *self.state;
        if n == 0 || line != st.last_line || self.env.machine.page_map().epoch() != st.last_epoch {
            return 0;
        }
        let (latency, stall) =
            st.latencies[AccessLevel::L1 as usize * st.domains + st.domain.index()];
        let ticks = st.gate.ticks(is_store, AccessLevel::L1, latency);
        let m = if ticks { n.min(st.gate.quiet) } else { n };
        st.instructions += m;
        st.mem_accesses += m;
        st.clock += m * (1 + stall + st.gate.stub_cost);
        st.monitor_cycles += m * st.gate.stub_cost;
        st.unseen_instructions += m;
        if ticks {
            st.gate.quiet -= m;
            st.unseen_ticks += m;
        }
        m
    }

    fn charge_overhead(&mut self, cycles: u64) {
        self.state.clock += cycles;
        self.state.monitor_cycles += cycles;
    }
}
