//! The online profiler (§7.1): the `Monitor` implementation that drives a
//! sampling mechanism, attributes samples to code / data / address ranges,
//! and pinpoints first touches.

use crate::addrcentric::AddressRanges;
use crate::cct::Cct;
use crate::config::ProfilerConfig;
use crate::datacentric::{bins_for, VarId, VariableRegistry};
use crate::firsttouch::{FirstTouchGranularity, FirstTouchRecord, FirstTouchStore};
use crate::metrics::MetricSet;
use crate::profile::{NumaProfile, ThreadProfile};
use crate::trace::Trace;
use numa_machine::{CpuId, DomainId, Machine};
use numa_sampling::{Capabilities, Sampler};
use numa_sim::{
    AllocInfo, Frame, FrameKind, FuncRegistry, MemoryEvent, Monitor, PageFaultEvent, SampleGate,
    VarKind,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Cycles of handler work per first-touch fault (attribution + `mprotect`
/// restore), on top of the engine's delivery cost.
const FAULT_HANDLER_COST: u64 = 1500;

/// Per-frame cost of unwinding a call stack inside a sample handler.
const UNWIND_COST_PER_FRAME: u64 = 40;

struct ThreadLocal {
    cpu: CpuId,
    domain: DomainId,
    mechanism: Sampler,
    cct: Cct,
    ranges: AddressRanges,
    totals: MetricSet,
    var_metrics: HashMap<VarId, MetricSet>,
    instructions: u64,
    stack_underflows: u64,
    trace: Option<Trace>,
}

/// The NUMA profiler. Create one per run, hand it to the engine as the
/// program's [`Monitor`], then call [`NumaProfiler::into_profile`] to obtain
/// the serialized measurement data.
pub struct NumaProfiler {
    machine: Machine,
    config: ProfilerConfig,
    caps: Capabilities,
    threads: Vec<RefCell<ThreadLocal>>,
    vars: VariableRegistry,
    first_touch: FirstTouchStore,
}

impl NumaProfiler {
    pub fn new(machine: Machine, config: ProfilerConfig, num_threads: usize) -> Self {
        let domains = machine.topology().domains();
        let caps = Capabilities::for_kind(config.mechanism.kind);
        let threads = (0..num_threads)
            .map(|tid| {
                RefCell::new(ThreadLocal {
                    cpu: CpuId(0),
                    domain: DomainId(0),
                    mechanism: config.mechanism.build(tid),
                    cct: Cct::new(domains),
                    ranges: AddressRanges::new(),
                    totals: MetricSet::new(domains),
                    var_metrics: HashMap::new(),
                    instructions: 0,
                    stack_underflows: 0,
                    trace: config.trace_interval.map(Trace::new),
                })
            })
            .collect();
        NumaProfiler {
            machine,
            config,
            caps,
            threads,
            vars: VariableRegistry::new(),
            first_touch: FirstTouchStore::new(),
        }
    }

    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    pub fn capabilities(&self) -> Capabilities {
        self.caps
    }

    /// Whether a variable kind is monitored under the current config.
    fn monitored(&self, kind: VarKind) -> bool {
        match kind {
            VarKind::Heap => true,
            VarKind::Static => self.config.monitor_static,
            VarKind::Stack => self.config.monitor_stack,
        }
    }

    /// Innermost parallel-region frame on a stack (for per-region
    /// address-centric scoping).
    fn innermost_region(stack: &[Frame]) -> Option<numa_sim::FuncId> {
        stack
            .iter()
            .rev()
            .find(|f| f.kind == FrameKind::ParallelRegion)
            .map(|f| f.func)
    }

    /// Approximate resident bytes of all profiler data structures — the
    /// quantity the paper bounds at 40 MB (§8).
    pub fn footprint_bytes(&self) -> usize {
        let threads: usize = self
            .threads
            .iter()
            .map(|t| {
                let t = t.borrow();
                t.cct.footprint_bytes() + t.ranges.footprint_bytes() + t.var_metrics.len() * 256
            })
            .sum();
        threads + self.vars.footprint_bytes() + self.first_touch.len() * 128
    }

    /// Consume the profiler, producing the serializable profile.
    /// `funcs` must be the registry of the program that ran (it owns the
    /// `FuncId → name` mapping).
    pub fn into_profile(self, funcs: &FuncRegistry) -> NumaProfile {
        let func_names: Vec<String> = (0..funcs.len())
            .map(|i| funcs.name(numa_sim::FuncId(i as u32)).to_string())
            .collect();
        let threads = self
            .threads
            .into_iter()
            .enumerate()
            .map(|(tid, t)| {
                let t = t.into_inner();
                let mut var_metrics: Vec<(VarId, MetricSet)> = t.var_metrics.into_iter().collect();
                var_metrics.sort_by_key(|(v, _)| *v);
                ThreadProfile {
                    tid,
                    cpu: t.cpu,
                    domain: t.domain,
                    cct: t.cct,
                    totals: t.totals,
                    instructions: t.instructions,
                    numa_events: t.mechanism.event_count(),
                    var_metrics,
                    ranges: t.ranges.into_sorted_vec(),
                    trace: t.trace.unwrap_or_default(),
                    stack_underflows: t.stack_underflows,
                }
            })
            .collect();
        NumaProfile {
            mechanism: self.config.mechanism.kind,
            capabilities: self.caps,
            domains: self.machine.topology().domains(),
            machine_name: self.machine.topology().name().to_string(),
            func_names,
            vars: self.vars.all(),
            threads,
            first_touches: self.first_touch.into_records(),
        }
    }
}

impl Monitor for NumaProfiler {
    fn on_thread_start(&self, tid: usize, cpu: CpuId, domain: DomainId) {
        let mut t = self.threads[tid].borrow_mut();
        t.cpu = cpu;
        t.domain = domain;
    }

    fn gate(&self, tid: usize) -> SampleGate {
        self.threads[tid].borrow_mut().mechanism.gate()
    }

    fn on_unseen(&self, tid: usize, instructions: u64, ticks: u64) {
        let mut t = self.threads[tid].borrow_mut();
        t.instructions += instructions;
        t.mechanism.skipped(ticks);
    }

    fn on_alloc(&self, info: &AllocInfo<'_>, stack: &[Frame]) -> u64 {
        if !self.monitored(info.kind) {
            return 0;
        }
        let bins = bins_for(
            info.bytes,
            self.config.bins,
            self.config.bin_threshold_pages,
        );
        self.vars.register(
            info.name,
            info.addr,
            info.bytes,
            info.kind,
            info.tid,
            stack.to_vec(),
            bins,
        );
        let pages = self
            .machine
            .page_map()
            .protect_extent(info.addr, info.bytes);
        pages * self.config.protect_cost_per_page + 50
    }

    fn on_free(&self, _tid: usize, addr: u64) -> u64 {
        self.vars.mark_freed(addr);
        20
    }

    fn on_compute(&self, tid: usize, n: u64, stack: &[Frame]) -> u64 {
        let mut t = self.threads[tid].borrow_mut();
        t.instructions += n;
        let out = t.mechanism.on_compute(n);
        if out.instruction_samples > 0 {
            let node = t.cct.resolve(stack, 0);
            t.cct
                .node_mut(node)
                .metrics
                .add_instruction_samples(out.instruction_samples);
            t.totals.add_instruction_samples(out.instruction_samples);
        }
        out.overhead
    }

    fn on_access(&self, ev: &MemoryEvent, stack: &[Frame]) -> u64 {
        let mut t = self.threads[ev.tid].borrow_mut();
        t.instructions += 1;
        let out = t.mechanism.on_access(ev);
        let Some(sample) = out.sample else {
            return out.overhead;
        };

        // The profiler's own work per sample: unwind + move_pages query.
        let attribution_cost = UNWIND_COST_PER_FRAME * stack.len() as u64;

        // Data address → NUMA domain, via the simulated move_pages (§4.1).
        let home = self.machine.domain_of_addr(ev.addr);

        // Code-centric: attribute to the full calling context + line.
        let node = t.cct.resolve(stack, sample.line);
        t.cct
            .node_mut(node)
            .metrics
            .add_sample(&sample, home, ev.first_touch_page);
        t.totals.add_sample(&sample, home, ev.first_touch_page);

        // Data- and address-centric: attribute to the variable and its bin.
        if let Some(var) = self.vars.lookup(ev.addr) {
            let domains = self.machine.topology().domains();
            t.var_metrics
                .entry(var)
                .or_insert_with(|| MetricSet::new(domains))
                .add_sample(&sample, home, ev.first_touch_page);
            let bin = self.vars.with_record(var, |r| r.bin_of(ev.addr));
            let region = Self::innermost_region(stack);
            t.ranges.record(var, bin, region, &sample);
        }

        // Trace-based measurement: snapshot cumulative counters when the
        // interval elapses.
        let t = &mut *t;
        if let Some(trace) = &mut t.trace {
            trace.offer(
                ev.clock,
                t.totals.samples_mem,
                t.totals.m_remote,
                t.totals.latency_remote,
            );
        }

        out.overhead + attribution_cost
    }

    fn on_stack_underflow(&self, tid: usize) {
        self.threads[tid].borrow_mut().stack_underflows += 1;
    }

    fn on_page_fault(&self, fault: &PageFaultEvent, stack: &[Frame]) -> u64 {
        let Some(var) = self.vars.lookup(fault.addr) else {
            // Fault on an unmonitored region (should not happen: only the
            // profiler installs protection). Charge handler cost anyway.
            return FAULT_HANDLER_COST;
        };
        if self.config.first_touch_granularity == FirstTouchGranularity::Variable {
            // §6: restore permissions for the variable's monitored pages.
            let (addr, bytes) = self.vars.with_record(var, |r| (r.addr, r.bytes));
            self.machine.page_map().unprotect_extent(addr, bytes);
        }
        self.first_touch.record(FirstTouchRecord {
            var,
            tid: fault.tid,
            cpu: fault.cpu,
            domain: fault.thread_domain,
            addr: fault.addr,
            is_store: fault.is_store,
            line: fault.line,
            path: stack.to_vec(),
        });
        FAULT_HANDLER_COST + UNWIND_COST_PER_FRAME * stack.len() as u64
    }
}

/// Convenience for the common tear-down sequence: finish the program,
/// recover unique ownership of the profiler, and produce the profile.
///
/// # Panics
/// Panics if other clones of the profiler `Rc` are still alive.
pub fn finish_profile(mut program: numa_sim::Program, profiler: Rc<NumaProfiler>) -> NumaProfile {
    program.finish();
    let funcs = program.into_func_registry();
    let profiler = Rc::try_unwrap(profiler)
        .ok()
        .expect("profiler Rc must be uniquely owned after the program is dropped");
    profiler.into_profile(&funcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{MachinePreset, PlacementPolicy};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::Program;
    use std::rc::Rc;

    fn run_simple(kind: MechanismKind, period: u64) -> NumaProfile {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(kind, period));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
        let mut p = Program::new(machine, 4, profiler.clone());
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("data", 1 << 20, PlacementPolicy::FirstTouch);
            // Master initializes every page (classic first-touch pattern:
            // the whole array lands in domain 0).
            ctx.store_range(base, (1 << 20) / 64, 64);
        });
        p.parallel("work", |tid, ctx| {
            let chunk = (1 << 20) / 4u64;
            ctx.load_range(base + tid as u64 * chunk, 256, 64);
            ctx.compute(1000);
        });
        finish_profile(p, profiler)
    }

    #[test]
    fn profile_contains_samples_and_variables() {
        let profile = run_simple(MechanismKind::SoftIbs, 8);
        assert_eq!(profile.threads.len(), 4);
        assert!(profile.total_instruction_samples() > 0);
        let var = profile.var_by_name("data").unwrap();
        assert_eq!(var.bytes, 1 << 20);
        assert_eq!(var.bins, 5);
        assert_eq!(var.kind, VarKind::Heap);
    }

    #[test]
    fn first_touch_is_pinpointed_to_master_init() {
        let profile = run_simple(MechanismKind::SoftIbs, 64);
        assert!(!profile.first_touches.is_empty());
        let ft = &profile.first_touches[0];
        assert_eq!(ft.tid, 0, "master thread initialized the variable");
        assert_eq!(ft.domain, DomainId(0));
        let names: Vec<&str> = ft.path.iter().map(|f| profile.func_name(f.func)).collect();
        assert_eq!(names, vec!["main"], "fault attributed to the init code");
        // Variable granularity: exactly one fault for one initializer.
        assert_eq!(profile.first_touches.len(), 1);
    }

    #[test]
    fn remote_accesses_show_up_in_worker_threads() {
        let profile = run_simple(MechanismKind::SoftIbs, 4);
        // Data is first-touched by thread 0 (domain 0); workers in other
        // domains must see M_r > 0.
        let t1 = &profile.threads[1];
        assert!(t1.totals.m_remote > 0, "worker 1 sampled remote accesses");
        assert_eq!(t1.totals.m_local, 0, "nothing is local to domain 1");
        // And thread 0's samples are all local.
        let t0 = &profile.threads[0];
        assert_eq!(t0.totals.m_remote, 0);
        assert!(t0.totals.m_local > 0);
    }

    #[test]
    fn per_domain_counts_point_at_domain_zero() {
        let profile = run_simple(MechanismKind::SoftIbs, 4);
        for t in &profile.threads {
            let d0 = t.totals.per_domain[0];
            let rest: u64 = t.totals.per_domain[1..].iter().sum();
            assert_eq!(rest, 0, "all data lives in domain 0");
            assert_eq!(d0, t.totals.resolved_samples());
        }
    }

    #[test]
    fn address_ranges_cover_each_threads_chunk() {
        let profile = run_simple(MechanismKind::SoftIbs, 1);
        let var = profile.var_by_name("data").unwrap();
        // Thread 2 reads [2*chunk, 2*chunk + 256*64): its recorded ranges
        // must stay inside that window.
        let chunk = (1u64 << 20) / 4;
        let lo = var.addr + 2 * chunk;
        let hi = lo + 256 * 64;
        let t2 = &profile.threads[2];
        let mut saw = false;
        for (k, s) in &t2.ranges {
            if k.var == var.id {
                // Ignore serial-region samples (thread 2 has none anyway).
                assert!(s.min_addr >= lo && s.max_addr < hi);
                saw = true;
            }
        }
        assert!(saw, "thread 2 recorded address ranges");
    }

    #[test]
    fn ibs_counts_instruction_samples_from_compute() {
        let profile = run_simple(MechanismKind::Ibs, 100);
        // compute(1000) per thread guarantees instruction samples beyond
        // memory ones.
        let total_mem: u64 = profile.threads.iter().map(|t| t.totals.samples_mem).sum();
        assert!(profile.total_instruction_samples() > total_mem);
    }

    #[test]
    fn footprint_stays_small() {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::SoftIbs, 16));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 8));
        let mut p = Program::new(machine, 8, profiler.clone());
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("big", 8 << 20, PlacementPolicy::FirstTouch);
            ctx.store_range(base, 4096, 64);
        });
        p.parallel("work", |tid, ctx| {
            let chunk = (8u64 << 20) / 8;
            ctx.load_range(base + tid as u64 * chunk, 2048, 64);
        });
        // §8: aggregate runtime footprint below 40 MB.
        assert!(
            profiler.footprint_bytes() < 40 * 1024 * 1024,
            "footprint {} bytes",
            profiler.footprint_bytes()
        );
    }

    #[test]
    fn static_and_stack_variables_can_be_monitored() {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::SoftIbs, 1));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 2));
        let mut p = Program::new(machine, 2, profiler.clone());
        p.serial("main", |ctx| {
            let s = ctx.alloc_kind(
                "nodelist",
                1 << 20,
                PlacementPolicy::FirstTouch,
                VarKind::Static,
            );
            let k = ctx.alloc_kind(
                "frame_buf",
                64 * 1024,
                PlacementPolicy::FirstTouch,
                VarKind::Stack,
            );
            ctx.store_range(s, 64, 64);
            ctx.store_range(k, 64, 64);
        });
        let profile = finish_profile(p, profiler);
        let s = profile.var_by_name("nodelist").unwrap();
        assert_eq!(s.kind, VarKind::Static);
        let k = profile.var_by_name("frame_buf").unwrap();
        assert_eq!(k.kind, VarKind::Stack);
        // Both received data-centric samples.
        let t0 = &profile.threads[0];
        assert!(t0
            .var_metrics
            .iter()
            .any(|(v, m)| *v == s.id && m.samples_mem > 0));
        assert!(t0
            .var_metrics
            .iter()
            .any(|(v, m)| *v == k.id && m.samples_mem > 0));
    }

    #[test]
    fn page_granularity_records_every_page() {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::SoftIbs, 1024))
            .with_first_touch_granularity(FirstTouchGranularity::Page);
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 1));
        let mut p = Program::new(machine, 1, profiler.clone());
        p.serial("main", |ctx| {
            let a = ctx.alloc("arr", 8 * 4096, PlacementPolicy::FirstTouch);
            for page in 0..8u64 {
                ctx.store(a + page * 4096, 8);
            }
        });
        let profile = finish_profile(p, profiler);
        assert_eq!(profile.first_touches.len(), 8);
    }
}
