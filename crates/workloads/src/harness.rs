//! Common harness for running mini-apps bare or under the profiler.

use numa_machine::Machine;
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sim::{ExecMode, Program, ProgramStats};
use std::rc::Rc;

/// Per-phase timing emitted by a workload (e.g. AMG's setup vs. solve —
/// the paper reports solver-phase improvements separately).
#[derive(Clone, Debug, Default)]
pub struct WorkloadOutput {
    /// (phase name, elapsed cycles attributed to the phase).
    pub phases: Vec<(String, u64)>,
}

impl WorkloadOutput {
    pub fn phase(&self, name: &str) -> Option<u64> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, c)| *c)
    }
}

/// A mini-app: drives a [`Program`] through its regions.
pub trait Workload {
    fn name(&self) -> &'static str;
    fn execute(&self, program: &mut Program) -> WorkloadOutput;
}

/// Track a phase's elapsed cycles around a closure.
pub fn timed_phase(
    program: &mut Program,
    out: &mut WorkloadOutput,
    name: &str,
    f: impl FnOnce(&mut Program),
) {
    let before = program.stats().elapsed_cycles;
    f(program);
    let after = program.stats().elapsed_cycles;
    out.phases.push((name.to_string(), after - before));
}

/// Run a workload without monitoring (the Table 2 baseline). `ExecMode`
/// has one variant; see its doc for why the parameter remains.
pub fn run_unmonitored(
    w: &dyn Workload,
    machine: Machine,
    threads: usize,
    _mode: ExecMode,
) -> (ProgramStats, WorkloadOutput) {
    let mut p = Program::unmonitored(machine, threads);
    let out = w.execute(&mut p);
    (p.finish(), out)
}

/// Run a workload under the NUMA profiler.
pub fn run_profiled(
    w: &dyn Workload,
    machine: Machine,
    threads: usize,
    _mode: ExecMode,
    config: ProfilerConfig,
) -> (ProgramStats, WorkloadOutput, NumaProfile) {
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, threads));
    let mut p = Program::new(machine, threads, profiler.clone());
    let out = w.execute(&mut p);
    let stats = p.stats();
    let profile = finish_profile(p, profiler);
    (stats, out, profile)
}
