//! The measurement of one monitored execution: what `hpcrun` writes (as
//! a `numa-codec` container) and the offline analyzer (crate
//! `numa-analysis`) consumes.

use crate::addrcentric::{RangeKey, RangeStat};
use crate::cct::Cct;
use crate::datacentric::{VarId, VarRecord};
use crate::firsttouch::FirstTouchRecord;
use crate::metrics::MetricSet;
use crate::trace::Trace;
use numa_machine::{CpuId, DomainId};
use numa_sampling::{Capabilities, MechanismKind};

/// One thread's measurement data.
#[derive(Clone, Debug)]
pub struct ThreadProfile {
    pub tid: usize,
    pub cpu: CpuId,
    pub domain: DomainId,
    /// Per-thread calling context tree with exclusive metrics on nodes.
    pub cct: Cct,
    /// Whole-thread metric totals.
    pub totals: MetricSet,
    /// Absolute instructions retired (conventional PMU counter; the `I` of
    /// Eq. 3).
    pub instructions: u64,
    /// Absolute eligible-event count from the mechanism's event counter
    /// (the `E_NUMA` of Eq. 3; 0 for mechanisms without one).
    pub numa_events: u64,
    /// Data-centric metrics per variable.
    pub var_metrics: Vec<(VarId, MetricSet)>,
    /// Address-centric \[min,max\] ranges per (variable, bin, scope).
    pub ranges: Vec<(RangeKey, RangeStat)>,
    /// Time series of cumulative NUMA counters (empty unless tracing was
    /// enabled).
    pub trace: Trace,
    /// Call-stack underflows the engine absorbed on this thread: exits
    /// that outnumbered enters in a malformed replayed program. Nonzero
    /// means the code-centric attribution for this thread is suspect.
    pub stack_underflows: u64,
}

/// Full profile of one run.
#[derive(Clone, Debug)]
pub struct NumaProfile {
    pub mechanism: MechanismKind,
    pub capabilities: Capabilities,
    /// NUMA domains of the machine measured on.
    pub domains: usize,
    pub machine_name: String,
    /// Function names indexed by `FuncId`.
    pub func_names: Vec<String>,
    /// All monitored variables.
    pub vars: Vec<VarRecord>,
    pub threads: Vec<ThreadProfile>,
    /// First-touch records (§6), across all threads.
    pub first_touches: Vec<FirstTouchRecord>,
}

impl NumaProfile {
    /// Name of a function id (for report rendering).
    pub fn func_name(&self, id: numa_sim::FuncId) -> &str {
        self.func_names
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Variable record by id. Returns `None` for ids with no record —
    /// possible when analyzing a truncated or hand-edited profile whose
    /// metric tables reference variables missing from `vars` — so query
    /// paths degrade gracefully instead of panicking on malformed input.
    pub fn var(&self, id: VarId) -> Option<&VarRecord> {
        self.vars.get(id.0 as usize)
    }

    /// Look up a variable by source name (first match).
    pub fn var_by_name(&self, name: &str) -> Option<&VarRecord> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Total sampled-instruction count across threads (`I^s`).
    pub fn total_instruction_samples(&self) -> u64 {
        self.threads.iter().map(|t| t.totals.samples_instr).sum()
    }

    /// Total call-stack underflows absorbed across threads (0 for a
    /// well-formed program).
    pub fn total_stack_underflows(&self) -> u64 {
        self.threads.iter().map(|t| t.stack_underflows).sum()
    }

    /// Total absolute instructions across threads (`I`).
    pub fn total_instructions(&self) -> u64 {
        self.threads.iter().map(|t| t.instructions).sum()
    }

    /// Render as JSON — an output only: profile files are codec
    /// containers (`numa-codec`), and nothing reads this form back. Its
    /// only callers are the benchmark harness (its corpus check and the
    /// `core.to_json_us` probe) and the test that pins its bytes; it goes
    /// when the harness retires that probe.
    pub fn to_json(&self) -> String {
        let mut w = serde_json::Writer::compact();
        crate::json::profile(&mut w, self);
        w.finish()
    }
}
