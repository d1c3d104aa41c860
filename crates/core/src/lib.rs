//! HPCToolkit-NUMA core: the paper's primary contribution.
//!
//! This crate implements the online profiler of
//! *A Tool to Analyze the Performance of Multithreaded Programs on NUMA
//! Architectures* (Liu & Mellor-Crummey, PPoPP 2014):
//!
//! * **NUMA metrics** (§4) — [`MetricSet`] with `M_l`/`M_r`, per-domain
//!   request counts, remote-latency totals, and the `lpi_NUMA` derived
//!   metric with its 0.1 cycles/instruction significance threshold.
//! * **Code-centric attribution** (§5.1) — per-thread calling context trees
//!   ([`Cct`]) with statement-level leaves.
//! * **Data-centric attribution** (§5.1) — [`VariableRegistry`] mapping
//!   sampled addresses to heap/static/stack variables, heap variables
//!   attributed to their full allocation call path.
//! * **Address-centric attribution** (§5.2) — [`AddressRanges`]: per-thread
//!   per-variable-bin \[min,max\] accessed ranges, scoped to the whole program
//!   and to individual parallel regions.
//! * **First-touch pinpointing** (§6) — page-protection traps recorded as
//!   [`FirstTouchRecord`]s with both code- and data-centric attribution.
//!
//! The entry point is [`NumaProfiler`]: construct it with a machine, a
//! [`ProfilerConfig`] (choosing one of the six sampling mechanisms), hand it
//! to a `numa_sim::Program` as its monitor, and call
//! [`NumaProfiler::into_profile`] afterwards. The offline analyzer lives in
//! the `numa-analysis` crate.

pub mod addrcentric;
pub mod cct;
pub mod config;
pub mod datacentric;
pub mod firsttouch;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod profiler;
pub mod trace;

pub use addrcentric::{AddressRanges, RangeKey, RangeScope, RangeStat};
pub use cct::{Cct, CctNode, NodeId, NodeKey, ROOT};
pub use config::{ProfilerConfig, BINS_ENV_VAR};
pub use datacentric::{bins_for, VarId, VarRecord, VariableRegistry};
pub use firsttouch::{FirstTouchGranularity, FirstTouchRecord, FirstTouchStore};
pub use metrics::{MetricSet, LPI_THRESHOLD};
pub use profile::{NumaProfile, ThreadProfile};
pub use profiler::{finish_profile, NumaProfiler};
pub use trace::{render_timeline, Trace, TracePoint};
