//! Execution engine for simulated multithreaded programs on a NUMA machine.
//!
//! Workloads are Rust closures that narrate their execution to the engine
//! through a [`ThreadCtx`]: call structure (`call`/`loop_scope`/parallel
//! regions), data objects (`alloc` with a placement policy), and individual
//! memory accesses (`load`/`store`) plus non-memory work (`compute`). The
//! engine resolves each access through private L1/L2 caches, the per-domain
//! shared L3s, and the machine's page map / latency / contention models,
//! producing a [`MemoryEvent`] stream that a [`Monitor`] (the profiler)
//! observes.
//!
//! Key simplifications relative to real hardware, none of which change what
//! the NUMA profiler observes qualitatively:
//!
//! * no cache-coherence invalidations (no data values are simulated, so
//!   coherence could only perturb timing second-order);
//! * 1-IPC in-order cores — latency simply accumulates on a per-thread
//!   virtual clock;
//! * SMT threads get private L1/L2 (real SMT siblings share them).

pub mod cache;
pub mod event;
pub mod func;
pub mod l3;
pub mod monitor;
pub mod program;
pub mod space;
pub mod thread;

pub use cache::{Cache, CacheConfig, LINE_SHIFT, LINE_SIZE};
pub use event::{AllocInfo, MemoryEvent, PageFaultEvent, VarKind};
pub use func::{Frame, FrameKind, FuncId, FuncRegistry};
pub use l3::{L3Complex, SharedL3};
pub use monitor::{Monitor, NullMonitor, SampleGate};
pub use program::{alloc_static, ExecMode, Program, ProgramStats, SharedEnv};
pub use space::AddressSpace;
pub use thread::{ThreadCtx, ThreadState, ALLOC_BASE_COST, FAULT_DELIVERY_COST};
