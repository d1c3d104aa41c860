//! The shared attribution engine: one query path for every layer above
//! the profiler.
//!
//! The paper's three attribution views — code-centric (§5.1),
//! data-centric (§5.1), and address-centric (§5.2) — used to be derived
//! by each presentation layer re-walking an owned [`NumaProfile`]. This
//! crate centralizes that work:
//!
//! * [`intern::SymbolTable`] — thread-safe interning of function,
//!   variable, and machine names to dense `u32` ids, so name lookups are
//!   hash probes instead of `Vec<String>` scans.
//! * [`index::ProfileIndex`] — a compact columnar index built **once**
//!   per profile: merged totals, sorted per-variable [`MetricSet`](numa_profiler::MetricSet)
//!   columns, the `[min,max]`-reduced range table (§7.2) sorted by
//!   (variable, scope, bin), per-thread hot-bin rows, the first-touch
//!   site index, and the merged calling context tree.
//! * [`Engine`] — shares the profile by `Arc` (zero-copy: the store and
//!   the daemon hand out analyzers without cloning profiles) and answers
//!   every attribution query as an O(lookup) probe into the index.
//!
//! The pre-engine scan paths survive only as the reference
//! implementation the equivalence tests compare against
//! (`tests/oracle`).

pub mod engine;
pub mod index;
pub mod intern;

pub use engine::{Engine, ThreadRange};
pub use index::ProfileIndex;
pub use intern::{Symbol, SymbolTable};

// Re-exported so downstream crates can name profile types through the
// engine without an extra direct dependency.
pub use numa_profiler::NumaProfile;
