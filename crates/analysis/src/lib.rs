//! Offline analyzer and viewer (§7.2): the `hpcprof` + `hpcviewer` roles.
//!
//! * [`Analyzer`] merges per-thread profiles (metric accumulation plus the
//!   \[min,max\] reduction for address ranges), computes the derived metrics
//!   of §4 (`lpi_NUMA` via Eq. 2/3, remote fractions, per-domain balance),
//!   and ranks hot variables.
//! * [`pattern`] classifies per-thread access-range shapes (blocked
//!   staircase / staggered-overlapping / full-range / irregular) and maps
//!   them to the paper's optimization strategies — automating the
//!   read-the-plot step of the case studies.
//! * [`view`] renders the address-centric view (Figure 3's upper-right
//!   pane) as text and JSON.
//! * [`report`] assembles everything into an actionable report with
//!   first-touch sites to edit.

pub mod analyzer;
pub mod diff;
pub mod html;
mod json;
pub mod pattern;
pub mod report;
pub mod view;

pub use analyzer::{Analyzer, ProgramAnalysis, ThreadRange, VarAnalysis};
pub use diff::{diff, Delta, DiffReport, VarDelta};
pub use html::{html_report, svg_address_plot, svg_for_var};
pub use pattern::{
    classify, classify_with, recommend, AccessPattern, ClassifierConfig, Recommendation,
};
pub use report::{analyze, full_text_report, AnalysisReport, RegionAdvice, VarAdvice};
pub use view::{
    export_address_view, render_address_view, render_cct, render_metric_table, render_ranges,
    render_trace_timelines,
};
