//! JSON trees of the analysis outputs: the report, the diff and the
//! address-view export. Built by hand on the profile crate's helpers
//! (`numa_profiler::json`), one field list per type in declaration
//! order, with the same conventions.

use crate::analyzer::{ProgramAnalysis, VarAnalysis};
use crate::diff::{Delta, DiffReport, VarDelta};
use crate::report::{AnalysisReport, RegionAdvice, VarAdvice};
use numa_engine::ThreadRange;
use numa_profiler::json::{metric_set, object, variant};
use serde_json::Value;

pub(crate) fn report(r: &AnalysisReport) -> Value {
    object([
        ("machine", r.machine.as_str().into()),
        ("mechanism", r.mechanism.as_str().into()),
        ("program", program(&r.program)),
        ("advice", r.advice.iter().map(var_advice).collect()),
    ])
}

fn program(p: &ProgramAnalysis) -> Value {
    object([
        ("mechanism", variant(p.mechanism)),
        ("lpi_numa", p.lpi_numa.into()),
        ("remote_fraction", p.remote_fraction.into()),
        ("per_domain", p.per_domain.iter().copied().collect()),
        ("domain_imbalance", p.domain_imbalance.into()),
        ("total_samples", p.total_samples.into()),
        ("total_latency", p.total_latency.into()),
        ("remote_latency", p.remote_latency.into()),
        ("remote_latency_fraction", p.remote_latency_fraction.into()),
        ("heap_share", p.heap_share.into()),
        ("static_share", p.static_share.into()),
        ("stack_share", p.stack_share.into()),
    ])
}

fn var_advice(a: &VarAdvice) -> Value {
    let site = |(tid, domain, path): &(usize, String, String)| -> Value {
        Value::Array(vec![
            (*tid).into(),
            domain.as_str().into(),
            path.as_str().into(),
        ])
    };
    object([
        ("var", a.var.0.into()),
        ("name", a.name.as_str().into()),
        ("summary", var_analysis(&a.summary)),
        ("pattern", variant(a.pattern)),
        (
            "dominant_region",
            a.dominant_region.as_ref().map(region_advice).into(),
        ),
        ("recommendation", variant(a.recommendation)),
        (
            "first_touch_sites",
            a.first_touch_sites.iter().map(site).collect(),
        ),
    ])
}

fn var_analysis(v: &VarAnalysis) -> Value {
    object([
        ("var", v.var.0.into()),
        ("name", v.name.as_str().into()),
        ("kind", variant(v.kind)),
        ("bytes", v.bytes.into()),
        ("metrics", metric_set(&v.metrics)),
        ("remote_share", v.remote_share.into()),
        ("lpi", v.lpi.into()),
        ("alloc_path", v.alloc_path.as_str().into()),
        ("alloc_tid", v.alloc_tid.into()),
    ])
}

fn region_advice(r: &RegionAdvice) -> Value {
    object([
        ("region", r.region.as_str().into()),
        ("share", r.share.into()),
        ("pattern", variant(r.pattern)),
    ])
}

pub(crate) fn diff_report(d: &DiffReport) -> Value {
    object([
        ("program_before", program(&d.program_before)),
        ("program_after", program(&d.program_after)),
        ("remote_fraction", delta(&d.remote_fraction)),
        ("remote_latency", delta(&d.remote_latency)),
        ("lpi", d.lpi.as_ref().map(delta).into()),
        ("vars", d.vars.iter().map(var_delta).collect()),
    ])
}

fn delta(d: &Delta) -> Value {
    object([("before", d.before.into()), ("after", d.after.into())])
}

fn var_delta(v: &VarDelta) -> Value {
    object([
        ("name", v.name.as_str().into()),
        ("kind", variant(v.kind)),
        ("m_remote", delta(&v.m_remote)),
        ("latency_remote", delta(&v.latency_remote)),
        ("only_in", v.only_in.into()),
    ])
}

/// One variable's address-centric view under one scope, for external
/// plotting.
pub(crate) fn address_view(variable: &str, scope: &str, threads: &[ThreadRange]) -> Value {
    let thread = |t: &ThreadRange| {
        object([
            ("tid", t.tid.into()),
            ("min", t.min.into()),
            ("max", t.max.into()),
            ("samples", t.samples.into()),
            ("latency", t.latency.into()),
        ])
    };
    object([
        ("variable", variable.into()),
        ("scope", scope.into()),
        ("threads", threads.iter().map(thread).collect()),
    ])
}
