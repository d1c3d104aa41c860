//! JSON text of the analysis outputs: the report, the diff and the
//! address-view export. Written field by field through `serde_json`'s
//! [`Writer`], one field list per type in declaration order, with the
//! profile crate's conventions and its `metric_set`
//! (`numa_profiler::json`).

use crate::analyzer::{ProgramAnalysis, VarAnalysis};
use crate::diff::{Delta, DiffReport, VarDelta};
use crate::report::{AnalysisReport, RegionAdvice, VarAdvice};
use numa_engine::ThreadRange;
use numa_profiler::json::metric_set;
use serde_json::Writer;

/// Pretty-printed text of whatever `write` writes.
pub(crate) fn pretty(write: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::pretty();
    write(&mut w);
    w.finish()
}

pub(crate) fn report(w: &mut Writer, r: &AnalysisReport) {
    w.object(|w| {
        w.field("machine", &r.machine);
        w.field("mechanism", &r.mechanism);
        w.key("program");
        program(w, &r.program);
        w.key("advice").array(&r.advice, var_advice);
    });
}

fn program(w: &mut Writer, p: &ProgramAnalysis) {
    w.object(|w| {
        w.key("mechanism").debug(&p.mechanism);
        w.field("lpi_numa", &p.lpi_numa);
        w.field("remote_fraction", &p.remote_fraction);
        w.field("per_domain", &p.per_domain);
        w.field("domain_imbalance", &p.domain_imbalance);
        w.field("total_samples", &p.total_samples);
        w.field("total_latency", &p.total_latency);
        w.field("remote_latency", &p.remote_latency);
        w.field("remote_latency_fraction", &p.remote_latency_fraction);
        w.field("heap_share", &p.heap_share);
        w.field("static_share", &p.static_share);
        w.field("stack_share", &p.stack_share);
    });
}

fn var_advice(w: &mut Writer, a: &VarAdvice) {
    w.object(|w| {
        w.field("var", &a.var.0);
        w.field("name", &a.name);
        w.key("summary");
        var_analysis(w, &a.summary);
        w.key("pattern").debug(&a.pattern);
        w.key("dominant_region");
        match &a.dominant_region {
            Some(r) => region_advice(w, r),
            None => w.null(),
        }
        w.key("recommendation").debug(&a.recommendation);
        w.key("first_touch_sites")
            .array(&a.first_touch_sites, |w, (tid, domain, path)| {
                w.tuple(|w| {
                    w.u64(*tid as u64);
                    w.str(domain);
                    w.str(path);
                })
            });
    });
}

fn var_analysis(w: &mut Writer, v: &VarAnalysis) {
    w.object(|w| {
        w.field("var", &v.var.0);
        w.field("name", &v.name);
        w.key("kind").debug(&v.kind);
        w.field("bytes", &v.bytes);
        w.key("metrics");
        metric_set(w, &v.metrics);
        w.field("remote_share", &v.remote_share);
        w.field("lpi", &v.lpi);
        w.field("alloc_path", &v.alloc_path);
        w.field("alloc_tid", &v.alloc_tid);
    });
}

fn region_advice(w: &mut Writer, r: &RegionAdvice) {
    w.object(|w| {
        w.field("region", &r.region);
        w.field("share", &r.share);
        w.key("pattern").debug(&r.pattern);
    });
}

pub(crate) fn diff_report(w: &mut Writer, d: &DiffReport) {
    w.object(|w| {
        w.key("program_before");
        program(w, &d.program_before);
        w.key("program_after");
        program(w, &d.program_after);
        w.key("remote_fraction");
        delta(w, &d.remote_fraction);
        w.key("remote_latency");
        delta(w, &d.remote_latency);
        w.key("lpi");
        match &d.lpi {
            Some(lpi) => delta(w, lpi),
            None => w.null(),
        }
        w.key("vars").array(&d.vars, var_delta);
    });
}

fn delta(w: &mut Writer, d: &Delta) {
    w.object(|w| {
        w.field("before", &d.before);
        w.field("after", &d.after);
    });
}

fn var_delta(w: &mut Writer, v: &VarDelta) {
    w.object(|w| {
        w.field("name", &v.name);
        w.key("kind").debug(&v.kind);
        w.key("m_remote");
        delta(w, &v.m_remote);
        w.key("latency_remote");
        delta(w, &v.latency_remote);
        w.field("only_in", &v.only_in);
    });
}

/// One variable's address-centric view under one scope, for external
/// plotting.
pub(crate) fn address_view(w: &mut Writer, variable: &str, scope: &str, threads: &[ThreadRange]) {
    let thread = |w: &mut Writer, t: &ThreadRange| {
        w.object(|w| {
            w.field("tid", &t.tid);
            w.field("min", &t.min);
            w.field("max", &t.max);
            w.field("samples", &t.samples);
            w.field("latency", &t.latency);
        })
    };
    w.object(|w| {
        w.field("variable", variable);
        w.field("scope", scope);
        w.key("threads").array(threads, thread);
    });
}
