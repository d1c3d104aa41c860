//! JSON text of the profile types. JSON is an output only: a tool writes
//! it field by field through `serde_json`'s [`Writer`], with no tree in
//! between. Every builder lists its type's fields once, in declaration
//! order, and follows serde's JSON conventions: an id newtype is its
//! number, a unit variant is its name, a variant that carries data is a
//! one-key object, `None` is `null`, and tuples and arrays are arrays.
//!
//! [`metric_set`] is shared with `numa-analysis`, which writes its
//! report, diff and address-view text with the same conventions.

use crate::addrcentric::{RangeKey, RangeScope, RangeStat};
use crate::cct::{Cct, CctNode, NodeKey};
use crate::datacentric::VarRecord;
use crate::firsttouch::FirstTouchRecord;
use crate::metrics::MetricSet;
use crate::profile::{NumaProfile, ThreadProfile};
use crate::trace::{Trace, TracePoint};
use numa_sampling::Capabilities;
use numa_sim::Frame;
use serde_json::Writer;

pub fn metric_set(w: &mut Writer, m: &MetricSet) {
    w.object(|w| {
        w.field("m_local", &m.m_local);
        w.field("m_remote", &m.m_remote);
        w.field("per_domain", &m.per_domain);
        w.field("latency_total", &m.latency_total);
        w.field("latency_remote", &m.latency_remote);
        w.field("latency_samples", &m.latency_samples);
        w.field("samples_mem", &m.samples_mem);
        w.field("samples_instr", &m.samples_instr);
        w.field("loads", &m.loads);
        w.field("stores", &m.stores);
        w.field("level_hist", &m.level_hist);
        w.field("first_touch_samples", &m.first_touch_samples);
    });
}

fn capabilities(w: &mut Writer, c: &Capabilities) {
    w.object(|w| {
        w.field("samples_all_instructions", &c.samples_all_instructions);
        w.field("latency", &c.latency);
        w.field("data_source", &c.data_source);
        w.field("precise_ip", &c.precise_ip);
    });
}

fn frame(w: &mut Writer, f: &Frame) {
    w.object(|w| {
        w.field("func", &f.func.0);
        w.key("kind").debug(&f.kind);
    });
}

/// The whole profile, as `NumaProfile::to_json` prints it.
pub(crate) fn profile(w: &mut Writer, p: &NumaProfile) {
    w.object(|w| {
        w.key("mechanism").debug(&p.mechanism);
        w.key("capabilities");
        capabilities(w, &p.capabilities);
        w.field("domains", &p.domains);
        w.field("machine_name", &p.machine_name);
        w.field("func_names", &p.func_names);
        w.key("vars").array(&p.vars, var_record);
        w.key("threads").array(&p.threads, thread);
        w.key("first_touches").array(&p.first_touches, first_touch);
    });
}

fn var_record(w: &mut Writer, v: &VarRecord) {
    w.object(|w| {
        w.field("id", &v.id.0);
        w.field("name", &v.name);
        w.field("addr", &v.addr);
        w.field("bytes", &v.bytes);
        w.key("kind").debug(&v.kind);
        w.field("alloc_tid", &v.alloc_tid);
        w.key("alloc_path").array(&v.alloc_path, frame);
        w.field("bins", &v.bins);
        w.field("freed", &v.freed);
    });
}

fn thread(w: &mut Writer, t: &ThreadProfile) {
    w.object(|w| {
        w.field("tid", &t.tid);
        w.field("cpu", &t.cpu.0);
        w.field("domain", &t.domain.0);
        w.key("cct");
        cct(w, &t.cct);
        w.key("totals");
        metric_set(w, &t.totals);
        w.field("instructions", &t.instructions);
        w.field("numa_events", &t.numa_events);
        w.key("var_metrics").array(&t.var_metrics, |w, (v, m)| {
            w.tuple(|w| {
                w.u64(v.0 as u64);
                metric_set(w, m);
            })
        });
        w.key("ranges").array(&t.ranges, |w, (k, s)| {
            w.tuple(|w| {
                range_key(w, k);
                range_stat(w, s);
            })
        });
        w.key("trace");
        trace(w, &t.trace);
        w.field("stack_underflows", &t.stack_underflows);
    });
}

/// The node list and the domain count; the lookup index is derived
/// state and is left out.
fn cct(w: &mut Writer, c: &Cct) {
    w.object(|w| {
        w.key("nodes").array(c.nodes(), cct_node);
        w.field("domains", &c.domains());
    });
}

fn cct_node(w: &mut Writer, n: &CctNode) {
    w.object(|w| {
        w.key("key");
        match n.key {
            NodeKey::Root => w.str("Root"),
            NodeKey::Frame(f) => w.object(|w| {
                w.key("Frame");
                frame(w, &f);
            }),
            NodeKey::Line(line) => w.object(|w| w.field("Line", &line)),
        }
        w.field("parent", &n.parent);
        w.key("metrics");
        metric_set(w, &n.metrics);
    });
}

fn range_key(w: &mut Writer, k: &RangeKey) {
    w.object(|w| {
        w.field("var", &k.var.0);
        w.field("bin", &k.bin);
        w.key("scope");
        match k.scope {
            RangeScope::Program => w.str("Program"),
            RangeScope::Region(f) => w.object(|w| w.field("Region", &f.0)),
        }
    });
}

fn range_stat(w: &mut Writer, s: &RangeStat) {
    w.object(|w| {
        w.field("min_addr", &s.min_addr);
        w.field("max_addr", &s.max_addr);
        w.field("count", &s.count);
        w.field("latency", &s.latency);
        w.field("latency_remote", &s.latency_remote);
    });
}

fn trace(w: &mut Writer, t: &Trace) {
    let point = |w: &mut Writer, p: &TracePoint| {
        w.object(|w| {
            w.field("clock", &p.clock);
            w.field("samples", &p.samples);
            w.field("m_remote", &p.m_remote);
            w.field("latency_remote", &p.latency_remote);
        })
    };
    w.object(|w| {
        w.field("interval", &t.interval());
        w.key("points").array(t.points(), point);
    });
}

fn first_touch(w: &mut Writer, r: &FirstTouchRecord) {
    w.object(|w| {
        w.field("var", &r.var.0);
        w.field("tid", &r.tid);
        w.field("cpu", &r.cpu.0);
        w.field("domain", &r.domain.0);
        w.field("addr", &r.addr);
        w.field("is_store", &r.is_store);
        w.field("line", &r.line);
        w.key("path").array(&r.path, frame);
    });
}
