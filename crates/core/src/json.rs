//! JSON trees of the profile types. JSON is an output only: a tool builds
//! a [`Value`] tree by hand where it prints one, and `serde_json` prints
//! it. Every builder lists its type's fields once, in declaration order,
//! and follows serde's JSON conventions: an id newtype is its number, a
//! unit variant is its name, a variant that carries data is a one-key
//! object, `None` is `null`, and tuples and arrays are arrays.
//!
//! [`object`], [`variant`] and [`metric_set`] are shared with
//! `numa-analysis`, which builds its report, diff and address-view trees
//! from them.

use crate::addrcentric::{RangeKey, RangeScope, RangeStat};
use crate::cct::{Cct, CctNode, NodeKey};
use crate::datacentric::VarRecord;
use crate::firsttouch::FirstTouchRecord;
use crate::metrics::MetricSet;
use crate::profile::{NumaProfile, ThreadProfile};
use crate::trace::{Trace, TracePoint};
use numa_sampling::Capabilities;
use numa_sim::Frame;
use serde_json::Value;
use std::fmt::Debug;

/// An object holding `fields` in order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// A unit variant: its name, which is what derived `Debug` prints.
pub fn variant(v: impl Debug) -> Value {
    Value::String(format!("{v:?}"))
}

/// A two-element tuple.
fn pair(a: Value, b: Value) -> Value {
    Value::Array(vec![a, b])
}

pub fn metric_set(m: &MetricSet) -> Value {
    object([
        ("m_local", m.m_local.into()),
        ("m_remote", m.m_remote.into()),
        ("per_domain", m.per_domain.iter().copied().collect()),
        ("latency_total", m.latency_total.into()),
        ("latency_remote", m.latency_remote.into()),
        ("latency_samples", m.latency_samples.into()),
        ("samples_mem", m.samples_mem.into()),
        ("samples_instr", m.samples_instr.into()),
        ("loads", m.loads.into()),
        ("stores", m.stores.into()),
        ("level_hist", m.level_hist.into_iter().collect()),
        ("first_touch_samples", m.first_touch_samples.into()),
    ])
}

fn capabilities(c: &Capabilities) -> Value {
    object([
        (
            "samples_all_instructions",
            c.samples_all_instructions.into(),
        ),
        ("latency", c.latency.into()),
        ("data_source", c.data_source.into()),
        ("precise_ip", c.precise_ip.into()),
    ])
}

fn frame(f: &Frame) -> Value {
    object([("func", f.func.0.into()), ("kind", variant(f.kind))])
}

/// The whole profile, as `NumaProfile::to_json` prints it.
pub(crate) fn profile(p: &NumaProfile) -> Value {
    object([
        ("mechanism", variant(p.mechanism)),
        ("capabilities", capabilities(&p.capabilities)),
        ("domains", p.domains.into()),
        ("machine_name", p.machine_name.as_str().into()),
        (
            "func_names",
            p.func_names.iter().map(String::as_str).collect(),
        ),
        ("vars", p.vars.iter().map(var_record).collect()),
        ("threads", p.threads.iter().map(thread).collect()),
        (
            "first_touches",
            p.first_touches.iter().map(first_touch).collect(),
        ),
    ])
}

fn var_record(v: &VarRecord) -> Value {
    object([
        ("id", v.id.0.into()),
        ("name", v.name.as_str().into()),
        ("addr", v.addr.into()),
        ("bytes", v.bytes.into()),
        ("kind", variant(v.kind)),
        ("alloc_tid", v.alloc_tid.into()),
        ("alloc_path", v.alloc_path.iter().map(frame).collect()),
        ("bins", v.bins.into()),
        ("freed", v.freed.into()),
    ])
}

fn thread(t: &ThreadProfile) -> Value {
    object([
        ("tid", t.tid.into()),
        ("cpu", t.cpu.0.into()),
        ("domain", t.domain.0.into()),
        ("cct", cct(&t.cct)),
        ("totals", metric_set(&t.totals)),
        ("instructions", t.instructions.into()),
        ("numa_events", t.numa_events.into()),
        (
            "var_metrics",
            t.var_metrics
                .iter()
                .map(|(v, m)| pair(v.0.into(), metric_set(m)))
                .collect(),
        ),
        (
            "ranges",
            t.ranges
                .iter()
                .map(|(k, s)| pair(range_key(k), range_stat(s)))
                .collect(),
        ),
        ("trace", trace(&t.trace)),
        ("stack_underflows", t.stack_underflows.into()),
    ])
}

/// The node list and the domain count; the lookup index is derived
/// state and is left out.
fn cct(c: &Cct) -> Value {
    object([
        ("nodes", c.nodes().iter().map(cct_node).collect()),
        ("domains", c.domains().into()),
    ])
}

fn cct_node(n: &CctNode) -> Value {
    let key = match n.key {
        NodeKey::Root => "Root".into(),
        NodeKey::Frame(f) => object([("Frame", frame(&f))]),
        NodeKey::Line(line) => object([("Line", line.into())]),
    };
    object([
        ("key", key),
        ("parent", n.parent.into()),
        ("metrics", metric_set(&n.metrics)),
    ])
}

fn range_key(k: &RangeKey) -> Value {
    let scope = match k.scope {
        RangeScope::Program => "Program".into(),
        RangeScope::Region(f) => object([("Region", f.0.into())]),
    };
    object([
        ("var", k.var.0.into()),
        ("bin", k.bin.into()),
        ("scope", scope),
    ])
}

fn range_stat(s: &RangeStat) -> Value {
    object([
        ("min_addr", s.min_addr.into()),
        ("max_addr", s.max_addr.into()),
        ("count", s.count.into()),
        ("latency", s.latency.into()),
        ("latency_remote", s.latency_remote.into()),
    ])
}

fn trace(t: &Trace) -> Value {
    let point = |p: &TracePoint| {
        object([
            ("clock", p.clock.into()),
            ("samples", p.samples.into()),
            ("m_remote", p.m_remote.into()),
            ("latency_remote", p.latency_remote.into()),
        ])
    };
    object([
        ("interval", t.interval().into()),
        ("points", t.points().iter().map(point).collect()),
    ])
}

fn first_touch(r: &FirstTouchRecord) -> Value {
    object([
        ("var", r.var.0.into()),
        ("tid", r.tid.into()),
        ("cpu", r.cpu.0.into()),
        ("domain", r.domain.0.into()),
        ("addr", r.addr.into()),
        ("is_store", r.is_store.into()),
        ("line", r.line.into()),
        ("path", r.path.iter().map(frame).collect()),
    ])
}
