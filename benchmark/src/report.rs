//! What a run prints and saves, and the two tools that read saved runs back:
//! `--selfcheck` (two sets of the same build must agree) and `--compare`
//! (a change against its parent, by the paired-run rule).

use crate::spec::{self, obj, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{self, Verdict};
use crate::workloads::Outcome;
use serde_json::{Number, Value};
use std::fmt::Write as _;

fn num(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

fn int(x: u64) -> Value {
    Value::Number(Number::U64(x))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(outcome: &Outcome) -> Value {
    Value::Object(
        outcome
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    obj(vec![("value", num(*value)), ("unit", text(unit_of(name)))]),
                )
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(outcome: &Outcome) -> String {
    serde_json::to_string(&obj(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", int(outcome.attempted)),
        ("failed", int(outcome.failed)),
        ("metrics", metrics_json(outcome)),
    ]))
    .expect("values serialize")
}

/// Facts about the machine and the invocation that every saved result carries.
pub struct Header {
    pub git_sha: String,
    pub seed: u64,
    pub seconds: f64,
    pub fraction: f64,
    pub trace: bool,
    pub pinned: bool,
    pub visible_cpus: usize,
    pub cpu: Option<usize>,
}

impl Header {
    pub fn render(&self) -> String {
        format!(
            "hpcd-bench  git {}  seed {}  seconds {}  fraction {}  trace {}  pinned: {}  visible_cpus: {}  cpu: {}\ndaemon flags: {}",
            self.git_sha,
            self.seed,
            self.seconds,
            self.fraction,
            u8::from(self.trace),
            self.pinned,
            self.visible_cpus,
            self.cpu.map_or("-".to_string(), |c| c.to_string()),
            spec::DAEMON_FLAGS.join(" ")
        )
    }
}

/// One run of one workload, as an entry of a `--out` file.
pub fn result_entry(o: &Outcome) -> Value {
    obj(vec![
        ("workload", text(o.workload)),
        ("correct", Value::Bool(o.failed == 0)),
        ("attempted", int(o.attempted)),
        ("failed", int(o.failed)),
        ("disturbed", Value::Bool(o.disturbed)),
        ("metrics", metrics_json(o)),
        (
            "notes",
            Value::Array(
                o.notes
                    .iter()
                    .map(|(k, v)| obj(vec![("name", text(k)), ("value", text(v))]))
                    .collect(),
            ),
        ),
    ])
}

/// A `--out` file: the header and the entries, in run order.
pub fn results_json(header: &Header, results: Vec<Value>) -> String {
    serde_json::to_string_pretty(&obj(vec![
        ("git_sha", text(&header.git_sha)),
        ("seed", int(header.seed)),
        ("seconds", num(header.seconds)),
        ("fraction", num(header.fraction)),
        ("trace", Value::Bool(header.trace)),
        ("pinned", Value::Bool(header.pinned)),
        ("visible_cpus", int(header.visible_cpus as u64)),
        ("daemon_flags", text(&spec::DAEMON_FLAGS.join(" "))),
        ("results", Value::Array(results)),
    ]))
    .expect("values serialize")
}

/// One workload's result as the table a person reads.
pub fn render_outcome(o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n{}: attempted {} / failed {}{}",
        o.workload,
        o.attempted,
        o.failed,
        if o.disturbed { "  [disturbed]" } else { "" }
    );
    for (name, value) in &o.metrics {
        let _ = writeln!(out, "  {name:<36} {value:>16.4} {}", unit_of(name));
    }
    for (name, value) in &o.notes {
        let _ = writeln!(out, "  ({name}: {value})");
    }
    for failure in &o.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    out
}

/// `(workload, metric) -> values in run order`, plus attempts and failures
/// per workload: what `--compare` and `--selfcheck` read.
#[derive(Default)]
pub struct Saved {
    pub series: Vec<(String, String, Vec<f64>)>,
    pub failure_share: Vec<(String, u64, u64)>,
}

impl Saved {
    /// Fold in one entry of a `--out` file's `results`.
    pub fn push(&mut self, r: &Value) -> Result<(), String> {
        let workload = r["workload"].as_str().ok_or("result without workload")?;
        let attempted = r["attempted"].as_u64().unwrap_or(0);
        let failed = r["failed"].as_u64().unwrap_or(0);
        match self.failure_share.iter_mut().find(|f| f.0 == workload) {
            Some(f) => {
                f.1 += attempted;
                f.2 += failed;
            }
            None => self
                .failure_share
                .push((workload.to_string(), attempted, failed)),
        }
        for (metric, entry) in r["metrics"].as_object().ok_or("result without metrics")? {
            let value = entry["value"].as_f64().ok_or("metric without value")?;
            match self
                .series
                .iter_mut()
                .find(|s| s.0 == workload && s.1 == *metric)
            {
                Some(s) => s.2.push(value),
                None => self
                    .series
                    .push((workload.to_string(), metric.clone(), vec![value])),
            }
        }
        Ok(())
    }

    fn values(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|s| s.0 == workload && s.1 == metric)
            .map(|s| s.2.as_slice())
    }
}

/// The `results` of a `--out` file.
pub fn saved_results(json: &str) -> Result<Vec<Value>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    Ok(v["results"].as_array().ok_or("no results array")?.clone())
}

/// The `--out` file `first` with its `results` replaced: the header of one
/// run over the entries of many.
pub fn with_results(first: &str, results: Vec<Value>) -> Result<String, String> {
    let mut v: Value = serde_json::from_str(first).map_err(|e| e.to_string())?;
    let Value::Object(fields) = &mut v else {
        return Err("a result file is not an object".to_string());
    };
    for (key, value) in fields.iter_mut() {
        if key == "results" {
            *value = Value::Array(results);
            break;
        }
    }
    serde_json::to_string_pretty(&v).map_err(|e| e.to_string())
}

pub fn load_saved(json: &str) -> Result<Saved, String> {
    let mut saved = Saved::default();
    for r in saved_results(json)? {
        saved.push(&r)?;
    }
    Ok(saved)
}

fn quartile_cell(q: [f64; 3]) -> String {
    format!("{:>11.4} [{:.4}, {:.4}]", q[1], q[0], q[2])
}

/// Parent against change, one row per workload × end-to-end metric. Returns
/// the table and whether any row regressed.
pub fn render_compare(parent: &Saved, change: &Saved) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<15} {:<14} {:>36} {:>36} {:>7} {:>8}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "wins",
        "worse by"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(p), Some(c)) = (parent.values(w.name, m.name), change.values(w.name, m.name))
            else {
                continue;
            };
            let cmp = stats::compare(p, c, m.better, m.bound);
            regressed |= cmp.verdict == Verdict::Regression;
            let _ = writeln!(
                out,
                "{:<15} {:<14} {:>36} {:>36} {:>4}/{:<2} {:>+7.1}%  {}",
                w.name,
                m.name,
                quartile_cell(cmp.parent),
                quartile_cell(cmp.change),
                cmp.wins,
                cmp.pairs,
                cmp.worse_by * 100.0,
                cmp.verdict.as_str()
            );
        }
        let share = |s: &Saved| {
            s.failure_share
                .iter()
                .find(|f| f.0 == w.name)
                .map(|f| (f.2, f.1))
        };
        if let (Some((pf, pa)), Some((cf, ca))) = (share(parent), share(change)) {
            let worse = cf as f64 / ca.max(1) as f64 > pf as f64 / pa.max(1) as f64;
            regressed |= worse;
            let _ = writeln!(
                out,
                "{:<15} {:<14} {:>36} {:>36}  {}",
                w.name,
                "failed/attempted",
                format!("{pf}/{pa}"),
                format!("{cf}/{ca}"),
                if worse { "MORE FAILURES" } else { "ok" }
            );
        }
    }
    (out, regressed)
}

/// Two sets of runs of the same build and seed. Returns the table and
/// whether every pair of medians agrees within the metric's bound.
pub fn render_selfcheck(a: &Saved, b: &Saved) -> (String, bool) {
    let mut out = String::new();
    let mut agree = true;
    let _ = writeln!(
        out,
        "{:<15} {:<14} {:>36} {:>36} {:>8} {:>6}",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (a.values(w.name, m.name), b.values(w.name, m.name)) else {
                continue;
            };
            let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
            let diff = (qb[1] - qa[1]) / qa[1];
            // Either set may play the parent: the medians must agree both ways.
            let ok = diff.abs() <= m.bound;
            agree &= ok;
            let exact = va.iter().chain(vb).all(|x| *x == va[0]);
            let _ = writeln!(
                out,
                "{:<15} {:<14} {:>36} {:>36} {:>+7.2}% {:>5.0}%{}{}",
                w.name,
                m.name,
                quartile_cell(qa),
                quartile_cell(qb),
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  DISAGREE" },
                if exact { "  (repeats exactly)" } else { "" }
            );
        }
    }
    (out, agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(workload: &'static str, ops_per_s: f64, failed: u64) -> Outcome {
        Outcome {
            workload,
            attempted: 100,
            failed,
            failures: Vec::new(),
            metrics: vec![("ops_per_s", ops_per_s), ("disk_mib", 45.5)],
            notes: vec![("phase_s", "10.1".to_string())],
            disturbed: false,
        }
    }

    fn header() -> Header {
        Header {
            git_sha: "abc".to_string(),
            seed: 1,
            seconds: 10.0,
            fraction: 1.0,
            trace: false,
            pinned: true,
            visible_cpus: 2,
            cpu: Some(1),
        }
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = contract_line(&outcome(spec::PIPELINE, 0.7, 0));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["metrics"]["ops_per_s"]["unit"], "1/s");
        assert_eq!(v["metrics"]["ops_per_s"]["value"].as_f64(), Some(0.7));
        assert!(!line.contains('\n'));
        let failed = contract_line(&outcome(spec::PIPELINE, 0.7, 2));
        assert!(failed.contains("\"correct\":false"));
    }

    #[test]
    fn saved_results_round_trip_into_series_in_run_order() {
        let runs = vec![
            result_entry(&outcome(spec::PIPELINE, 0.70, 0)),
            result_entry(&outcome(spec::QUERY_COLD, 5000.0, 1)),
            result_entry(&outcome(spec::PIPELINE, 0.72, 0)),
        ];
        let saved = load_saved(&results_json(&header(), runs)).unwrap();
        let series = saved
            .series
            .iter()
            .find(|s| s.0 == spec::PIPELINE && s.1 == "ops_per_s")
            .unwrap();
        assert_eq!(series.2, [0.70, 0.72]);
        assert!(saved
            .failure_share
            .contains(&(spec::QUERY_COLD.to_string(), 100, 1)));
        assert!(saved
            .failure_share
            .contains(&(spec::PIPELINE.to_string(), 200, 0)));
    }

    #[test]
    fn compare_flags_a_regression_and_more_failures() {
        let set = |rate: f64, failed: u64| -> Saved {
            let runs = (0..10)
                .map(|i| {
                    result_entry(&outcome(
                        spec::PIPELINE,
                        rate + f64::from(i) * 0.001,
                        failed,
                    ))
                })
                .collect();
            load_saved(&results_json(&header(), runs)).unwrap()
        };
        let (table, regressed) = render_compare(&set(1.0, 0), &set(0.7, 0));
        assert!(regressed, "{table}");
        assert!(table.contains("REGRESSION"));
        let (table, regressed) = render_compare(&set(1.0, 0), &set(1.2, 0));
        assert!(!regressed, "{table}");
        assert!(table.contains("gain"));
        let (table, regressed) = render_compare(&set(1.0, 0), &set(1.0, 3));
        assert!(regressed, "{table}");
        assert!(table.contains("MORE FAILURES"));
    }

    #[test]
    fn selfcheck_passes_within_the_bound_and_fails_beyond_it() {
        let set = |rate: f64| -> Saved {
            let mut saved = Saved::default();
            for i in 0..5 {
                let run = outcome(spec::PIPELINE, rate + f64::from(i) * 0.001, 0);
                saved.push(&result_entry(&run)).unwrap();
            }
            saved
        };
        let (table, agree) = render_selfcheck(&set(1.0), &set(1.05));
        assert!(agree, "{table}");
        assert!(table.contains("repeats exactly"), "disk_mib is constant");
        let (table, agree) = render_selfcheck(&set(1.0), &set(1.4));
        assert!(!agree, "{table}");
        assert!(table.contains("DISAGREE"));
    }
}
