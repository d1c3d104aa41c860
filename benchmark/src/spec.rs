//! The benchmark's one table of record: workloads with their frozen op
//! counts, the end-to-end metrics with their bounds, and the per-layer
//! metrics with the end-to-end metric each is expected to move.
//! `--describe` prints it, `BENCHMARK.json` mirrors it (a unit test holds
//! them equal), and the runner sizes every phase from it.

use serde_json::Value;

/// Length of one measured phase, in seconds, that the op counts below are
/// sized for on the reference box (2 vCPUs, everything pinned to one).
/// `--seconds S` scales every count by `S / RUN_SECONDS`.
pub const RUN_SECONDS: u64 = 15;

/// Profiles preloaded into the daemon's data directory for `pipeline`,
/// `query-cold` and `serve-mixed` (≈ 55 KiB of codec bytes each).
pub const PRELOAD: usize = 1024;

/// Restarts timed for `reopen_s`; the metric is their median.
pub const REOPENS: usize = 9;

/// Slices of equal op count the measured phase is cut into; `ops_per_s` is
/// the median slice rate. `pipeline` uses one slice per round instead.
pub const SLICES: usize = 20;

/// The daemon's shipped defaults, spelled out so a result names them.
pub const DAEMON_FLAGS: [&str; 10] = [
    "--workers",
    "4",
    "--shards",
    "8",
    "--cache-capacity",
    "256",
    "--snapshot-wal-kib",
    "4096",
    "--fsync-wal",
    "off",
];

pub const PIPELINE: &str = "pipeline";
pub const INGEST_DURABLE: &str = "ingest-durable";
pub const QUERY_COLD: &str = "query-cold";
pub const SERVE_MIXED: &str = "serve-mixed";

/// Every workload name, for "moves … on all workloads".
const ALL: &[&str] = &[PIPELINE, INGEST_DURABLE, QUERY_COLD, SERVE_MIXED];
/// The three workloads that start from the preloaded data directory.
const PRELOADED: &[&str] = &[PIPELINE, QUERY_COLD, SERVE_MIXED];

pub struct Workload {
    pub name: &'static str,
    /// Units of `count`: what one step of the fixed work is.
    pub count_unit: &'static str,
    /// Frozen amount of work at `RUN_SECONDS`.
    pub count: usize,
    /// Ops (the unit of `ops_per_s` and `p50_ms`) per unit of `count`.
    pub ops_per_count: usize,
    pub preloaded: bool,
    pub why: &'static str,
}

/// Cached reads per `serve-mixed` block, before its write cycle.
pub const READS_PER_BLOCK: usize = 2000;
/// Requests in one `serve-mixed` write cycle: open, 4 appends, seal,
/// aggregate, top.
pub const WRITES_PER_BLOCK: usize = 8;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: PIPELINE,
        count_unit: "rounds",
        count: 12,
        ops_per_count: 1,
        preloaded: true,
        why: "real hpcrun-sim x4 -> stream -> seal -> hpcd-client aggregate+top per round; the only workload a simulator/profiler change moves, control for store/server changes",
    },
    Workload {
        name: INGEST_DURABLE,
        count_unit: "ingests",
        count: 2750,
        ops_per_count: 1,
        preloaded: false,
        why: "distinct one-shot binary ingests into an empty durable daemon: decode, JSON hash, WAL ack, size-triggered compactions; bypasses cache, engine, analysis",
    },
    Workload {
        name: QUERY_COLD,
        count_unit: "queries",
        count: 90000,
        ops_per_count: 1,
        preloaded: true,
        why: "uniform draws from 5120 report/view/diff keys against a 256-entry memo cache: analysis rendering plus cache insert/evict; no WAL, live or codec work",
    },
    Workload {
        name: SERVE_MIXED,
        count_unit: "blocks",
        count: 60,
        ops_per_count: READS_PER_BLOCK + WRITES_PER_BLOCK,
        preloaded: true,
        why: "2000 cached reads then one streamed seal plus recomputed aggregate and top per block: the hit path beside writes that invalidate the pooled scope",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change is a regression; also the A/A agreement limit of `--selfcheck`.
    pub bound: f64,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "workload start to first timed op: corpus generation, data-dir build, daemon spawn to ready line, warm-up",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "median rate over the equal-op-count slices of the measured phase",
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "median client-side wall latency over all ops of the phase",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "median over the slices of on-CPU time of the daemon plus reaped tool processes per op; generator excluded",
    },
    EndToEnd {
        name: "rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        definition: "daemon VmHWM when the phase ends",
    },
    EndToEnd {
        name: "disk_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.01,
        definition: "data-dir bytes after the daemon is SIGKILLed at phase end",
    },
    EndToEnd {
        name: "reopen_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median of 9 x (spawn daemon on the killed dir, ready line, list returns every acknowledged profile)",
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// What a per-layer metric is for: the end-to-end metrics it should move and
/// on which workloads, or a guard that must stay flat (it detects a "gain"
/// that changed the work), or plain reporting.
pub enum Role {
    Moves(&'static [&'static str], &'static [&'static str]),
    Guard,
    Reported,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub how: &'static str,
    pub role: Role,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    role: Role,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
        role,
    }
}

use Better::{Higher, Lower};
use Role::{Guard, Moves, Reported};

const RATE: &[&str] = &["ops_per_s", "p50_ms", "cpu_ms_per_op"];

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 62] = [
    layer("sim.unmonitored_ns_per_access", "ns", Lower, "probe run_unmonitored, LULESH medium 16 threads: host ns per simulated access", Moves(RATE, &[PIPELINE])),
    layer("sim.accesses", "count", Lower, "simulated accesses of that run, exact", Guard),
    layer("core.profiled_ns_per_access", "ns", Lower, "probe run_profiled (ibs), same input", Moves(RATE, &[PIPELINE])),
    layer("core.wall_overhead_ratio", "ratio", Lower, "profiled / unmonitored host time", Moves(RATE, &[PIPELINE])),
    layer("core.sim_overhead_pct", "%", Lower, "simulated monitoring overhead of that run (the paper's Table 2 number)", Guard),
    layer("core.samples", "count", Lower, "memory samples of that run, exact", Guard),
    layer("core.to_json_us", "us", Lower, "probe NumaProfile::to_json", Moves(&["p50_ms"], &[INGEST_DURABLE])),
    layer("workloads.lulesh_s", "s", Lower, "probe run_profiled medium 16 threads, ibs", Moves(RATE, &[PIPELINE])),
    layer("workloads.amg2006_s", "s", Lower, "probe run_profiled medium 16 threads, mrk", Moves(RATE, &[PIPELINE])),
    layer("workloads.blackscholes_s", "s", Lower, "probe run_profiled medium 16 threads, dear", Moves(RATE, &[PIPELINE])),
    layer("workloads.umt2013_s", "s", Lower, "probe run_profiled medium 16 threads, pebs", Moves(RATE, &[PIPELINE])),
    layer("cli.spawn_ms", "ms", Lower, "wall of one hpcd-client --cmd ping process", Moves(&["p50_ms"], &[PIPELINE])),
    layer("cli.measure_ms", "ms", Lower, "the four hpcrun-sim processes of one pipeline round", Moves(&["p50_ms"], &[PIPELINE])),
    layer("cli.query_ms", "ms", Lower, "the two hpcd-client processes of one pipeline round", Moves(&["p50_ms"], &[PIPELINE])),
    layer("codec.encode_us", "us", Lower, "probe encode_profile", Moves(&["setup_s"], ALL)),
    layer("codec.view_parse_us", "us", Lower, "probe ProfileView::parse", Moves(&["p50_ms", "ops_per_s", "reopen_s"], &[INGEST_DURABLE])),
    layer("codec.decode_us", "us", Lower, "probe decode_profile", Moves(&["p50_ms", "ops_per_s", "reopen_s"], &[INGEST_DURABLE])),
    layer("codec.bytes_per_profile", "B", Lower, "mean codec bytes of the preload corpus", Moves(&["disk_mib", "rss_mib"], ALL)),
    layer("store.hash_us", "us", Lower, "probe ProfileId::of", Moves(&["p50_ms", "ops_per_s"], &[INGEST_DURABLE])),
    layer("store.ingest_mem_us", "us", Lower, "probe ingest_binary, in-memory store", Moves(&["p50_ms", "ops_per_s"], &[INGEST_DURABLE])),
    layer("store.ingest_wal_us", "us", Lower, "probe ingest_binary, durable store, compaction off (minus ingest_mem_us = WAL enqueue to ack)", Moves(&["p50_ms", "ops_per_s"], &[INGEST_DURABLE])),
    layer("store.dedup_ingest_us", "us", Lower, "probe re-ingest of a resident profile", Guard),
    layer("store.compaction_ms", "ms", Lower, "probe flush() over the preload corpus", Moves(&["ops_per_s", "cpu_ms_per_op", "setup_s"], &[INGEST_DURABLE])),
    layer("store.snapshot_load_ms", "ms", Lower, "probe open_durable on a snapshot-only dir", Moves(&["reopen_s", "setup_s"], PRELOADED)),
    layer("store.wal_replay_ms", "ms", Lower, "probe open_durable on a WAL-only dir", Moves(&["reopen_s"], &[INGEST_DURABLE])),
    layer("store.snapshots_written", "count", Lower, "scrape numa_store_snapshots_written_total over the phase, exact", Moves(&["ops_per_s", "cpu_ms_per_op"], &[INGEST_DURABLE, SERVE_MIXED])),
    layer("store.records_per_group_commit", "ratio", Higher, "scrape wal_appends / wal_group_commits over the phase", Guard),
    layer("store.write_amp", "ratio", Lower, "daemon /proc io write_bytes over the phase / codec bytes acknowledged", Moves(&["cpu_ms_per_op", "ops_per_s"], &[INGEST_DURABLE])),
    layer("store.resident_bytes_per_codec_byte", "ratio", Lower, "daemon VmRSS / codec bytes resident at phase end", Moves(&["rss_mib"], ALL)),
    layer("store.resolve_us", "us", Lower, "probe resolve() of a full hex id over the preload corpus", Moves(&["p50_ms"], &[QUERY_COLD, SERVE_MIXED])),
    layer("store.lock_contended", "count", Lower, "scrape shard read+write contended over the phase", Guard),
    layer("cache.hit_rate", "ratio", Higher, "scrape hits / (hits + misses) over the phase", Moves(&["p50_ms"], &[SERVE_MIXED])),
    layer("cache.evictions", "count", Lower, "scrape evictions over the phase", Moves(&["ops_per_s"], &[QUERY_COLD])),
    layer("cache.probe_us", "us", Lower, "probe warm fixed-scope store.query", Moves(&["p50_ms"], &[SERVE_MIXED])),
    layer("aggregate.cold_ms", "ms", Lower, "probe clear_cache + aggregate() over the preload corpus, indexes built", Moves(&["ops_per_s", "cpu_ms_per_op"], &[SERVE_MIXED])),
    layer("aggregate.pooled_hit_us", "us", Lower, "probe warm aggregate(): corpus snapshot, sort, scope hash", Moves(&["ops_per_s"], &[SERVE_MIXED])),
    layer("engine.index_build_us", "us", Lower, "probe ProfileIndex::build", Moves(&["ops_per_s", "setup_s", "rss_mib"], &[SERVE_MIXED, QUERY_COLD])),
    layer("engine.warm_query_ns", "ns", Lower, "probe var_metrics + ranges_of on a built index", Moves(&["p50_ms"], &[QUERY_COLD])),
    layer("analysis.text_report_us", "us", Lower, "probe full_text_report", Moves(RATE, &[QUERY_COLD])),
    layer("analysis.report_json_us", "us", Lower, "probe analyze().to_json()", Moves(RATE, &[QUERY_COLD])),
    layer("analysis.code_view_us", "us", Lower, "probe render_cct", Moves(RATE, &[QUERY_COLD])),
    layer("analysis.address_view_us", "us", Lower, "probe export_address_view of the hottest variable", Moves(RATE, &[QUERY_COLD])),
    layer("analysis.diff_us", "us", Lower, "probe diff().render() against the next variant", Moves(RATE, &[QUERY_COLD])),
    layer("live.split_us", "us", Lower, "probe split_profile + to_binary (client side)", Moves(&["ops_per_s"], &[SERVE_MIXED])),
    layer("live.append_us_per_chunk", "us", Lower, "probe SessionManager::append_binary, durable store", Moves(&["ops_per_s", "cpu_ms_per_op"], &[SERVE_MIXED])),
    layer("live.seal_ms", "ms", Lower, "probe SessionManager::seal: assemble + commit", Moves(&["ops_per_s", "cpu_ms_per_op"], &[SERVE_MIXED])),
    layer("protocol.encode_request_us", "us", Lower, "probe encode_request + encode_frame on one IngestBinary", Moves(&["p50_ms", "ops_per_s"], &[INGEST_DURABLE])),
    layer("protocol.decode_request_us", "us", Lower, "probe decode_request on that payload", Moves(&["p50_ms", "ops_per_s"], &[INGEST_DURABLE])),
    layer("protocol.frame_decode_us", "us", Lower, "probe FrameDecoder push + next_frame on that frame", Moves(&["p50_ms", "ops_per_s"], &[INGEST_DURABLE])),
    layer("protocol.encode_response_us", "us", Lower, "probe encode_response on one text report", Moves(&["p50_ms"], &[SERVE_MIXED, QUERY_COLD])),
    layer("protocol.decode_response_us", "us", Lower, "probe decode_response on it", Moves(&["p50_ms"], &[SERVE_MIXED, QUERY_COLD])),
    layer("server.ping_rtt_us", "us", Lower, "p50 of Client::ping against the workload's daemon", Moves(&["p50_ms"], &[SERVE_MIXED])),
    layer("server.daemon_p50_us", "us", Lower, "scrape request-latency histogram over the phase (power-of-two buckets)", Moves(&["p50_ms"], &[SERVE_MIXED, QUERY_COLD])),
    layer("server.daemon_p99_us", "us", Lower, "same histogram, p99", Moves(&["p50_ms"], &[SERVE_MIXED, QUERY_COLD])),
    layer("server.daemon_mean_us", "us", Lower, "same histogram, sum / count (not bucketed)", Moves(&["ops_per_s", "cpu_ms_per_op"], &[SERVE_MIXED, QUERY_COLD, INGEST_DURABLE])),
    layer("server.client_p99_ms", "ms", Lower, "client-side p99 over the phase", Reported),
    layer("server.max_ms", "ms", Lower, "worst client-side op of the phase (compaction stall)", Reported),
    layer("obs.scrape_ms", "ms", Lower, "wall of one metrics op", Guard),
    layer("client.cpu_us_per_op", "us", Lower, "generator thread on-CPU time over the phase, per op", Moves(&["ops_per_s"], &[SERVE_MIXED, QUERY_COLD, INGEST_DURABLE])),
    layer("sched.runq_wait_pct", "%", Lower, "daemon run-queue wait / phase wall; on one CPU mostly the wait behind its own client", Reported),
    layer("sched.interference_pct", "%", Lower, "pinned CPU's busy + steal time over the phase (/proc/stat) not used by daemon, tools or generator; above 5 % the run is marked disturbed", Reported),
    layer("trace.overhead_pct", "%", Lower, "generator time between ops in traced slices less the same in untraced slices of one phase, as a share of the op period", Reported),
];

/// The command `BENCHMARK.json` names: the script builds the tools and the
/// harness, then runs the harness with the driver's arguments appended.
const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
const PATHS: [&str; 1] = ["benchmark"];

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn strings(items: &[&str]) -> Value {
    Value::Array(items.iter().map(|s| Value::String(s.to_string())).collect())
}

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

/// The exact content of `BENCHMARK.json`.
pub fn describe_json() -> Value {
    obj(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        (
            "run_seconds",
            Value::Number(serde_json::Number::U64(RUN_SECONDS)),
        ),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", string(w.name)), ("why", string(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                            ("bound", Value::Number(serde_json::Number::F64(m.bound))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The human-readable form of the same tables, with what `BENCHMARK.json`
/// has no room for: counts, definitions, probes and the "moves" column.
pub fn describe_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "hpcd-bench: counts sized for a {RUN_SECONDS} s phase; preload {PRELOAD} profiles; {REOPENS} reopens; daemon flags {}",
        DAEMON_FLAGS.join(" ")
    );
    let _ = writeln!(out, "\nworkloads");
    for w in &WORKLOADS {
        let _ = writeln!(
            out,
            "  {:<15} {:>6} {:<8} ({} ops){}  {}",
            w.name,
            w.count,
            w.count_unit,
            w.count * w.ops_per_count,
            if w.preloaded { ", preloaded" } else { "" },
            w.why
        );
    }
    let _ = writeln!(out, "\nend-to-end metrics (untraced run)");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<14} {:<4} {:<6} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.definition
        );
    }
    let _ = writeln!(out, "\nper-layer metrics (traced run)");
    for m in &PER_LAYER {
        let role = match &m.role {
            Moves(metrics, workloads) => {
                format!("moves {} @ {}", metrics.join(","), workloads.join(","))
            }
            Guard => "guard: must stay flat".to_string(),
            Reported => "reported, not gated".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<36} {:<6} {:<6} {}  [{}]",
            m.name,
            m.unit,
            m.better.as_str(),
            m.how,
            role
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_mirrors_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, describe_json());
    }

    #[test]
    fn tables_have_the_contracted_shape() {
        assert_eq!(
            WORKLOADS.map(|w| w.name),
            [PIPELINE, INGEST_DURABLE, QUERY_COLD, SERVE_MIXED]
        );
        assert_eq!(
            END_TO_END.map(|m| m.name),
            [
                "setup_s",
                "ops_per_s",
                "p50_ms",
                "cpu_ms_per_op",
                "rss_mib",
                "disk_mib",
                "reopen_s"
            ]
        );
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)), "units");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn every_moves_target_exists() {
        for m in &PER_LAYER {
            if let Moves(metrics, workloads) = &m.role {
                assert!(!metrics.is_empty() && !workloads.is_empty(), "{}", m.name);
                for e in *metrics {
                    assert!(end_to_end(e).is_some(), "{}: no metric {e}", m.name);
                }
                for w in *workloads {
                    assert!(workload(w).is_some(), "{}: no workload {w}", m.name);
                }
            }
        }
    }

    #[test]
    fn serve_mixed_slices_fall_on_block_boundaries() {
        let w = workload(SERVE_MIXED).unwrap();
        assert_eq!(w.count % SLICES, 0);
    }
}
