//! The four workloads: set-up, the measured phase, and the checks on every
//! answer. One generator thread, one closed-loop connection; every timed
//! interval is a blocking call and nothing else.

use crate::corpus::{Corpus, Rng, Variant, APPS, PIPELINE_MECHANISMS, THREADS};
use crate::daemon::{run, Daemon, Scratch, Tools};
use crate::probes;
use crate::procfs;
use crate::spec::{self, Workload, INGEST_DURABLE, PIPELINE, QUERY_COLD, SERVE_MIXED};
use crate::stats;
use crate::trace::Tracer;
use numa_server::{Client, ClientError, ReportFormat, Request, Response};
use numa_store::stream::split_profile;
use numa_store::{fnv1a, PersistOptions, ProfileId, ProfileStore};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct RunConfig {
    pub seed: u64,
    /// `seconds / RUN_SECONDS × fraction`: the factor on every op count.
    pub scale: f64,
    pub trace: bool,
    /// The CPU everything is pinned to, when pinning succeeded.
    pub cpu: Option<usize>,
    /// `benchmark/out`: scratch directories and `trace.json` go here.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, in words.
    pub failures: Vec<String>,
    /// End-to-end metrics of an untraced run, per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Numbers printed beside the metrics but never gated.
    pub notes: Vec<(&'static str, String)>,
    /// Something else used more than 5 % of the pinned CPU during the phase.
    /// Marked, never discarded.
    pub disturbed: bool,
}

type Metrics = Vec<(&'static str, f64)>;

/// Failures counted against attempts; a failed op is never dropped.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A failed separation check: not an op, so it does not count as attempted.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }
}

pub fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// `num / den`, or 0 where the workload gives the ratio nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// what is read around and during the phase
// ---------------------------------------------------------------------------

/// On-CPU ns so far of what `cpu_ms_per_op` charges: the daemon and every
/// tool process already reaped.
fn charged_cpu_ns(daemon_pid: u32) -> u64 {
    procfs::process_sched(daemon_pid).0 + procfs::reaped_children_cpu_ns()
}

/// Latencies and slice marks of the measured phase: the instant and the
/// charged CPU time at every slice boundary. In a traced run spans are
/// recorded on every other slice, and the generator's time between ops —
/// where a span is recorded — is summed per slice, so the cost of tracing is
/// read off one phase.
struct Recorder {
    lat_ms: Vec<f64>,
    bounds: Vec<usize>,
    marks: Vec<Instant>,
    cpu_marks: Vec<u64>,
    /// Per slice: ns between the end of one op and the start of the next.
    gap_ns: Vec<u64>,
    last_end: Instant,
    daemon_pid: u32,
    traced_run: bool,
}

impl Recorder {
    fn start(total_ops: usize, slices: usize, daemon_pid: u32, tracer: &mut Tracer) -> Recorder {
        let traced_run = tracer.enabled;
        tracer.enabled = false;
        let bounds = stats::slice_bounds(total_ops, slices);
        let cpu_marks = vec![charged_cpu_ns(daemon_pid)];
        let now = Instant::now();
        Recorder {
            lat_ms: Vec::with_capacity(total_ops),
            gap_ns: vec![0; bounds.len() + 1],
            bounds,
            marks: vec![now],
            cpu_marks,
            last_end: now,
            daemon_pid,
            traced_run,
        }
    }

    #[inline]
    fn op(&mut self, tracer: &mut Tracer, start: Instant, end: Instant) {
        self.lat_ms.push((end - start).as_secs_f64() * 1e3);
        let slice = self.marks.len() - 1;
        self.gap_ns[slice] += (start - self.last_end).as_nanos() as u64;
        self.last_end = end;
        if self.bounds.get(slice) == Some(&self.lat_ms.len()) {
            self.marks.push(end);
            self.cpu_marks.push(charged_cpu_ns(self.daemon_pid));
            tracer.enabled = self.traced_run && (slice + 1) % 2 == 1;
        }
    }

    fn finish(&self, tracer: &mut Tracer) {
        tracer.enabled = self.traced_run;
    }

    /// Ops in each slice.
    fn slice_ops(&self) -> impl Iterator<Item = usize> + '_ {
        let starts = std::iter::once(&0).chain(&self.bounds);
        self.bounds
            .iter()
            .zip(starts)
            .map(|(end, start)| end - start)
    }

    fn rates(&self) -> Vec<f64> {
        let t0 = self.marks[0];
        let marks: Vec<f64> = self.marks.iter().map(|m| (*m - t0).as_secs_f64()).collect();
        stats::slice_rates(&self.bounds, &marks)
    }

    /// Charged CPU ms per op of each slice.
    fn cpu_ms_per_op(&self) -> Vec<f64> {
        self.slice_ops()
            .zip(self.cpu_marks.windows(2))
            .map(|(ops, w)| (w[1] - w[0]) as f64 / 1e6 / ops as f64)
            .collect()
    }

    /// What recording spans costs, as a share of the op period: the
    /// generator's time between ops in traced (odd) slices less the same in
    /// untraced (even) ones.
    fn trace_overhead_pct(&self) -> f64 {
        let gap_per_op: Vec<f64> = self
            .slice_ops()
            .zip(&self.gap_ns)
            .map(|(ops, gap)| *gap as f64 / ops as f64)
            .collect();
        let every_other = |from: usize| -> Vec<f64> {
            gap_per_op.iter().skip(from).step_by(2).copied().collect()
        };
        let (untraced, traced) = (every_other(0), every_other(1));
        if traced.is_empty() {
            return 0.0;
        }
        let period_ns = 1e9 / stats::median(&self.rates());
        (stats::median(&traced) - stats::median(&untraced)) / period_ns * 100.0
    }
}

/// CPU and I/O counters read just outside the phase.
struct Counters {
    cpu_busy_ns: u64,
    daemon_run_ns: u64,
    daemon_wait_ns: u64,
    tools_ns: u64,
    generator_ns: u64,
    write_bytes: u64,
}

impl Counters {
    fn read(pid: u32, cpu: Option<usize>) -> Counters {
        let (daemon_run_ns, daemon_wait_ns) = procfs::process_sched(pid);
        Counters {
            cpu_busy_ns: procfs::cpu_busy_ns(cpu),
            daemon_run_ns,
            daemon_wait_ns,
            tools_ns: procfs::reaped_children_cpu_ns(),
            generator_ns: procfs::thread_cpu_ns(),
            write_bytes: procfs::process_write_bytes(pid),
        }
    }
}

/// The Prometheus text of one `metrics` op, as `series -> value`.
struct Scrape(HashMap<String, f64>);

const LATENCY: &str = "numa_server_request_latency_us";

impl Scrape {
    fn take(client: &mut Client) -> io::Result<Scrape> {
        let text = client.metrics().map_err(other)?;
        Ok(Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of one family.
    fn family(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Upper bucket bound (µs) at which the requests served since `before`
    /// reach the `p`-th percentile of the daemon's latency histogram.
    fn latency_percentile_since(&self, before: &Scrape, p: f64) -> f64 {
        let prefix = format!("{LATENCY}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, v - before.get(k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        let rank = (p * total).ceil().max(1.0);
        buckets
            .iter()
            .find(|(_, cumulative)| *cumulative >= rank)
            .map_or(0.0, |(bound, _)| *bound)
    }
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// Everything a workload stands on once set-up is done.
struct Stage<'a> {
    tools: &'a Tools,
    scratch: Scratch,
    data_dir: PathBuf,
    corpus: Corpus,
    /// Hex ids the daemon has acknowledged, preload included.
    acked: Vec<String>,
    /// Codec bytes behind those ids, and how many of them were preloaded.
    acked_bytes: u64,
    preload_bytes: u64,
    daemon: Daemon,
    client: Client,
}

/// What the phase sends, generated during set-up so the phase sends and
/// nothing else.
enum Inputs {
    Pipeline,
    Ingests(Vec<Variant>),
    Queries {
        keys: Vec<Request>,
        sequence: Vec<u32>,
    },
    Mixed {
        keys: Vec<Request>,
        /// Digest of each key's priming answer.
        first: Vec<u64>,
        fresh: Vec<Streamed>,
        rng: Rng,
    },
}

/// Compaction only when asked: the preload is one snapshot, not thirteen.
pub fn no_auto_compaction() -> PersistOptions {
    PersistOptions {
        snapshot_wal_bytes: u64::MAX,
        fsync: false,
    }
}

/// Build the preload data directory in-process: every variant ingested
/// through the store's own binary path, then one snapshot.
fn preload(dir: &Path, corpus: &Corpus) -> io::Result<(Vec<String>, u64)> {
    let store = ProfileStore::open_durable(
        dir,
        ProfileStore::DEFAULT_CACHE_CAPACITY,
        no_auto_compaction(),
    )?;
    let mut ids = Vec::with_capacity(spec::PRELOAD);
    let mut bytes = 0;
    for k in 0..spec::PRELOAD {
        let v = corpus.variant(k);
        let (id, added) = store.ingest_binary(&v.label, &v.bytes).map_err(other)?;
        if !added {
            return Err(other(format!("preload variant {k} deduplicated")));
        }
        ids.push(id.to_string());
        bytes += v.bytes.len() as u64;
    }
    store.flush()?;
    Ok((ids, bytes))
}

fn connect(addr: &str) -> io::Result<Client> {
    let mut client = Client::connect(addr).map_err(other)?;
    client.ping().map_err(other)?;
    Ok(client)
}

fn digest(text: &str) -> u64 {
    fnv1a(text.as_bytes()) | 1
}

/// A text answer must decode and be non-empty.
fn text_of(resp: Result<Response, ClientError>) -> Result<String, String> {
    match resp {
        Ok(Response::Text(s)) if !s.is_empty() => Ok(s),
        Ok(other) => Err(format!("unexpected answer {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

fn aggregate_runs(text: &str) -> Option<usize> {
    text.strip_prefix("cross-run aggregate: ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

const KINDS: usize = 5;

/// Span names of the five fixed-scope questions, in `query_key`'s order.
const QUERY_OP: [&str; KINDS] = [
    "server.report-text",
    "server.report-json",
    "server.code-view",
    "server.address-view",
    "server.diff",
];

/// The five fixed-scope questions about profile `i` of the preload.
fn query_key(stage: &Stage, i: usize, kind: usize) -> Request {
    let profile = stage.acked[i].clone();
    match kind {
        0 => Request::Report {
            profile,
            format: ReportFormat::Text,
        },
        1 => Request::Report {
            profile,
            format: ReportFormat::Json,
        },
        2 => Request::CodeView {
            profile,
            min_share_permille: 5,
        },
        3 => Request::AddressView {
            profile,
            var: stage.corpus.base_of(i).hot_var.clone(),
        },
        _ => {
            // The next variant of the same base, so both sides name the
            // same variables.
            let next = (i + stage.corpus.bases.len()) % spec::PRELOAD;
            Request::Diff {
                before: profile,
                after: stage.acked[next].clone(),
            }
        }
    }
}

/// One fresh variant, split for streaming, with the id it must be given.
struct Streamed {
    label: String,
    chunks: Vec<Vec<u8>>,
    id: String,
}

fn streamed(corpus: &Corpus, k: usize) -> Streamed {
    let profile = corpus.variant_profile(k);
    Streamed {
        label: corpus.label(k),
        chunks: split_profile(&profile, 6)
            .iter()
            .map(|c| c.to_binary())
            .collect(),
        id: ProfileId::of(&profile).0.to_string(),
    }
}

/// Corpus, data directory, daemon, warm-up and the phase's inputs: all of
/// `setup_s`.
fn set_up<'a>(
    w: &Workload,
    count: usize,
    tools: &'a Tools,
    cfg: &RunConfig,
    checks: &mut Checks,
) -> io::Result<(Stage<'a>, Inputs)> {
    let scratch = Scratch::create(&cfg.out_dir, w.name)?;
    let corpus = Corpus::measure(cfg.seed, "medium");
    let data_dir = scratch.path().join("data");
    let (acked, preload_bytes) = if w.preloaded {
        preload(&data_dir, &corpus)?
    } else {
        (Vec::new(), 0)
    };
    let daemon = Daemon::spawn(tools, &data_dir, &scratch.path().join("daemon.err"))?;
    let client = connect(&daemon.addr)?;
    let mut stage = Stage {
        tools,
        scratch,
        data_dir,
        corpus,
        acked,
        acked_bytes: preload_bytes,
        preload_bytes,
        daemon,
        client,
    };
    if w.preloaded {
        // One aggregate touches every profile: each lazy engine index is
        // built before timing, and the pooled answer is primed.
        let runs = text_of(stage.client.call(&Request::Aggregate))
            .ok()
            .and_then(|t| aggregate_runs(&t));
        checks.check(runs == Some(spec::PRELOAD), || {
            format!("warm-up aggregate reported {runs:?} runs")
        });
    }
    let mut rng = Rng::new(cfg.seed ^ 0x5eed_0f7e);
    let inputs = match w.name {
        PIPELINE => Inputs::Pipeline,
        INGEST_DURABLE => Inputs::Ingests((0..count).map(|k| stage.corpus.variant(k)).collect()),
        QUERY_COLD => {
            let keys: Vec<Request> = (0..spec::PRELOAD * KINDS)
                .map(|k| query_key(&stage, k / KINDS, k % KINDS))
                .collect();
            let sequence = (0..count).map(|_| rng.below(keys.len()) as u32).collect();
            Inputs::Queries { keys, sequence }
        }
        SERVE_MIXED => {
            // 64 profiles × {report-text, report-json, code-view}, primed.
            let keys: Vec<Request> = (0..64 * 3)
                .map(|k| query_key(&stage, k / 3, k % 3))
                .collect();
            let mut first = vec![0u64; keys.len()];
            for (k, req) in keys.iter().enumerate() {
                match text_of(stage.client.call(req)) {
                    Ok(text) => first[k] = digest(&text),
                    Err(e) => checks.check(false, || format!("priming {req:?}: {e}")),
                }
            }
            let top = text_of(stage.client.call(&Request::Top { n: 5 }));
            checks.check(top.is_ok(), || format!("priming top: {top:?}"));
            let fresh = (0..count)
                .map(|b| streamed(&stage.corpus, spec::PRELOAD + b))
                .collect();
            Inputs::Mixed {
                keys,
                first,
                fresh,
                rng,
            }
        }
        unknown => unreachable!("no workload {unknown} in the spec"),
    };
    Ok((stage, inputs))
}

// ---------------------------------------------------------------------------
// the measured phase
// ---------------------------------------------------------------------------

/// How far the median round of the last third of a `pipeline` phase may sit
/// from that of the first third before the rounds are said to trend. Identical
/// rounds a few seconds apart differ by up to a tenth on this host.
const TREND_LIMIT: f64 = 0.15;
/// The share of a `pipeline` round the four in-process simulator probes must
/// account for (they measure 0.98): the round is simulator work, not tooling.
const SIMULATOR_SHARE: f64 = 0.75;

/// Wall times of one pipeline round's two halves, ms.
#[derive(Default)]
struct RoundTimes {
    measure_ms: Vec<f64>,
    query_ms: Vec<f64>,
}

/// One round: four real `hpcrun-sim` runs streamed to the daemon, then the
/// analyst's two questions through the real `hpcd-client`. Rounds differ only
/// in the trace interval — so large that each thread records one point, which
/// changes the content (and so the id) at no cost.
fn pipeline_round(
    stage: &mut Stage,
    tracer: &mut Tracer,
    checks: &mut Checks,
    times: &mut RoundTimes,
    round: usize,
) -> (Instant, Instant) {
    let interval = 1_000_000_000_000 + (stage.corpus.seed % (1 << 20)) * 4096 + round as u64;
    let mut problems = Vec::new();
    let start = Instant::now();
    tracer.begin("pipeline.round");
    tracer.begin("cli.measure");
    for (app, mechanism) in APPS.iter().zip(PIPELINE_MECHANISMS) {
        let (out, _) = tracer.time("cli.hpcrun-sim", || {
            run(stage
                .tools
                .command("hpcrun-sim")
                .args(["--workload", app, "--mechanism", mechanism])
                .args(["--size", "medium", "--threads", &THREADS.to_string()])
                .args(["--trace", &interval.to_string()])
                .args(["--stream", &stage.daemon.addr])
                .args(["--label", &format!("round{round}-{app}")]))
        });
        match out {
            Ok(out) if out.status.success() => {
                // "… cycles (… overhead), N samples" and "… chunk(s): ID (added)"
                let log = String::from_utf8_lossy(&out.stderr);
                let samples = log
                    .split(" samples")
                    .next()
                    .and_then(|head| head.rsplit(' ').next())
                    .and_then(|n| n.parse::<u64>().ok());
                let id = log
                    .lines()
                    .find(|l| l.ends_with("(added)"))
                    .and_then(|l| l.rsplit(' ').nth(1));
                match (samples, id) {
                    (Some(n), Some(id)) if n > 0 => stage.acked.push(id.to_string()),
                    _ => problems.push(format!("{app}: not added or no samples: {log}")),
                }
            }
            Ok(out) => problems.push(format!(
                "{app}: hpcrun-sim failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )),
            Err(e) => problems.push(format!("{app}: cannot run hpcrun-sim: {e}")),
        }
    }
    tracer.end();
    let measured = Instant::now();
    tracer.begin("cli.query");
    for args in [&["aggregate"][..], &["top", "--n", "5"][..]] {
        let (out, _) = tracer.time("cli.hpcd-client", || {
            run(stage
                .tools
                .command("hpcd-client")
                .args(["--addr", &stage.daemon.addr, "--cmd"])
                .args(args))
        });
        let text = match out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => String::from_utf8_lossy(&out.stderr).into_owned(),
            Err(e) => e.to_string(),
        };
        let good = match args[0] {
            "aggregate" => aggregate_runs(&text) == Some(stage.acked.len()),
            _ => !text.is_empty(),
        };
        if !good {
            problems.push(format!("{}: unexpected answer {text:.80}", args[0]));
        }
    }
    tracer.end();
    tracer.end();
    let end = Instant::now();
    times
        .measure_ms
        .push((measured - start).as_secs_f64() * 1e3);
    times.query_ms.push((end - measured).as_secs_f64() * 1e3);
    checks.check(problems.is_empty(), || {
        format!("round {round}: {}", problems.join("; "))
    });
    (start, end)
}

/// The generator's end of the one connection: every request is timed,
/// counted as an op and, on traced slices, recorded as a span.
struct Wire<'a> {
    client: &'a mut Client,
    rec: &'a mut Recorder,
    tracer: &'a mut Tracer,
}

impl Wire<'_> {
    #[inline]
    fn call(&mut self, name: &'static str, req: &Request) -> Result<Response, ClientError> {
        let start = Instant::now();
        let resp = self.client.call(req);
        let end = Instant::now();
        self.tracer.leaf(name, start, end);
        self.rec.op(self.tracer, start, end);
        resp
    }

    /// A text query whose answer is held against the first answer the same
    /// key ever got (cached ≡ recomputed).
    #[inline]
    fn query(&mut self, checks: &mut Checks, first: &mut u64, name: &'static str, req: &Request) {
        match text_of(self.call(name, req)) {
            Ok(text) => {
                let d = digest(&text);
                if *first == 0 {
                    *first = d;
                }
                checks.check(*first == d, || {
                    format!("{name}: answer changed for {req:?}")
                });
            }
            Err(e) => checks.check(false, || format!("{name}: {e}")),
        }
    }
}

/// Send the phase's inputs, one op after the other.
fn drive(
    stage: &mut Stage,
    inputs: Inputs,
    rec: &mut Recorder,
    tracer: &mut Tracer,
    checks: &mut Checks,
    rounds: &mut RoundTimes,
    count: usize,
) {
    if let Inputs::Pipeline = inputs {
        for round in 0..count {
            let (start, end) = pipeline_round(stage, tracer, checks, rounds, round);
            rec.op(tracer, start, end);
        }
        return;
    }
    let mut wire = Wire {
        client: &mut stage.client,
        rec,
        tracer,
    };
    match inputs {
        Inputs::Pipeline => {}
        Inputs::Ingests(variants) => {
            for Variant { label, bytes } in variants {
                let len = bytes.len() as u64;
                let req = Request::IngestBinary { label, bytes };
                match wire.call("server.ingest-binary", &req) {
                    Ok(Response::Ingested { id, added: true }) => {
                        checks.attempted += 1;
                        stage.acked.push(id);
                        stage.acked_bytes += len;
                    }
                    bad => checks.check(false, || format!("ingest: {bad:?}")),
                }
            }
        }
        Inputs::Queries { keys, sequence } => {
            let mut first = vec![0u64; keys.len()];
            for k in sequence {
                let k = k as usize;
                wire.query(checks, &mut first[k], QUERY_OP[k % KINDS], &keys[k]);
            }
        }
        Inputs::Mixed {
            keys,
            mut first,
            fresh,
            mut rng,
        } => {
            // The pooled answers as last recomputed: a pooled hit must match.
            let pooled = [Request::Aggregate, Request::Top { n: 5 }];
            let mut pooled_first = [0u64; 2];
            for (b, item) in fresh.into_iter().enumerate() {
                for j in 0..spec::READS_PER_BLOCK {
                    if j % 10 == 9 {
                        let which = (j / 10) % 2;
                        let first = &mut pooled_first[which];
                        wire.query(checks, first, "server.pooled-hit", &pooled[which]);
                    } else {
                        let k = rng.below(keys.len());
                        wire.query(checks, &mut first[k], "server.cached-read", &keys[k]);
                    }
                }
                // The write cycle: stream one fresh variant, then ask the two
                // pooled questions its seal has just invalidated.
                let Streamed { label, chunks, id } = item;
                let chunk_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
                let open = Request::OpenSession {
                    label: label.clone(),
                };
                let session = match wire.call("server.open-session", &open) {
                    Ok(Response::SessionOpened { session, .. }) => Some(session),
                    _ => None,
                };
                let mut appended = 0;
                for (seq, bytes) in chunks.into_iter().enumerate() {
                    let req = Request::AppendChunkBinary {
                        session: session.unwrap_or(0),
                        seq: seq as u64,
                        bytes,
                    };
                    if let Ok(Response::ChunkAppended { .. }) =
                        wire.call("server.append-chunk", &req)
                    {
                        appended += 1;
                    }
                }
                let seal = Request::SealSession {
                    session: session.unwrap_or(0),
                };
                let sealed = wire.call("server.seal-session", &seal);
                // Streamed ≡ one-shot: the daemon's id is the id the same
                // profile hashes to locally.
                let good = session.is_some()
                    && appended == 4
                    && matches!(
                        &sealed,
                        Ok(Response::SessionSealed { id: got, added: true, chunks: 4 }) if *got == id
                    );
                checks.attempted += 6;
                if good {
                    stage.acked.push(id);
                    stage.acked_bytes += chunk_bytes;
                } else {
                    checks.fail(format!("block {b}: stream of {label} gave {sealed:?}"));
                }
                let agg = text_of(wire.call("server.aggregate", &pooled[0]));
                let expect = stage.acked.len();
                checks.check(
                    agg.as_deref().ok().and_then(aggregate_runs) == Some(expect),
                    || format!("block {b}: aggregate over {expect} runs gave {agg:?}"),
                );
                let top = text_of(wire.call("server.top", &pooled[1]));
                checks.check(top.is_ok(), || format!("block {b}: top gave {top:?}"));
                pooled_first = [
                    agg.as_deref().map_or(0, digest),
                    top.as_deref().map_or(0, digest),
                ];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// after the phase
// ---------------------------------------------------------------------------

/// What the phase measured, before it is turned into metrics.
struct Phase {
    rec: Recorder,
    before: Counters,
    after: Counters,
    seconds: f64,
    /// Client-side latencies, ascending.
    sorted_ms: Vec<f64>,
}

impl Phase {
    fn ops(&self) -> f64 {
        self.rec.lat_ms.len() as f64
    }

    /// On-CPU ns of the daemon and the reaped tools over the phase.
    fn charged_ns(&self) -> u64 {
        (self.after.daemon_run_ns - self.before.daemon_run_ns)
            + (self.after.tools_ns - self.before.tools_ns)
    }

    fn generator_ns(&self) -> u64 {
        self.after.generator_ns - self.before.generator_ns
    }

    fn runq_wait_pct(&self) -> f64 {
        (self.after.daemon_wait_ns - self.before.daemon_wait_ns) as f64 / (self.seconds * 1e9)
            * 100.0
    }

    /// Everything measured shares one CPU: what that CPU was busy with or
    /// lost to the hypervisor, less what the measured processes used, went to
    /// someone else. Tick-granular, hence the clamp.
    fn interference_pct(&self) -> f64 {
        let ours = self.charged_ns() + self.generator_ns();
        (self.after.cpu_busy_ns - self.before.cpu_busy_ns).saturating_sub(ours) as f64
            / (self.seconds * 1e9)
            * 100.0
    }
}

/// The untraced run's end: memory, SIGKILL, disk, nine restarts — and the
/// seven end-to-end metrics.
fn end_to_end(
    stage: Stage,
    phase: &Phase,
    setup_s: f64,
    checks: &mut Checks,
) -> io::Result<Metrics> {
    let status = procfs::process_status(stage.daemon.pid());
    let rss_mib = procfs::status_kib_bytes(&status, "VmHWM").unwrap_or(0) as f64 / 1048576.0;
    let log = stage.scratch.path().join("daemon.err");
    stage.daemon.kill();
    let disk_bytes = procfs::dir_bytes(&stage.data_dir);

    // Restarts on the killed directory; each ends by SIGKILL too, so the
    // directory is the same for every one of them.
    let expected: HashSet<&str> = stage.acked.iter().map(String::as_str).collect();
    let mut reopen_s = Vec::with_capacity(spec::REOPENS);
    for i in 0..spec::REOPENS {
        let start = Instant::now();
        let daemon = Daemon::spawn(stage.tools, &stage.data_dir, &log)?;
        let listed = Client::connect(&daemon.addr)
            .and_then(|mut c| c.list())
            .map_err(|e| e.to_string());
        reopen_s.push(start.elapsed().as_secs_f64());
        daemon.kill();
        let same = listed.as_ref().is_ok_and(|entries| {
            entries.len() == expected.len()
                && entries.iter().all(|e| expected.contains(e.id.as_str()))
        });
        checks.check(same, || {
            format!(
                "reopen {i}: listed {:?} profiles, acknowledged {}",
                listed.as_ref().map(Vec::len),
                expected.len()
            )
        });
    }
    checks.check(procfs::dir_bytes(&stage.data_dir) == disk_bytes, || {
        "the data directory changed across reopens".to_string()
    });
    Ok(vec![
        ("setup_s", setup_s),
        ("ops_per_s", stats::median(&phase.rec.rates())),
        ("p50_ms", stats::median(&phase.sorted_ms)),
        ("cpu_ms_per_op", stats::median(&phase.rec.cpu_ms_per_op())),
        ("rss_mib", rss_mib),
        ("disk_mib", disk_bytes as f64 / 1048576.0),
        ("reopen_s", stats::median(&reopen_s)),
    ])
}

/// The traced run's end: scrape deltas, probes against the live daemon, the
/// separation checks, then the in-process probes — the per-layer metrics.
fn per_layer(
    w: &Workload,
    mut stage: Stage,
    phase: &Phase,
    scrape_before: &Scrape,
    mut rounds: RoundTimes,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Metrics> {
    // A `pipeline` phase leaves this connection idle past the daemon's read
    // timeout.
    stage.client = connect(&stage.daemon.addr)?;
    let scrape_start = Instant::now();
    let scrape = Scrape::take(&mut stage.client)?;
    let scrape_ms = scrape_start.elapsed().as_secs_f64() * 1e3;
    let delta = |series: &str| scrape.get(series) - scrape_before.get(series);
    let family = |name: &str| scrape.family(name) - scrape_before.family(name);

    // Still against the live daemon: round trips and process spawns.
    let ping = probes::ping_rtt_us(&mut stage.client, tracer);
    let spawn = probes::client_spawn_ms(stage.tools, &stage.daemon.addr, tracer);
    let acked_in_phase = (stage.acked_bytes - stage.preload_bytes) as f64;
    let status = procfs::process_status(stage.daemon.pid());
    let rss = procfs::status_kib_bytes(&status, "VmRSS").unwrap_or(0);
    let resident_ratio = ratio(rss as f64, stage.acked_bytes as f64);
    if w.name != PIPELINE {
        // One round here too, so every workload reports the cli split.
        pipeline_round(&mut stage, tracer, checks, &mut rounds, 0);
    }
    let hits = delta("numa_store_cache_hits_total");
    let hit_rate = ratio(hits, hits + delta("numa_store_cache_misses_total"));
    let lock_contended = family("numa_store_shard_read_contended_total")
        + family("numa_store_shard_write_contended_total");
    let snapshots = delta("numa_store_snapshots_written_total");
    let written = (phase.after.write_bytes - phase.before.write_bytes) as f64;
    let mut metrics = vec![
        ("cli.spawn_ms", spawn),
        ("cli.measure_ms", stats::median(&rounds.measure_ms)),
        ("cli.query_ms", stats::median(&rounds.query_ms)),
        ("store.snapshots_written", snapshots),
        (
            "store.records_per_group_commit",
            ratio(
                delta("numa_store_wal_appends_total"),
                delta("numa_store_wal_group_commits_total"),
            ),
        ),
        ("store.write_amp", ratio(written, acked_in_phase)),
        ("store.resident_bytes_per_codec_byte", resident_ratio),
        ("store.lock_contended", lock_contended),
        ("cache.hit_rate", hit_rate),
        ("cache.evictions", delta("numa_store_cache_evictions_total")),
        ("server.ping_rtt_us", ping),
        (
            "server.daemon_p50_us",
            scrape.latency_percentile_since(scrape_before, 0.50),
        ),
        (
            "server.daemon_p99_us",
            scrape.latency_percentile_since(scrape_before, 0.99),
        ),
        (
            "server.daemon_mean_us",
            ratio(
                delta(&format!("{LATENCY}_sum")),
                delta(&format!("{LATENCY}_count")),
            ),
        ),
        (
            "server.client_p99_ms",
            stats::percentile_sorted(&phase.sorted_ms, 99.0),
        ),
        (
            "server.max_ms",
            phase.sorted_ms.last().copied().unwrap_or(0.0),
        ),
        ("obs.scrape_ms", scrape_ms),
        (
            "client.cpu_us_per_op",
            phase.generator_ns() as f64 / 1e3 / phase.ops(),
        ),
        ("sched.runq_wait_pct", phase.runq_wait_pct()),
        ("sched.interference_pct", phase.interference_pct()),
        ("trace.overhead_pct", phase.rec.trace_overhead_pct()),
    ];

    // Separation checks: the workloads must stress the layers they claim.
    match w.name {
        SERVE_MIXED if hit_rate < 0.95 => {
            checks.fail(format!(
                "cache.hit_rate {hit_rate:.3} < 0.95 on serve-mixed"
            ));
        }
        QUERY_COLD if hit_rate > 0.10 => {
            checks.fail(format!("cache.hit_rate {hit_rate:.3} > 0.10 on query-cold"));
        }
        _ => {}
    }
    if w.name == QUERY_COLD && snapshots != 0.0 {
        checks.fail(format!("{snapshots} snapshots written on query-cold"));
    }
    // One compaction per 4 MiB of WAL; the WAL is the codec bytes plus
    // record headers, so a fifth of slack is ample.
    let expected_snapshots = (acked_in_phase / (4096.0 * 1024.0) * 0.8).floor();
    if w.name == INGEST_DURABLE && snapshots < expected_snapshots {
        checks.fail(format!(
            "{snapshots} snapshots written on ingest-durable, expected >= {expected_snapshots}"
        ));
    }
    if lock_contended != 0.0 {
        checks.fail(format!(
            "{lock_contended} contended shard locks with one connection"
        ));
    }

    stage.daemon.kill();
    let layer = probes::all(&stage.corpus, stage.scratch.path(), tracer)?;
    if w.name == PIPELINE {
        let rounds_ms = &phase.rec.lat_ms;
        let third = (rounds_ms.len() / 3).max(1);
        let head = stats::median(&rounds_ms[..third]);
        let tail = stats::median(&rounds_ms[rounds_ms.len() - third..]);
        if (tail / head - 1.0).abs() > TREND_LIMIT {
            checks.fail(format!(
                "pipeline rounds trend: first third {head:.1} ms, last third {tail:.1} ms"
            ));
        }
        let sims: f64 = layer
            .iter()
            .filter(|(name, _)| name.starts_with("workloads."))
            .map(|(_, v)| v * 1e3)
            .sum();
        let round_ms = stats::median(rounds_ms);
        if sims < SIMULATOR_SHARE * round_ms {
            checks.fail(format!(
                "the four workloads.*_s probes sum to {sims:.0} ms, under {SIMULATOR_SHARE} of a {round_ms:.0} ms round"
            ));
        }
    }
    metrics.extend(layer);
    Ok(metrics)
}

fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(1)
}

pub fn run_workload(w: &'static Workload, tools: &Tools, cfg: &RunConfig) -> io::Result<Outcome> {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(cfg.trace);
    let count = scaled(w.count, cfg.scale);

    let setup_start = Instant::now();
    tracer.begin("harness.setup");
    let (mut stage, inputs) = set_up(w, count, tools, cfg, &mut checks)?;
    tracer.end();
    let setup_s = setup_start.elapsed().as_secs_f64();

    let pid = stage.daemon.pid();
    let daemon_cpus = procfs::cpus_allowed(pid).unwrap_or_default();
    let scrape_before = if cfg.trace {
        Some(Scrape::take(&mut stage.client)?)
    } else {
        None
    };
    let slices = if w.name == PIPELINE {
        count
    } else {
        spec::SLICES
    };
    let mut rounds = RoundTimes::default();
    tracer.begin("harness.phase");
    let before = Counters::read(pid, cfg.cpu);
    let mut rec = Recorder::start(count * w.ops_per_count, slices, pid, &mut tracer);
    drive(
        &mut stage,
        inputs,
        &mut rec,
        &mut tracer,
        &mut checks,
        &mut rounds,
        count,
    );
    let phase_end = Instant::now();
    rec.finish(&mut tracer);
    let after = Counters::read(pid, cfg.cpu);
    tracer.end();

    let mut sorted_ms = rec.lat_ms.clone();
    sorted_ms.sort_by(f64::total_cmp);
    let phase = Phase {
        seconds: (phase_end - rec.marks[0]).as_secs_f64(),
        rec,
        before,
        after,
        sorted_ms,
    };
    let (ops, seconds) = (phase.ops(), phase.seconds);
    let interference_pct = phase.interference_pct();
    let mut by_rate = phase.rec.rates();
    by_rate.sort_by(f64::total_cmp);
    let mut notes: Vec<(&'static str, String)> = vec![
        ("daemon_cpus_allowed", daemon_cpus),
        ("phase_s", format!("{seconds:.3}")),
        ("ops", format!("{ops}")),
        ("whole_phase_ops_per_s", format!("{:.2}", ops / seconds)),
        (
            "slice_ops_per_s",
            format!(
                "{} slices, min {:.2}, quartiles {:.2?}, max {:.2}",
                by_rate.len(),
                by_rate[0],
                stats::quartiles(&by_rate),
                by_rate[by_rate.len() - 1]
            ),
        ),
        (
            "whole_phase_cpu_ms_per_op",
            format!("{:.4}", phase.charged_ns() as f64 / 1e6 / ops),
        ),
        ("latency_samples", format!("{}", phase.sorted_ms.len())),
    ];
    if let Some(p) = stats::highest_supported_percentile(phase.sorted_ms.len()) {
        let at = stats::percentile_sorted(&phase.sorted_ms, p);
        notes.push(("highest_supported_percentile", format!("p{p} = {at:.4} ms")));
    }
    notes.push(("runq_wait_pct", format!("{:.2}", phase.runq_wait_pct())));
    notes.push(("interference_pct", format!("{interference_pct:.2}")));

    let metrics = match &scrape_before {
        Some(scrape_before) => {
            let metrics = per_layer(
                w,
                stage,
                &phase,
                scrape_before,
                rounds,
                &mut tracer,
                &mut checks,
            )?;
            for (layer, ns) in tracer.self_time_by_layer() {
                notes.push(("self_time_ms", format!("{layer} {:.1}", ns as f64 / 1e6)));
            }
            tracer.write(&cfg.out_dir.join("trace.json"), w.name)?;
            metrics
        }
        None => end_to_end(stage, &phase, setup_s, &mut checks)?,
    };

    Ok(Outcome {
        workload: w.name,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.messages,
        metrics,
        notes,
        disturbed: interference_pct > 5.0,
    })
}
