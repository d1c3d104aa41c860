//! Per-layer probes of a traced run: the harness calls each crate's public
//! functions in-process, on the workload's own corpus, and reports the median
//! call. Every call is a span. The profiles of a corpus differ in size by
//! mini-app, so a sample is the mean over one cycle of the eight bases: each
//! sample then has the same cost shape.

use crate::corpus::{measure, Corpus, Variant, APPS, PIPELINE_MECHANISMS, THREADS};
use crate::daemon::{run, Tools};
use crate::spec::PRELOAD;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{no_auto_compaction, other};
use numa_analysis::{analyze, diff, export_address_view, full_text_report, render_cct, Analyzer};
use numa_codec::{decode_profile, encode_profile, ProfileView};
use numa_engine::{Engine, ProfileIndex};
use numa_live::{LiveConfig, SessionManager};
use numa_profiler::{NumaProfile, RangeScope};
use numa_server::protocol::{
    decode_request, decode_response, encode_frame_flags, encode_request, encode_response,
    FrameDecoder, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use numa_server::{Client, Request, Response};
use numa_sim::ExecMode;
use numa_store::stream::split_profile;
use numa_store::{ProfileId, ProfileStore, Query};
use numa_tools::{parse_machine, parse_workload};
use numa_workloads::run_unmonitored;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Cycles of the eight bases per µs-scale probe: 25 × 8 = 200 calls.
const CYCLES: usize = 25;
/// Calls per ms-scale probe.
const MS_CALLS: usize = 20;
/// Runs per simulator probe and per whole-corpus store probe, each 0.1–0.7 s.
const SIM_RUNS: usize = 3;
/// Cycles of streamed sessions: 5 × 8 = 40 seals, a ms each.
const LIVE_CYCLES: usize = 5;

type Metrics = Vec<(&'static str, f64)>;

/// Median, over `cycles`, of the mean ns of `f(i)` for `i` in `0..per_cycle`.
fn cycle_median_ns(
    tracer: &mut Tracer,
    name: &'static str,
    cycles: usize,
    per_cycle: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    tracer.begin(name);
    let samples: Vec<f64> = (0..cycles)
        .map(|c| {
            let total: f64 = (0..per_cycle)
                .map(|i| tracer.time(name, || f(c * per_cycle + i)).1)
                .sum();
            total / per_cycle as f64
        })
        .collect();
    tracer.end();
    median(&samples)
}

/// Median ns of `n` calls of one cost shape.
fn call_median_ns(tracer: &mut Tracer, name: &'static str, n: usize, f: impl FnMut(usize)) -> f64 {
    cycle_median_ns(tracer, name, n, 1, f)
}

pub fn ping_rtt_us(client: &mut Client, tracer: &mut Tracer) -> f64 {
    call_median_ns(tracer, "server.ping", 2000, |_| {
        let _ = black_box(client.ping());
    }) / 1e3
}

pub fn client_spawn_ms(tools: &Tools, addr: &str, tracer: &mut Tracer) -> f64 {
    call_median_ns(tracer, "cli.spawn", MS_CALLS, |_| {
        let _ = run(tools
            .command("hpcd-client")
            .args(["--addr", addr, "--cmd", "ping"]));
    }) / 1e6
}

/// The simulator and profiler probes: the same runs `hpcrun-sim` makes.
fn simulator(tracer: &mut Tracer, out: &mut Metrics) {
    let lulesh = parse_workload("lulesh", "baseline", "medium").expect("bundled workload");
    let mut accesses = 0;
    let unmonitored_ns = call_median_ns(tracer, "sim.run_unmonitored", SIM_RUNS, |_| {
        let machine = parse_machine("amd").expect("amd preset");
        let (stats, _) = run_unmonitored(lulesh.as_ref(), machine, THREADS, ExecMode::Sequential);
        accesses = stats.mem_accesses;
    });
    let names = [
        "workloads.lulesh_s",
        "workloads.amg2006_s",
        "workloads.blackscholes_s",
        "workloads.umt2013_s",
    ];
    for ((app, mechanism), name) in APPS.iter().zip(PIPELINE_MECHANISMS).zip(names) {
        let mut last = None;
        let ns = call_median_ns(tracer, "workloads.run_profiled", SIM_RUNS, |_| {
            last = Some(measure(app, mechanism, "medium"));
        });
        out.push((name, ns / 1e9));
        if *app == "lulesh" {
            let (stats, profile) = last.expect("ran at least once");
            let samples: u64 = profile.threads.iter().map(|t| t.totals.samples_mem).sum();
            out.extend([
                (
                    "sim.unmonitored_ns_per_access",
                    unmonitored_ns / accesses as f64,
                ),
                ("sim.accesses", accesses as f64),
                (
                    "core.profiled_ns_per_access",
                    ns / stats.mem_accesses as f64,
                ),
                ("core.wall_overhead_ratio", ns / unmonitored_ns),
                ("core.sim_overhead_pct", stats.overhead_fraction() * 100.0),
                ("core.samples", samples as f64),
            ]);
        }
    }
}

/// Codec, hash, engine, analysis, live-split and protocol probes: pure
/// functions over the eight bases.
fn pure_layers(corpus: &Corpus, tracer: &mut Tracer, out: &mut Metrics) {
    let n = corpus.bases.len();
    let profiles: Vec<&NumaProfile> = corpus.bases.iter().map(|b| &b.profile).collect();
    let encoded: Vec<Vec<u8>> = profiles.iter().map(|p| encode_profile(p)).collect();
    let us = |tracer: &mut Tracer, name: &'static str, f: &mut dyn FnMut(usize)| {
        cycle_median_ns(tracer, name, CYCLES, n, |i| f(i % n)) / 1e3
    };

    out.push((
        "core.to_json_us",
        us(tracer, "core.to_json", &mut |i| {
            black_box(profiles[i].to_json());
        }),
    ));
    out.push((
        "codec.encode_us",
        us(tracer, "codec.encode_profile", &mut |i| {
            black_box(encode_profile(profiles[i]));
        }),
    ));
    out.push((
        "codec.view_parse_us",
        us(tracer, "codec.view_parse", &mut |i| {
            black_box(ProfileView::parse(&encoded[i]).is_ok());
        }),
    ));
    out.push((
        "codec.decode_us",
        us(tracer, "codec.decode_profile", &mut |i| {
            black_box(decode_profile(&encoded[i]).is_ok());
        }),
    ));
    out.push((
        "store.hash_us",
        us(tracer, "store.profile_id", &mut |i| {
            black_box(ProfileId::of(profiles[i]).0);
        }),
    ));
    out.push((
        "engine.index_build_us",
        us(tracer, "engine.index_build", &mut |i| {
            black_box(ProfileIndex::build(profiles[i]));
        }),
    ));

    let engines: Vec<Arc<Engine>> = profiles
        .iter()
        .map(|p| Arc::new(Engine::new(Arc::new((*p).clone()))))
        .collect();
    let warm_ns = cycle_median_ns(tracer, "engine.warm_query", CYCLES * 8, n, |i| {
        let e = &engines[i % n];
        for v in &e.profile().vars {
            black_box((e.var_metrics(v.id), e.ranges_of(v.id).len()));
        }
    });
    let vars_per_profile = profiles.iter().map(|p| p.vars.len()).sum::<usize>() as f64 / n as f64;
    out.push(("engine.warm_query_ns", warm_ns / vars_per_profile));

    let analyzers: Vec<Analyzer> = engines
        .iter()
        .map(|e| Analyzer::from_engine(Arc::clone(e)))
        .collect();
    // The diff partner: the next variant of the same base.
    let partners: Vec<Analyzer> = (0..n)
        .map(|i| Analyzer::new(corpus.variant_profile(i + n)))
        .collect();
    out.push((
        "analysis.text_report_us",
        us(tracer, "analysis.full_text_report", &mut |i| {
            black_box(full_text_report(&analyzers[i]));
        }),
    ));
    out.push((
        "analysis.report_json_us",
        us(tracer, "analysis.report_json", &mut |i| {
            black_box(analyze(&analyzers[i]).to_json());
        }),
    ));
    out.push((
        "analysis.code_view_us",
        us(tracer, "analysis.render_cct", &mut |i| {
            black_box(render_cct(&analyzers[i], 0.005));
        }),
    ));
    out.push((
        "analysis.address_view_us",
        us(tracer, "analysis.address_view", &mut |i| {
            let a = &analyzers[i];
            let var = a.var_named(&corpus.bases[i].hot_var).expect("hot variable");
            black_box(export_address_view(a, var, RangeScope::Program));
        }),
    ));
    out.push((
        "analysis.diff_us",
        us(tracer, "analysis.diff", &mut |i| {
            black_box(diff(&analyzers[i], &partners[i]).render());
        }),
    ));

    out.push((
        "live.split_us",
        us(tracer, "live.split_profile", &mut |i| {
            for chunk in split_profile(profiles[i], 6) {
                black_box(chunk.to_binary());
            }
        }),
    ));

    let requests: Vec<Request> = encoded
        .iter()
        .enumerate()
        .map(|(i, bytes)| Request::IngestBinary {
            label: corpus.bases[i].name.clone(),
            bytes: bytes.clone(),
        })
        .collect();
    let payloads: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .zip(&payloads)
        .map(|(r, p)| encode_frame_flags(PROTOCOL_VERSION, r.required_caps(), p).expect("fits"))
        .collect();
    out.push((
        "protocol.encode_request_us",
        us(tracer, "protocol.encode_request", &mut |i| {
            let payload = encode_request(&requests[i]);
            black_box(
                encode_frame_flags(PROTOCOL_VERSION, requests[i].required_caps(), &payload).is_ok(),
            );
        }),
    ));
    out.push((
        "protocol.decode_request_us",
        us(tracer, "protocol.decode_request", &mut |i| {
            black_box(decode_request(&payloads[i]).is_ok());
        }),
    ));
    out.push((
        "protocol.frame_decode_us",
        us(tracer, "protocol.frame_decode", &mut |i| {
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            decoder.push(&frames[i]);
            black_box(decoder.next_frame().is_ok());
        }),
    ));
    let responses: Vec<Response> = analyzers
        .iter()
        .map(|a| Response::Text(full_text_report(a)))
        .collect();
    let response_payloads: Vec<Vec<u8>> = responses.iter().map(encode_response).collect();
    out.push((
        "protocol.encode_response_us",
        us(tracer, "protocol.encode_response", &mut |i| {
            black_box(encode_response(&responses[i]));
        }),
    ));
    out.push((
        "protocol.decode_response_us",
        us(tracer, "protocol.decode_response", &mut |i| {
            black_box(decode_response(&response_payloads[i]).is_ok());
        }),
    ));
}

/// Store, cache, aggregate and live probes over the preload corpus, in a
/// directory of their own: ingest everything into a WAL (timed), reopen it
/// (WAL replay), compact it (timed), reopen it (snapshot load), then query.
fn store_layers(
    corpus: &Corpus,
    scratch: &Path,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> io::Result<()> {
    let n = corpus.bases.len();
    let dir = scratch.join("probe-data");
    let variants: Vec<Variant> = (0..PRELOAD).map(|k| corpus.variant(k)).collect();
    let bytes: usize = variants.iter().map(|v| v.bytes.len()).sum();
    out.push(("codec.bytes_per_profile", bytes as f64 / PRELOAD as f64));
    let open = || {
        ProfileStore::open_durable(
            &dir,
            ProfileStore::DEFAULT_CACHE_CAPACITY,
            no_auto_compaction(),
        )
    };

    let memory = ProfileStore::new();
    let mem_ns = cycle_median_ns(tracer, "store.ingest_mem", CYCLES, n, |k| {
        black_box(
            memory
                .ingest_binary(&variants[k].label, &variants[k].bytes)
                .is_ok(),
        );
    });
    out.push(("store.ingest_mem_us", mem_ns / 1e3));
    let dedup_ns = cycle_median_ns(tracer, "store.ingest_dedup", CYCLES, n, |k| {
        black_box(
            memory
                .ingest_binary(&variants[k].label, &variants[k].bytes)
                .is_ok(),
        );
    });
    out.push(("store.dedup_ingest_us", dedup_ns / 1e3));
    drop(memory);

    let store = open()?;
    let mut ids = Vec::with_capacity(PRELOAD);
    let wal_ns = cycle_median_ns(tracer, "store.ingest_wal", PRELOAD / n, n, |k| {
        if let Ok((id, _)) = store.ingest_binary(&variants[k].label, &variants[k].bytes) {
            ids.push(id);
        }
    });
    out.push(("store.ingest_wal_us", wal_ns / 1e3));
    if ids.len() != PRELOAD {
        return Err(other("a probe ingest failed"));
    }
    drop(store);
    drop(variants);

    let mut reopened = None;
    let replay_ns = call_median_ns(tracer, "store.wal_replay", SIM_RUNS, |_| {
        drop(reopened.take());
        reopened = open().ok();
    });
    out.push(("store.wal_replay_ms", replay_ns / 1e6));
    let store = reopened
        .take()
        .ok_or_else(|| other("reopening the probe WAL failed"))?;
    let compaction_ns = call_median_ns(tracer, "store.compaction", SIM_RUNS, |_| {
        black_box(store.flush().is_ok());
    });
    out.push(("store.compaction_ms", compaction_ns / 1e6));
    drop(store);
    let load_ns = call_median_ns(tracer, "store.snapshot_load", SIM_RUNS, |_| {
        drop(reopened.take());
        reopened = open().ok();
    });
    out.push(("store.snapshot_load_ms", load_ns / 1e6));
    let store = Arc::new(reopened.ok_or_else(|| other("reopening the probe snapshot failed"))?);
    if store.len() != PRELOAD {
        return Err(other("the probe store lost profiles across reopen"));
    }

    let hex: Vec<String> = ids.iter().map(ProfileId::to_string).collect();
    let resolve_ns = call_median_ns(tracer, "store.resolve", CYCLES * n, |k| {
        black_box(store.resolve(&hex[k]).is_ok());
    });
    out.push(("store.resolve_us", resolve_ns / 1e3));

    // The first aggregate builds every engine index; later ones only merge.
    store.aggregate().map_err(other)?;
    let cold_ns = call_median_ns(tracer, "aggregate.cold", MS_CALLS, |_| {
        store.clear_cache();
        black_box(store.aggregate().is_ok());
    });
    out.push(("aggregate.cold_ms", cold_ns / 1e6));
    let hit_ns = call_median_ns(tracer, "aggregate.pooled_hit", CYCLES * n, |_| {
        black_box(store.aggregate().is_ok());
    });
    out.push(("aggregate.pooled_hit_us", hit_ns / 1e3));
    store.query(Query::TextReport(ids[0])).map_err(other)?;
    let probe_ns = call_median_ns(tracer, "cache.probe", 1000, |_| {
        black_box(store.query(Query::TextReport(ids[0])).is_ok());
    });
    out.push(("cache.probe_us", probe_ns / 1e3));

    // Streaming sessions into the same durable store, one fresh variant each.
    let sessions = SessionManager::new(Arc::clone(&store), LiveConfig::default());
    let mut append_ns = Vec::new();
    let mut seal_ns = Vec::new();
    tracer.begin("live.sessions");
    for k in 0..LIVE_CYCLES * n {
        let profile = corpus.variant_profile(PRELOAD + k);
        let chunks: Vec<Vec<u8>> = split_profile(&profile, 6)
            .iter()
            .map(|c| c.to_binary())
            .collect();
        let ticket = sessions.open("probe").map_err(other)?;
        let mut appends = 0.0;
        for (seq, chunk) in chunks.iter().enumerate() {
            let (result, ns) = tracer.time("live.append_binary", || {
                sessions.append_binary(ticket.session, seq as u64, chunk)
            });
            result.map_err(other)?;
            appends += ns;
        }
        append_ns.push(appends / chunks.len() as f64);
        let (sealed, ns) = tracer.time("live.seal", || sessions.seal(ticket.session));
        sealed.map_err(other)?;
        seal_ns.push(ns);
    }
    tracer.end();
    sessions.stop();
    let per_cycle = |v: &[f64]| {
        median(
            &v.chunks(n)
                .map(|c| c.iter().sum::<f64>() / n as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.push(("live.append_us_per_chunk", per_cycle(&append_ns) / 1e3));
    out.push(("live.seal_ms", per_cycle(&seal_ns) / 1e6));
    Ok(())
}

/// Every in-process probe, on `corpus`, with its data under `scratch`.
pub fn all(corpus: &Corpus, scratch: &Path, tracer: &mut Tracer) -> io::Result<Metrics> {
    let mut out = Metrics::new();
    tracer.begin("harness.probes");
    simulator(tracer, &mut out);
    pure_layers(corpus, tracer, &mut out);
    store_layers(corpus, scratch, tracer, &mut out)?;
    tracer.end();
    Ok(out)
}
