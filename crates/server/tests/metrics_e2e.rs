//! End-to-end observability tests: the `metrics` wire op and the
//! embedded `GET /metrics` responder must expose exactly the counters
//! `server-stats` reports (one storage location, two readers), scrapes
//! racing ingest must never see torn histogram snapshots, slow-op
//! tracing must survive concurrent writers, and the live-session
//! gauges must track aborts and lease reaps exactly.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{Client, LiveConfig, Server, ServerConfig};
use numa_sim::{ExecMode, Program};
use numa_store::ProfileStore;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small deterministic profile; `rounds` varies the content hash.
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Arc::new(NumaProfiler::new(machine.clone(), config, 8));
    let mut p = Program::new(machine, 8, ExecMode::Sequential, profiler.clone());
    let size = 1u64 << 20;
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("z", size, PlacementPolicy::FirstTouch);
        ctx.store_range(base, size / 64, 64);
    });
    for _ in 0..rounds {
        p.parallel("compute._omp", |tid, ctx| {
            let chunk = size / 8;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
    }
    finish_profile(p, profiler)
}

fn spawn_server(config: ServerConfig, store: Arc<ProfileStore>) -> (Server, SocketAddr) {
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind ephemeral");
    let addr = server.local_addr();
    (server, addr)
}

fn run_server(
    server: Server,
) -> std::thread::JoinHandle<std::io::Result<numa_server::ServerStatsReport>> {
    std::thread::spawn(move || server.run())
}

/// Minimal Prometheus text parser: `name{labels} value` lines keyed by
/// the full series name (labels included), comments skipped.
fn parse_metrics(text: &str) -> HashMap<String, i128> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("metric line without a value: {line:?}");
        });
        let value: i128 = value
            .parse()
            .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        assert!(
            out.insert(key.to_string(), value).is_none(),
            "duplicate series {key:?}"
        );
    }
    out
}

fn series(scrape: &HashMap<String, i128>, key: &str) -> i128 {
    *scrape
        .get(key)
        .unwrap_or_else(|| panic!("series {key:?} missing from scrape"))
}

#[test]
fn scrape_matches_server_stats_after_a_mixed_workload() {
    let (server, addr) = spawn_server(ServerConfig::default(), Arc::new(ProfileStore::new()));
    let server = run_server(server);
    let mut c = Client::connect(addr).expect("connect");

    // Deterministic mixed workload. Per-connection requests are served
    // sequentially by one worker, so request N is counted before
    // request N+1 is read — the fixture below is exact, not racy.
    c.ping().expect("ping");
    let p1 = profile(1);
    c.ingest_profile("one", &p1).expect("ingest one");
    let (_, added) = c.ingest_profile("one-again", &p1).expect("re-ingest");
    assert!(!added, "identical content must dedup");
    c.ingest_profile("two", &profile(2)).expect("ingest two");
    assert!(
        c.ingest_binary("junk", b"not a profile".to_vec()).is_err(),
        "parse must fail"
    );
    c.aggregate().expect("aggregate (cache miss)");
    c.aggregate().expect("aggregate (cache hit)");
    c.top(3).expect("top");
    c.list().expect("list");
    let report = c.server_stats().expect("server stats");
    let scrape = parse_metrics(&c.metrics().expect("metrics op"));

    // The pre-migration fixture: every counter the workload touched,
    // by value. A migration that forked the storage (hot path counts
    // one atomic, the scrape reads another) breaks these.
    let expected: &[(&str, i128)] = &[
        ("numa_server_requests_total{op=\"ping\"}", 1),
        ("numa_server_requests_total{op=\"ingest-binary\"}", 4),
        ("numa_server_requests_total{op=\"aggregate\"}", 2),
        ("numa_server_requests_total{op=\"top\"}", 1),
        ("numa_server_requests_total{op=\"list\"}", 1),
        ("numa_server_requests_total{op=\"server-stats\"}", 1),
        // The scrape is rendered before its own request is recorded.
        ("numa_server_requests_total{op=\"metrics\"}", 0),
        ("numa_server_errors_total{op=\"ingest-binary\"}", 1),
        ("numa_server_errors_total{op=\"aggregate\"}", 0),
        ("numa_server_connections_accepted_total", 1),
        ("numa_store_cache_hits_total", 1),
        ("numa_store_cache_misses_total", 2),
        ("numa_store_cache_insertions_total", 2),
        ("numa_store_cache_evictions_total", 0),
        ("numa_store_dedup_hits_total", 1),
        ("numa_store_parse_failures_total", 1),
        ("numa_store_profiles", 2),
        ("numa_store_wal_appends_total", 0),
        ("numa_live_open_sessions", 0),
        ("numa_live_open_bytes", 0),
        ("numa_live_sessions_opened_total", 0),
    ];
    for (key, want) in expected {
        assert_eq!(series(&scrape, key), *want, "series {key}");
    }

    // Counter parity: every migrated counter in the `server-stats`
    // report equals its scraped series — same storage, two surfaces.
    // (`server-stats` renders its report before recording its own
    // request, so its op count is one behind the later scrape.)
    let parity: &[(&str, u64)] = &[
        ("numa_store_cache_hits_total", report.cache_hits),
        ("numa_store_cache_misses_total", report.cache_misses),
        ("numa_store_cache_insertions_total", report.cache_insertions),
        ("numa_store_cache_evictions_total", report.cache_evictions),
        ("numa_store_dedup_hits_total", 1),
        ("numa_store_wal_appends_total", report.wal_appends),
        (
            "numa_store_wal_group_commits_total",
            report.wal_group_commits,
        ),
        (
            "numa_store_snapshots_written_total",
            report.snapshots_written,
        ),
        (
            "numa_store_persist_io_errors_total",
            report.persist_io_errors,
        ),
        ("numa_live_open_sessions", report.live_sessions),
        ("numa_live_open_bytes", report.live_open_bytes),
        (
            "numa_live_sessions_opened_total",
            report.live_sessions_opened,
        ),
        (
            "numa_live_sessions_sealed_total",
            report.live_sessions_sealed,
        ),
        (
            "numa_live_sessions_aborted_total",
            report.live_sessions_aborted,
        ),
        ("numa_live_sessions_reaped_total", report.live_leases_reaped),
        (
            "numa_live_chunks_appended_total",
            report.live_chunks_appended,
        ),
        (
            "numa_live_backpressure_rejections_total",
            report.live_backpressure,
        ),
        (
            "numa_server_connections_accepted_total",
            report.connections_accepted,
        ),
        (
            "numa_server_rejected_oversized_total",
            report.rejected_oversized,
        ),
        (
            "numa_server_malformed_frames_total",
            report.malformed_frames,
        ),
        ("numa_server_timeouts_total", report.timeouts),
    ];
    for (key, want) in parity {
        assert_eq!(series(&scrape, key), *want as i128, "parity for {key}");
    }
    for op in &report.per_op {
        let adjust = if op.op == "server-stats" { 1 } else { 0 };
        assert_eq!(
            series(
                &scrape,
                &format!("numa_server_requests_total{{op=\"{}\"}}", op.op)
            ),
            (op.requests + adjust) as i128,
            "per-op parity for {}",
            op.op
        );
        assert_eq!(
            series(
                &scrape,
                &format!("numa_server_errors_total{{op=\"{}\"}}", op.op)
            ),
            op.errors as i128,
            "per-op error parity for {}",
            op.op
        );
    }
    for row in &report.store_shards {
        assert_eq!(
            series(
                &scrape,
                &format!("numa_store_shard_ingests_total{{shard=\"{}\"}}", row.shard)
            ),
            row.ingests as i128,
            "shard {} ingest parity",
            row.shard
        );
    }
    // The request-latency histogram rides along with a consistent
    // count: le="+Inf" equals _count by construction.
    assert_eq!(
        series(
            &scrape,
            "numa_server_request_latency_us_bucket{le=\"+Inf\"}"
        ),
        series(&scrape, "numa_server_request_latency_us_count"),
    );

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn durable_counters_appear_in_the_scrape() {
    let dir = std::env::temp_dir().join(format!("numa-metrics-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::open_durable(&dir, 64, Default::default()).expect("open durable");
    let (server, addr) = spawn_server(ServerConfig::default(), Arc::new(store));
    let server = run_server(server);
    let mut c = Client::connect(addr).expect("connect");

    c.ingest_profile("a", &profile(1)).expect("ingest a");
    c.ingest_profile("b", &profile(2)).expect("ingest b");
    let report = c.server_stats().expect("stats");
    let scrape = parse_metrics(&c.metrics().expect("metrics"));

    assert!(report.durable);
    assert_eq!(report.wal_appends, 2);
    assert_eq!(
        series(&scrape, "numa_store_wal_appends_total"),
        report.wal_appends as i128
    );
    assert_eq!(
        series(&scrape, "numa_store_wal_group_commits_total"),
        report.wal_group_commits as i128
    );
    assert!(report.wal_group_commits >= 1);
    assert!(series(&scrape, "numa_store_wal_bytes") > 0);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_responder_serves_the_registry() {
    let (server, addr) = spawn_server(
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
        Arc::new(ProfileStore::new()),
    );
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");
    let server = run_server(server);
    let mut c = Client::connect(addr).expect("connect");
    c.ingest_profile("one", &profile(1)).expect("ingest");

    let get = |path: &str, method: &str| -> String {
        let mut s = TcpStream::connect(metrics_addr).expect("connect scraper");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).expect("read response");
        body
    };

    let ok = get("/metrics", "GET");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    assert!(
        ok.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{ok}"
    );
    // The body is the same registry the wire op renders: parse it and
    // check a store counter the ingest above moved.
    let body = ok.split("\r\n\r\n").nth(1).expect("has a body");
    let scrape = parse_metrics(body);
    assert_eq!(series(&scrape, "numa_store_profiles"), 1);
    assert!(scrape.contains_key("numa_server_uptime_seconds"));

    assert!(get("/other", "GET").starts_with("HTTP/1.1 404 "));
    assert!(get("/metrics", "POST").starts_with("HTTP/1.1 405 "));

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn scrapes_racing_ingest_never_see_torn_latency_snapshots() {
    let (server, addr) = spawn_server(ServerConfig::default(), Arc::new(ProfileStore::new()));
    let server = run_server(server);
    // Connected first: a connection holds one of the default four
    // workers for its whole life, so an observer that lost the race to
    // four writers would wait out the read timeout instead of scraping.
    let mut c = Client::connect(addr).expect("observer connect");
    c.ping().expect("observer holds a worker");

    // Four writers hammer the daemon with mixed ops while the main
    // thread scrapes continuously. Every snapshot must be internally
    // consistent: ordered percentiles and count == bucket sum.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("writer connect");
                let own = profile(w + 1);
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    c.ingest_profile(&format!("w{w}-{i}"), &own)
                        .expect("ingest");
                    c.aggregate().expect("aggregate");
                    c.ping().expect("ping");
                    i += 1;
                }
            })
        })
        .collect();

    for _ in 0..50 {
        let stats = c.server_stats().expect("stats");
        assert!(stats.latency.p50_us <= stats.latency.p95_us);
        assert!(stats.latency.p95_us <= stats.latency.p99_us);
        assert!(stats.latency.p99_us <= stats.latency.max_us);
        let scrape = parse_metrics(&c.metrics().expect("metrics"));
        assert_eq!(
            series(
                &scrape,
                "numa_server_request_latency_us_bucket{le=\"+Inf\"}"
            ),
            series(&scrape, "numa_server_request_latency_us_count"),
            "scrape saw a torn histogram"
        );
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn slow_op_trace_survives_eight_concurrent_writers() {
    // Threshold zero: every request is a slow op, so eight connections
    // hammering the daemon exercise the trace ring and the slow-op
    // retention under real contention.
    let (server, addr) = spawn_server(
        ServerConfig {
            slow_op_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
        Arc::new(ProfileStore::new()),
    );
    let server = run_server(server);

    let writers: Vec<_> = (0..8)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("writer connect");
                for i in 0..25 {
                    if i % 5 == 0 {
                        c.ingest_profile(&format!("w{w}-{i}"), &profile(w + 1))
                            .expect("ingest");
                    } else {
                        c.ping().expect("ping");
                    }
                }
            })
        })
        .collect();
    // Scrape while the writers are live: rows must never be torn.
    let mut observer = Client::connect(addr).expect("observer");
    for _ in 0..10 {
        let stats = observer.server_stats().expect("stats");
        assert!(stats.recent_slow_ops.len() <= 16);
        for pair in stats.recent_slow_ops.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "slow-op seqs must be strictly increasing: {:?}",
                stats.recent_slow_ops
            );
        }
        for row in &stats.recent_slow_ops {
            assert!(!row.op.is_empty(), "torn row: {row:?}");
        }
    }
    for w in writers {
        w.join().expect("writer");
    }

    let stats = observer.server_stats().expect("final stats");
    assert!(
        !stats.recent_slow_ops.is_empty(),
        "threshold zero must retain slow ops"
    );
    assert!(stats.recent_slow_ops.len() <= 16);
    let rendered = stats.render();
    assert!(rendered.contains("recent slow ops:"), "{rendered}");

    observer.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn trace_capacity_zero_disables_span_capture() {
    let (server, addr) = spawn_server(
        ServerConfig {
            trace_capacity: 0,
            slow_op_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
        Arc::new(ProfileStore::new()),
    );
    let server = run_server(server);
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("ping");
    c.ingest_profile("one", &profile(1)).expect("ingest");
    let stats = c.server_stats().expect("stats");
    assert!(
        stats.recent_slow_ops.is_empty(),
        "capacity 0 must capture nothing: {:?}",
        stats.recent_slow_ops
    );
    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn abort_decrements_the_session_gauges_exactly() {
    let (server, addr) = spawn_server(ServerConfig::default(), Arc::new(ProfileStore::new()));
    let server = run_server(server);
    let mut c = Client::connect(addr).expect("connect");

    let chunks = numa_store::stream::split_profile(&profile(1), 2);
    let keep = c.open_session("keep").expect("open keep");
    let doomed = c.open_session("doomed").expect("open doomed");
    let keep_chunk = chunks[0].to_binary();
    let doomed_chunks = [chunks[0].to_binary(), chunks[1].to_binary()];
    c.append_chunk_binary(keep.session, 0, keep_chunk.clone())
        .expect("keep 0");
    c.append_chunk_binary(doomed.session, 0, doomed_chunks[0].clone())
        .expect("doomed 0");
    c.append_chunk_binary(doomed.session, 1, doomed_chunks[1].clone())
        .expect("doomed 1");
    let doomed_bytes = (doomed_chunks[0].len() + doomed_chunks[1].len()) as i128;

    let before = parse_metrics(&c.metrics().expect("metrics before"));
    assert_eq!(series(&before, "numa_live_open_sessions"), 2);
    assert_eq!(
        series(&before, "numa_live_open_bytes"),
        keep_chunk.len() as i128 + doomed_bytes
    );

    // Abort must subtract exactly the aborted session's bytes and one
    // session — the surviving session's accounting is untouched.
    c.abort_session(doomed.session).expect("abort");
    let after = parse_metrics(&c.metrics().expect("metrics after"));
    assert_eq!(series(&after, "numa_live_open_sessions"), 1);
    assert_eq!(
        series(&after, "numa_live_open_bytes"),
        keep_chunk.len() as i128
    );
    assert_eq!(series(&after, "numa_live_sessions_aborted_total"), 1);

    c.abort_session(keep.session).expect("abort keep");
    let finished = parse_metrics(&c.metrics().expect("metrics final"));
    assert_eq!(series(&finished, "numa_live_open_sessions"), 0);
    assert_eq!(series(&finished, "numa_live_open_bytes"), 0);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn lease_reap_decrements_the_session_gauges_exactly() {
    let (server, addr) = spawn_server(
        ServerConfig {
            live: LiveConfig {
                lease: Duration::from_millis(150),
                janitor_period: Duration::from_millis(20),
                ..LiveConfig::default()
            },
            ..ServerConfig::default()
        },
        Arc::new(ProfileStore::new()),
    );
    let server = run_server(server);

    // A client opens and buffers, then dies without sealing.
    let chunk = numa_store::stream::split_profile(&profile(1), 2)[0].to_binary();
    {
        let mut dying = Client::connect(addr).expect("dying client");
        let info = dying.open_session("doomed").expect("open");
        dying
            .append_chunk_binary(info.session, 0, chunk)
            .expect("append");
    }

    // Each scrape is a blocking round trip, so polling for the reap
    // needs no pause of its own.
    let mut c = Client::connect(addr).expect("observer");
    let deadline = Instant::now() + Duration::from_secs(10);
    let scrape = loop {
        let scrape = parse_metrics(&c.metrics().expect("metrics"));
        if series(&scrape, "numa_live_sessions_reaped_total") >= 1 {
            break scrape;
        }
        assert!(Instant::now() < deadline, "janitor never reaped");
        std::thread::yield_now();
    };
    assert_eq!(series(&scrape, "numa_live_open_sessions"), 0);
    assert_eq!(series(&scrape, "numa_live_open_bytes"), 0);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn abort_racing_durable_appends_leaves_no_gauge_residue() {
    let dir = std::env::temp_dir().join(format!("numa-metrics-abort-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::open_durable(&dir, 64, Default::default()).expect("open durable");
    let (server, addr) = spawn_server(ServerConfig::default(), Arc::new(store));
    let server = run_server(server);

    // Appends on a durable store block on the group commit; aborting
    // from a second connection while one is in flight exercises the
    // reap/rollback races in the gauge accounting. Whatever interleaves,
    // once everything quiesces the gauges must be back to zero.
    let chunks: Vec<Vec<u8>> = numa_store::stream::split_profile(&profile(1), 2)
        .iter()
        .map(|c| c.to_binary())
        .collect();
    for round in 0..8 {
        let mut opener = Client::connect(addr).expect("opener");
        let info = opener.open_session(&format!("race-{round}")).expect("open");
        let session = info.session;
        let chunks = chunks.clone();
        let appender = std::thread::spawn(move || {
            for (seq, chunk) in chunks.into_iter().enumerate() {
                // The abort can land between (or during) appends; both
                // outcomes are legal, the gauges just must not drift.
                if opener
                    .append_chunk_binary(session, seq as u64, chunk)
                    .is_err()
                {
                    return;
                }
            }
        });
        let mut aborter = Client::connect(addr).expect("aborter");
        let _ = aborter.abort_session(session);
        appender.join().expect("appender");
        let _ = aborter.abort_session(session); // idempotent cleanup
    }

    let mut c = Client::connect(addr).expect("observer");
    let scrape = parse_metrics(&c.metrics().expect("metrics"));
    assert_eq!(series(&scrape, "numa_live_open_sessions"), 0);
    assert_eq!(series(&scrape, "numa_live_open_bytes"), 0);
    let stats = c.server_stats().expect("stats");
    assert_eq!(stats.live_sessions, 0);
    assert_eq!(stats.live_open_bytes, 0);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}
