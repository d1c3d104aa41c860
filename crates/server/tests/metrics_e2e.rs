//! End-to-end observability tests: the `metrics` wire op and the
//! embedded `GET /metrics` responder serve the daemon's one exposition
//! and count a known workload exactly, scrapes racing ingest never see
//! torn histogram snapshots, slow-op tracing survives concurrent
//! writers, the live-session gauges track aborts and lease reaps
//! exactly, and the scrape endpoint bounds what a peer can make it
//! buffer.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{
    parse_exposition, parse_percentiles, parse_slow_ops, Client, LiveConfig, Server, ServerConfig,
};
use numa_sim::Program;
use numa_store::ProfileStore;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small deterministic profile; `rounds` varies the content hash.
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 8));
    let mut p = Program::new(machine, 8, profiler.clone());
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

fn run_server(server: Server) -> std::thread::JoinHandle<std::io::Result<String>> {
    std::thread::spawn(move || server.run())
}

/// The daemon's series, read through the `metrics` op.
fn scrape(c: &mut Client) -> BTreeMap<String, i128> {
    parse_exposition(&c.metrics().expect("metrics")).expect("exposition parses")
}

/// `[p50, p95, p99, max]` of the request-latency histogram.
fn latency_percentiles(text: &str) -> [u64; 4] {
    parse_percentiles(text, "numa_server_request_latency_us")
        .unwrap_or_else(|| panic!("no latency percentile line in {text}"))
}

/// The exposition's `# slow-op` lines as `(seq, span)`, in text order.
fn slow_ops(text: &str) -> Vec<(u64, &str)> {
    parse_slow_ops(text).expect("slow-op lines parse")
}

#[test]
fn scrape_counts_a_mixed_workload_exactly() {
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
    let listed = c.list().expect("list");
    let scrape = scrape(&mut c);

    // Every counter the workload touched, by value. A change that
    // forked the storage (hot path counts one atomic, the scrape reads
    // another) breaks these.
    let expected: &[(&str, i128)] = &[
        ("numa_server_requests_total{op=\"ping\"}", 1),
        ("numa_server_requests_total{op=\"ingest-binary\"}", 4),
        ("numa_server_requests_total{op=\"aggregate\"}", 2),
        ("numa_server_requests_total{op=\"top\"}", 1),
        ("numa_server_requests_total{op=\"list\"}", 1),
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
        ("numa_store_wal_bytes", 0),
        ("numa_store_truncated_bytes", 0),
        ("numa_store_replay_parse_failures", 0),
        ("numa_live_open_sessions", 0),
        ("numa_live_open_bytes", 0),
        ("numa_live_sessions_opened_total", 0),
    ];
    for (key, want) in expected {
        assert_eq!(scrape.get(*key), Some(want), "series {key}");
    }
    // The two profiles are resident in the shards, and the codec bytes
    // `list` reports are the store's footprint.
    let shard_profiles: i128 = (0..ProfileStore::DEFAULT_SHARDS)
        .map(|i| scrape[&format!("numa_store_shard_profiles{{shard=\"{i}\"}}")])
        .sum();
    assert_eq!(shard_profiles, 2);
    let codec_bytes: usize = listed.iter().map(|e| e.codec_bytes).sum();
    assert!(codec_bytes > 0);
    assert_eq!(scrape["numa_store_codec_bytes"], codec_bytes as i128);
    // The request-latency histogram rides along with a consistent
    // count: le="+Inf" equals _count by construction.
    assert_eq!(
        scrape["numa_server_request_latency_us_bucket{le=\"+Inf\"}"],
        scrape["numa_server_request_latency_us_count"],
    );

    c.shutdown().expect("shutdown");
    // `run` hands back the same exposition, the shutdown counted too.
    let last = parse_exposition(&server.join().unwrap().expect("server run")).expect("parses");
    assert_eq!(last["numa_server_requests_total{op=\"metrics\"}"], 1);
    assert_eq!(last["numa_server_requests_total{op=\"shutdown\"}"], 1);
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
    let scrape = scrape(&mut c);

    assert_eq!(scrape["numa_store_wal_appends_total"], 2);
    let commits = scrape["numa_store_wal_group_commits_total"];
    assert!((1..=2).contains(&commits), "{commits} group commit(s)");
    assert!(scrape["numa_store_wal_bytes"] > 0);

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
    let scrape = parse_exposition(body).expect("exposition parses");
    assert_eq!(scrape["numa_store_profiles"], 1);
    assert!(scrape.contains_key("numa_server_uptime_seconds"));

    assert!(get("/other", "GET").starts_with("HTTP/1.1 404 "));
    assert!(get("/metrics", "POST").starts_with("HTTP/1.1 405 "));

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

/// Send `request` to the scrape endpoint from a second thread (the
/// responder may stop reading, and close, long before the last byte)
/// and return whatever the responder answered before closing.
fn exchange(addr: SocketAddr, request: Vec<u8>) -> String {
    let stream = TcpStream::connect(addr).expect("connect scraper");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        // Fails once the responder has answered and closed.
        let _ = writer.write_all(&request);
        let _ = writer.shutdown(std::net::Shutdown::Write);
    });
    let mut answer = Vec::new();
    // Whatever ends the read, EOF or an error, the answer is what
    // arrived before it.
    let _ = (&stream).read_to_end(&mut answer);
    sender.join().expect("sender");
    String::from_utf8_lossy(&answer).into_owned()
}

#[test]
fn overlong_request_heads_get_431_and_the_endpoint_keeps_serving() {
    let (server, addr) = spawn_server(
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        },
        Arc::new(ProfileStore::new()),
    );
    let metrics_addr = server.metrics_addr().expect("metrics listener bound");
    let server = run_server(server);

    // 1 MiB of header lines behind a valid request line, properly ended.
    let mut padded = b"GET /metrics HTTP/1.1\r\n".to_vec();
    while padded.len() < 1 << 20 {
        padded.extend_from_slice(b"X-Pad: 0123456789abcdef0123456789abcdef\r\n");
    }
    padded.extend_from_slice(b"\r\n");
    // 64 KiB with no newline at all.
    let endless = vec![b'G'; 64 << 10];
    for (what, request) in [
        ("1 MiB of headers", padded),
        ("64 KiB, no newline", endless),
    ] {
        let answer = exchange(metrics_addr, request);
        assert!(
            answer.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{what}: {answer:?}"
        );
        assert!(
            answer.contains("Connection: close\r\n"),
            "{what}: {answer:?}"
        );
    }

    // A head just under the bound is served.
    let mut fits = b"GET /metrics HTTP/1.1\r\n".to_vec();
    fits.extend_from_slice(&vec![b'a'; 8000]);
    fits.extend_from_slice(b": b\r\n\r\n");
    assert!(fits.len() < 8 << 10);
    let answer = exchange(metrics_addr, fits);
    assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer:?}");
    // And an ordinary scrape still gets the exposition.
    let answer = exchange(
        metrics_addr,
        b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n".to_vec(),
    );
    assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer:?}");
    assert!(answer.contains("\nnuma_store_profiles 0\n"), "{answer:?}");

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn scrapes_racing_ingest_never_see_torn_latency_snapshots() {
    let (server, addr) = spawn_server(ServerConfig::default(), Arc::new(ProfileStore::new()));
    let server = run_server(server);

    // Four writers hammer the daemon with mixed ops while the main
    // thread scrapes continuously. Every scrape must be internally
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

    let mut c = Client::connect(addr).expect("observer connect");
    for _ in 0..50 {
        let text = c.metrics().expect("metrics");
        let [p50, p95, p99, max] = latency_percentiles(&text);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "{text}");
        let scrape = parse_exposition(&text).expect("exposition parses");
        assert_eq!(
            scrape["numa_server_request_latency_us_bucket{le=\"+Inf\"}"],
            scrape["numa_server_request_latency_us_count"],
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
    // hammering the daemon exercise the slow-op retention under real
    // contention.
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
    // Scrape while the writers are live: lines must never be torn.
    let mut observer = Client::connect(addr).expect("observer");
    for _ in 0..10 {
        let text = observer.metrics().expect("metrics");
        let slow = slow_ops(&text);
        assert!(slow.len() <= 16, "{slow:?}");
        for pair in slow.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "slow-op seqs must be strictly increasing: {slow:?}"
            );
        }
        for (_, span) in &slow {
            let op = span.split(' ').nth(1).unwrap_or("");
            assert!(!op.is_empty() && span.ends_with(')'), "torn line: {span:?}");
        }
    }
    for w in writers {
        w.join().expect("writer");
    }

    let text = observer.metrics().expect("final metrics");
    let slow = slow_ops(&text);
    assert!(!slow.is_empty(), "threshold zero must retain slow ops");
    assert!(slow.len() <= 16);
    assert!(
        slow.iter()
            .any(|(_, span)| span.contains(" ingest-binary ")),
        "{slow:?}"
    );

    observer.shutdown().expect("shutdown");
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

    let before = scrape(&mut c);
    assert_eq!(before["numa_live_open_sessions"], 2);
    assert_eq!(
        before["numa_live_open_bytes"],
        keep_chunk.len() as i128 + doomed_bytes
    );

    // Abort must subtract exactly the aborted session's bytes and one
    // session — the surviving session's accounting is untouched.
    c.abort_session(doomed.session).expect("abort");
    let after = scrape(&mut c);
    assert_eq!(after["numa_live_open_sessions"], 1);
    assert_eq!(after["numa_live_open_bytes"], keep_chunk.len() as i128);
    assert_eq!(after["numa_live_sessions_aborted_total"], 1);

    c.abort_session(keep.session).expect("abort keep");
    let finished = scrape(&mut c);
    assert_eq!(finished["numa_live_open_sessions"], 0);
    assert_eq!(finished["numa_live_open_bytes"], 0);

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
        let scrape = scrape(&mut c);
        if scrape["numa_live_sessions_reaped_total"] >= 1 {
            break scrape;
        }
        assert!(Instant::now() < deadline, "janitor never reaped");
        std::thread::yield_now();
    };
    assert_eq!(scrape["numa_live_open_sessions"], 0);
    assert_eq!(scrape["numa_live_open_bytes"], 0);

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
    let scrape = scrape(&mut c);
    assert_eq!(scrape["numa_live_open_sessions"], 0);
    assert_eq!(scrape["numa_live_open_bytes"], 0);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}
