//! End-to-end daemon tests: concurrent clients over loopback must see
//! exactly what a single-threaded in-process store would answer, the
//! daemon must reject malformed/oversized input without dying, and
//! shutdown must drain in-flight requests.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::protocol::{
    encode_frame, encode_request, read_frame, Request, Response, PROTOCOL_VERSION,
};
use numa_server::{Client, ClientError, ReportFormat, Server, ServerConfig, WireError};
use numa_sim::Program;
use numa_store::{ProfileStore, Query};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

fn spawn_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<numa_server::ServerStatsReport>>,
) {
    let store = Arc::new(ProfileStore::new());
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn eight_concurrent_clients_match_the_single_threaded_oracle() {
    const CLIENTS: usize = 8;

    // The oracle: the same corpus in an in-process store, queried on
    // one thread.
    let corpus: Vec<(String, NumaProfile)> = (1..=CLIENTS)
        .map(|i| (format!("run-{i}"), profile(i)))
        .collect();
    let oracle = ProfileStore::new();
    for (label, p) in &corpus {
        oracle
            .ingest_profile(label, p.clone())
            .expect("oracle ingest");
    }
    let oracle_aggregate = oracle.aggregate().expect("oracle aggregate").text();
    let oracle_top = oracle
        .query(Query::TopVariables(3))
        .expect("oracle top")
        .text();
    let oracle_report = {
        let sp = oracle.resolve("run-3").expect("oracle resolve");
        oracle
            .query(Query::TextReport(sp.id))
            .expect("oracle report")
            .text()
    };

    let (addr, server) = spawn_server(ServerConfig {
        workers: CLIENTS, // every client can be in flight at once
        ..ServerConfig::default()
    });

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let corpus = Arc::new(corpus);
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let corpus = Arc::clone(&corpus);
            let oracle_aggregate = oracle_aggregate.clone();
            let oracle_top = oracle_top.clone();
            let oracle_report = oracle_report.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Phase 1 — mixed concurrent ingest: every client sends
                // its own run plus a duplicate of a neighbour's, so the
                // daemon sees adds and dedups interleaved.
                let (label, own) = &corpus[t];
                c.ingest_profile(label, own).expect("ingest own");
                let (nl, neighbour) = &corpus[(t + 1) % CLIENTS];
                c.ingest_profile(nl, neighbour).expect("ingest duplicate");
                // Ingestion is idempotent by content hash, so after the
                // barrier the stored set equals the oracle's no matter
                // how the 16 ingests interleaved.
                barrier.wait();
                // Phase 2 — concurrent queries must match the oracle.
                for _ in 0..3 {
                    assert_eq!(c.aggregate().expect("aggregate"), oracle_aggregate);
                    assert_eq!(c.top(3).expect("top"), oracle_top);
                    assert_eq!(
                        c.report("run-3", ReportFormat::Text).expect("report"),
                        oracle_report
                    );
                }
                let entries = c.list().expect("list");
                assert_eq!(entries.len(), CLIENTS);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    // Observability: the daemon counted every op and latencies are
    // monotone across percentiles.
    let mut c = Client::connect(addr).expect("connect for stats");
    let stats = c.server_stats().expect("server-stats");
    assert_eq!(stats.store_profiles, CLIENTS);
    let ingests = stats
        .per_op
        .iter()
        .find(|o| o.op == "ingest-binary")
        .expect("ingest op counted");
    assert_eq!(ingests.requests, (CLIENTS * 2) as u64);
    let aggregates = stats
        .per_op
        .iter()
        .find(|o| o.op == "aggregate")
        .expect("aggregate op counted");
    assert_eq!(aggregates.requests, (CLIENTS * 3) as u64);
    assert!(stats.latency.count >= (CLIENTS * 11) as u64);
    assert!(stats.latency.p50_us <= stats.latency.p95_us);
    assert!(stats.latency.p95_us <= stats.latency.p99_us);
    assert!(stats.latency.p99_us <= stats.latency.max_us.max(stats.latency.p99_us));
    // The repeated aggregate/top/report queries hit the memo cache.
    assert!(
        stats.cache_hits > 0,
        "warm queries must be served from the cache: {stats:?}"
    );

    c.shutdown().expect("shutdown");
    let final_stats = server.join().expect("server thread").expect("run ok");
    assert_eq!(final_stats.errors_total, 0, "{final_stats:?}");
}

#[test]
fn shutdown_answers_the_in_flight_request_then_drains() {
    let (addr, server) = spawn_server(ServerConfig::default());

    let mut a = Client::connect(addr).expect("client a");
    let mut b = Client::connect(addr).expect("client b");
    a.ingest_profile("r", &profile(1)).expect("ingest");

    // The shutdown request itself is "in flight" when the flag flips:
    // it must still be answered (that is the drain contract).
    b.shutdown().expect("shutdown answered");
    let stats = server.join().expect("server thread").expect("run ok");
    assert_eq!(stats.store_profiles, 1);

    // After drain the daemon is gone: new exchanges fail.
    let err = a.ping();
    assert!(err.is_err(), "daemon must be down, got {err:?}");
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_and_the_daemon_survives() {
    let (addr, server) = spawn_server(ServerConfig {
        max_frame: 1024,
        ..ServerConfig::default()
    });

    // Oversized: a frame over the 1 KiB cap is rejected by header
    // inspection with a typed error.
    {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.write_all(&encode_frame(PROTOCOL_VERSION, &vec![b'x'; 4096]).expect("encode"))
            .expect("send oversized");
        let frame = read_frame(&mut s, 1 << 20).expect("reply").expect("frame");
        let resp = numa_server::protocol::decode_response(&frame.payload).expect("decode");
        assert!(
            matches!(
                resp,
                Response::Error(WireError::Oversized {
                    len: 4096,
                    max: 1024
                })
            ),
            "{resp:?}"
        );
    }

    // Garbage bytes: typed malformed error, connection closed.
    {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n")
            .expect("send garbage");
        let frame = read_frame(&mut s, 1 << 20).expect("reply").expect("frame");
        let resp = numa_server::protocol::decode_response(&frame.payload).expect("decode");
        assert!(
            matches!(resp, Response::Error(WireError::Malformed { .. })),
            "{resp:?}"
        );
    }

    // Valid frame, JSON where a binary message belongs — the retired
    // JSON ingest and append ops included: `{` is no request's tag, so a
    // typed malformed error, then the connection is closed (never a
    // hang on a peer that still sends them).
    for bogus in [
        r#"{"no": "such request"}"#,
        r#"{"Ingest":{"label":"old","json":"{}"}}"#,
        r#"{"AppendChunk":{"session":1,"seq":0,"chunk":"{\"Threads\":[]}"}}"#,
    ] {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&encode_frame(PROTOCOL_VERSION, bogus.as_bytes()).expect("encode"))
            .expect("send bogus");
        let frame = read_frame(&mut s, 1 << 20).expect("reply").expect("frame");
        let resp = numa_server::protocol::decode_response(&frame.payload).expect("decode");
        assert!(
            matches!(resp, Response::Error(WireError::Malformed { .. })),
            "{bogus}: {resp:?}"
        );
        assert!(
            matches!(read_frame(&mut s, 1 << 20), Ok(None)),
            "{bogus}: the daemon closes a connection it cannot decode"
        );
    }

    // Wrong protocol version: typed version error. A version-1 peer
    // spoke JSON; it learns the version it must speak instead of
    // drawing a `Malformed`.
    for (version, payload) in [
        (1, b"\"Ping\"".to_vec()),
        (99, encode_request(&Request::Ping)),
    ] {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.write_all(&encode_frame(version, &payload).expect("encode"))
            .expect("send old version");
        let frame = read_frame(&mut s, 1 << 20).expect("reply").expect("frame");
        assert_eq!(
            frame.version, PROTOCOL_VERSION,
            "server frames its own version"
        );
        let resp = numa_server::protocol::decode_response(&frame.payload).expect("decode");
        assert_eq!(
            resp,
            Response::Error(WireError::UnsupportedVersion {
                got: version,
                supported: 2
            })
        );
    }

    // The daemon took all of that without dying.
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("still alive");
    let stats = c.server_stats().expect("stats");
    assert!(stats.rejected_oversized >= 1, "{stats:?}");
    assert!(stats.malformed_frames >= 4, "{stats:?}");

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

#[test]
fn two_frames_in_one_write_get_two_answers() {
    let (addr, server) = spawn_server(ServerConfig::default());

    // A pipelining peer: both requests reach the daemon's socket buffer
    // in one segment. Reading the first frame must leave the second in
    // the transport — a reader that pulls whatever is there and keeps
    // one frame answers once and lets the second read time out.
    let mut s = TcpStream::connect(addr).expect("connect raw");
    s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let ping = encode_frame(PROTOCOL_VERSION, &encode_request(&Request::Ping)).expect("encode");
    s.write_all(&[ping.clone(), ping].concat())
        .expect("send both");
    for nth in ["first", "second"] {
        let frame = read_frame(&mut s, 1 << 20)
            .unwrap_or_else(|e| panic!("{nth} reply: {e}"))
            .expect("frame");
        let resp = numa_server::protocol::decode_response(&frame.payload).expect("decode");
        assert_eq!(resp, Response::Pong, "{nth} reply");
    }
    drop(s);

    let mut c = Client::connect(addr).expect("connect");
    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

#[test]
fn request_level_errors_keep_the_connection_usable() {
    let (addr, server) = spawn_server(ServerConfig::default());
    let mut c = Client::connect(addr).expect("connect");

    // Set-level query on an empty store: typed error, connection lives.
    match c.aggregate() {
        Err(ClientError::Server(WireError::EmptyStore)) => {}
        other => panic!("expected EmptyStore, got {other:?}"),
    }
    // Unknown profile reference: typed error, connection lives.
    match c.report("nope", ReportFormat::Text) {
        Err(ClientError::Server(WireError::UnknownProfile { .. })) => {}
        other => panic!("expected UnknownProfile, got {other:?}"),
    }
    // Unparsable profile payload: typed error, connection lives.
    match c.ingest_binary("bad", b"{\"broken\": true".to_vec()) {
        Err(ClientError::Server(WireError::ProfileParse { .. })) => {}
        other => panic!("expected ProfileParse, got {other:?}"),
    }
    // Same connection still serves good requests.
    c.ingest_profile("ok", &profile(1)).expect("ingest");
    assert!(c
        .aggregate()
        .expect("aggregate")
        .contains("cross-run aggregate: 1 run(s)"));

    // A label shared by two distinct profiles: resolving it is a typed
    // ambiguity listing both candidates, and a full id still works.
    let (id_a, _) = c.ingest_profile("dup", &profile(2)).expect("ingest dup");
    let (id_b, _) = c.ingest_profile("dup", &profile(3)).expect("ingest dup");
    match c.resolve("dup") {
        Err(ClientError::Server(WireError::AmbiguousReference {
            reference,
            candidates,
        })) => {
            assert_eq!(reference, "dup");
            assert_eq!(candidates.len(), 2);
            assert!(candidates.iter().any(|cand| cand.contains(&id_a)));
            assert!(candidates.iter().any(|cand| cand.contains(&id_b)));
        }
        other => panic!("expected AmbiguousReference, got {other:?}"),
    }
    let (resolved, label) = c.resolve(&id_a).expect("resolve by full id");
    assert_eq!(resolved, id_a);
    assert_eq!(label, "dup");

    let stats = c.server_stats().expect("stats");
    assert!(stats.errors_total >= 4, "{stats:?}");

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

#[test]
fn idle_connections_time_out_without_killing_the_daemon() {
    let (addr, server) = spawn_server(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });

    // Open a connection and send nothing; the daemon drops it after
    // the read timeout and counts it.
    let idle = TcpStream::connect(addr).expect("connect idle");
    std::thread::sleep(Duration::from_millis(400));

    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("alive after idle drop");
    let stats = c.server_stats().expect("stats");
    assert!(stats.timeouts >= 1, "{stats:?}");
    drop(idle);

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}
