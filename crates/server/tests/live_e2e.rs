//! End-to-end streaming-session tests over loopback TCP: a streamed
//! profile must land byte-identically with one-shot ingestion, every
//! failure must be a typed wire error that keeps the connection usable,
//! capability gating must downgrade gracefully, and the janitor must
//! reap sessions whose client died.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::protocol::{
    caps, decode_response, encode_frame_flags, encode_request, encode_response, read_frame,
    Request, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use numa_server::{
    parse_exposition, Backend, Client, ClientError, LiveConfig, Server, ServerConfig, WireError,
};
use numa_sim::Program;
use numa_store::stream::ChunkPayload;
use numa_store::ProfileStore;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::{mpsc, Arc};
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

fn spawn_server(
    config: ServerConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<String>>) {
    let store = Arc::new(ProfileStore::new());
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// The daemon's series, read through the `metrics` op.
fn scrape(c: &mut Client) -> BTreeMap<String, i128> {
    parse_exposition(&c.metrics().expect("metrics")).expect("exposition parses")
}

/// Scrape until `done` holds. Every probe is a blocking round trip to
/// the daemon, so the loop needs no pause of its own.
fn wait_for_stats(
    c: &mut Client,
    what: &str,
    done: impl Fn(&BTreeMap<String, i128>) -> bool,
) -> BTreeMap<String, i128> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = scrape(c);
        if done(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "{what} never happened: {stats:?}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn streamed_profiles_match_oneshot_over_tcp() {
    let (addr, server) = spawn_server(ServerConfig::default());
    let mut c = Client::connect(addr).expect("connect");
    check_streamed_profiles_match_oneshot(&mut c);
    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

/// The same verbs against the same `Backend` without a socket: the
/// in-process transport answers exactly what the daemon does.
#[test]
fn streamed_profiles_match_oneshot_in_process() {
    let backend = Backend::new(Arc::new(ProfileStore::new()), &ServerConfig::default());
    let mut c = Client::in_process(backend);
    assert_eq!(c.ping().expect("ping"), caps::SUPPORTED);
    check_streamed_profiles_match_oneshot(&mut c);
}

fn check_streamed_profiles_match_oneshot(c: &mut Client) {
    let streamed = profile(1);
    let oneshot = profile(2);

    // Oracle: both profiles ingested whole into a bare store.
    let oracle = ProfileStore::new();
    let (oracle_id, _) = oracle.ingest_profile("streamed", streamed.clone()).unwrap();
    oracle.ingest_profile("oneshot", oneshot.clone()).unwrap();

    // One profile streamed in 3-thread chunks, one ingested one-shot.
    let (id, added, chunks) = c
        .stream_profile("streamed", &streamed, 3)
        .expect("stream profile");
    assert!(added);
    assert!(chunks >= 2, "8 threads at 3/chunk is at least header + 3");
    assert_eq!(id, oracle_id.to_string());
    c.ingest_profile("oneshot", &oneshot)
        .expect("one-shot ingest");

    // The daemon's aggregate equals the oracle's: a streamed profile is
    // indistinguishable from a one-shot one.
    assert_eq!(
        c.aggregate().expect("aggregate"),
        oracle.aggregate().unwrap().text()
    );

    // Re-streaming identical content deduplicates.
    let (id2, added2, _) = c
        .stream_profile("streamed-again", &streamed, 2)
        .expect("re-stream");
    assert!(!added2, "identical content must dedup");
    assert_eq!(id2, id);

    let stats = scrape(c);
    assert_eq!(stats["numa_live_open_sessions"], 0);
    assert_eq!(stats["numa_live_open_bytes"], 0);
    assert_eq!(stats["numa_live_sessions_opened_total"], 2);
    assert_eq!(stats["numa_live_sessions_sealed_total"], 2);
    assert_eq!(
        stats["numa_live_chunks_appended_total"],
        i128::from(chunks + 5)
    );
    assert_eq!(stats["numa_store_profiles"], 2);
}

#[test]
fn streaming_errors_are_typed_and_keep_the_connection() {
    let (addr, server) = spawn_server(ServerConfig {
        live: LiveConfig {
            max_chunk_bytes: 256,
            ..LiveConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");

    let empty = ChunkPayload::Threads(Vec::new()).to_binary();

    // Append to a session that never existed.
    match c.append_chunk_binary(0xbeef, 0, empty.clone()) {
        Err(ClientError::Server(WireError::UnknownSession { session: 0xbeef })) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    let info = c.open_session("run").expect("open");
    assert_eq!(info.max_chunk_bytes, 256);

    // Out-of-order chunk.
    match c.append_chunk_binary(info.session, 5, empty.clone()) {
        Err(ClientError::Server(WireError::BadChunkSequence {
            got: 5,
            expected: 0,
            ..
        })) => {}
        other => panic!("expected BadChunkSequence, got {other:?}"),
    }

    // Oversized chunk.
    match c.append_chunk_binary(info.session, 0, vec![0; 300]) {
        Err(ClientError::Server(WireError::ChunkTooLarge { max: 256, .. })) => {}
        other => panic!("expected ChunkTooLarge, got {other:?}"),
    }

    // Unparsable chunk payload.
    match c.append_chunk_binary(info.session, 0, b"not a chunk".to_vec()) {
        Err(ClientError::Server(WireError::ChunkParse { seq: 0, .. })) => {}
        other => panic!("expected ChunkParse, got {other:?}"),
    }

    // Sealing a header-less chunk set fails atomically and discards the
    // session.
    c.append_chunk_binary(info.session, 0, empty)
        .expect("valid empty chunk");
    match c.seal_session(info.session) {
        Err(ClientError::Server(WireError::SessionIncomplete { .. })) => {}
        other => panic!("expected SessionIncomplete, got {other:?}"),
    }
    match c.abort_session(info.session) {
        Err(ClientError::Server(WireError::UnknownSession { .. })) => {}
        other => panic!("expected UnknownSession after failed seal, got {other:?}"),
    }

    // Every error above was request-level: the same connection still
    // serves, and nothing was half-ingested.
    c.ping().expect("connection survives typed errors");
    assert!(c.list().expect("list").is_empty());
    let stats = scrape(&mut c);
    assert_eq!(stats["numa_live_open_sessions"], 0);
    assert_eq!(stats["numa_live_sessions_aborted_total"], 1);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn capability_bits_gate_streaming_and_keep_connections_alive() {
    let (addr, server) = spawn_server(ServerConfig::default());

    // ping reports the daemon's capability set.
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.ping().expect("ping"), caps::SUPPORTED);
    assert_eq!(c.server_caps(), Some(caps::SUPPORTED));

    // Raw exchange: a frame with an unknown capability bit — the
    // retired bit 1 included — draws a typed Unsupported, and the SAME
    // connection then serves a valid ping.
    let mut s = TcpStream::connect(addr).expect("raw connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ping = encode_request(&Request::Ping);
    for unknown in [0x8000, 1 << 1] {
        s.write_all(&encode_frame_flags(PROTOCOL_VERSION, unknown, &ping).unwrap())
            .unwrap();
        let frame = read_frame(&mut s, DEFAULT_MAX_FRAME)
            .expect("readable")
            .expect("answered");
        match decode_response(&frame.payload) {
            Ok(Response::Error(WireError::Unsupported { feature, supported })) => {
                assert_eq!((feature, supported), (unknown, caps::SUPPORTED))
            }
            other => panic!("expected Unsupported for {unknown:#x}, got {other:?}"),
        }
    }
    s.write_all(&encode_frame_flags(PROTOCOL_VERSION, 0, &ping).unwrap())
        .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME)
        .expect("readable")
        .expect("still served");
    assert_eq!(frame.flags, caps::SUPPORTED, "responses advertise caps");
    match decode_response(&frame.payload) {
        Ok(Response::Pong) => {}
        other => panic!("expected Pong after capability error, got {other:?}"),
    }

    // A streaming op whose frame does not declare STREAMING gets a
    // typed refusal naming the missing bit.
    let open = encode_request(&Request::OpenSession {
        label: "old-client".to_string(),
    });
    s.write_all(&encode_frame_flags(PROTOCOL_VERSION, 0, &open).unwrap())
        .unwrap();
    let frame = read_frame(&mut s, DEFAULT_MAX_FRAME)
        .expect("readable")
        .expect("answered");
    match decode_response(&frame.payload) {
        Ok(Response::Error(WireError::Unsupported { feature, .. })) => {
            assert_eq!(feature, caps::STREAMING)
        }
        other => panic!("expected Unsupported{{STREAMING}}, got {other:?}"),
    }

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn ingest_and_stream_over_tcp_match_the_in_process_store() {
    let (addr, server) = spawn_server(ServerConfig::default());
    let mut c = Client::connect(addr).expect("connect");

    let p1 = profile(1);
    let p2 = profile(2);
    let oracle = ProfileStore::new();
    let (id1, _) = oracle.ingest_profile("bin", p1.clone()).unwrap();
    let (id2, _) = oracle.ingest_profile("streamed", p2.clone()).unwrap();

    // Ingest travels as codec bytes, yet the stored identity is the
    // in-process oracle's: content ids are transport-independent.
    let (id, added) = c.ingest_profile("bin", &p1).expect("binary ingest");
    assert!(added);
    assert_eq!(id, id1.to_string());

    // A streamed profile rides binary chunks, and still matches what
    // one-shot ingestion would have stored.
    let (sid, added, chunks) = c.stream_profile("streamed", &p2, 3).expect("binary stream");
    assert!(added);
    assert!(chunks >= 2, "header plus thread batches");
    assert_eq!(sid, id2.to_string());
    assert_eq!(
        c.aggregate().expect("aggregate"),
        oracle.aggregate().unwrap().text()
    );

    // Garbage codec bytes are a request-level parse error, not a dead
    // connection.
    match c.ingest_binary("junk", vec![0xAB, 0xCD, 0xEF]) {
        Err(ClientError::Server(WireError::ProfileParse { label, .. })) => {
            assert_eq!(label, "junk")
        }
        other => panic!("expected ProfileParse, got {other:?}"),
    }
    assert_eq!(c.list().expect("list").len(), 2);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn dead_clients_are_reaped_and_nothing_is_half_ingested() {
    let (addr, server) = spawn_server(ServerConfig {
        live: LiveConfig {
            lease: Duration::from_millis(200),
            janitor_period: Duration::from_millis(25),
            ..LiveConfig::default()
        },
        ..ServerConfig::default()
    });

    // A client opens a session, streams part of a profile, then "dies"
    // (drops the connection without sealing or aborting).
    let streamed = profile(1);
    {
        let mut dying = Client::connect(addr).expect("connect dying client");
        let info = dying.open_session("doomed").expect("open");
        let chunks = numa_store::stream::split_profile(&streamed, 2);
        dying
            .append_chunk_binary(info.session, 0, chunks[0].to_binary())
            .expect("first chunk");
        dying
            .append_chunk_binary(info.session, 1, chunks[1].to_binary())
            .expect("second chunk");
    } // connection dropped mid-session

    // The janitor reaps the expired lease.
    let mut c = Client::connect(addr).expect("connect observer");
    let stats = wait_for_stats(&mut c, "the dead client's lease reap", |s| {
        s["numa_live_sessions_reaped_total"] >= 1
    });
    assert_eq!(stats["numa_live_sessions_reaped_total"], 1);
    assert_eq!(stats["numa_live_open_sessions"], 0);
    assert_eq!(stats["numa_live_open_bytes"], 0);

    // The partial stream left nothing behind; a complete stream of the
    // same profile afterwards ingests cleanly (no stale session state).
    assert!(c.list().expect("list").is_empty());
    let (_, added, _) = c
        .stream_profile("recovered", &streamed, 2)
        .expect("full stream after reap");
    assert!(added);
    assert_eq!(c.list().expect("list").len(), 1);

    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

#[test]
fn connect_retry_waits_for_a_slow_daemon() {
    // Nothing listening: a short deadline returns the connect error
    // instead of spinning forever.
    let start = Instant::now();
    let err = Client::connect_retry(
        "127.0.0.1:1",
        Duration::from_millis(300),
        Duration::from_secs(5),
    );
    assert!(err.is_err(), "no listener must yield an error");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline must bound the retry loop"
    );

    // A daemon that binds late: connect_retry bridges the gap that
    // tests used to cover with ad-hoc ping-poll loops.
    let (addr, server) = spawn_server(ServerConfig::default());
    let mut c = Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(5))
        .expect("retry connect");
    assert_eq!(c.ping().expect("ping"), caps::SUPPORTED);
    c.shutdown().expect("shutdown");
    server.join().unwrap().expect("server run");
}

/// The per-op timeout handed to `connect_retry` governs the
/// connection's reads: it used to be overwritten with a fixed 5 s.
#[test]
fn connect_retry_honours_the_per_op_timeout() {
    // A peer that accepts, reads each request, and answers only once
    // released.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (release, released) = mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let mut conns: Vec<TcpStream> = (0..2)
            .map(|_| listener.accept().expect("accept").0)
            .collect();
        for s in &mut conns {
            read_frame(s, DEFAULT_MAX_FRAME)
                .expect("readable")
                .expect("a request");
        }
        released.recv().expect("released");
        let pong = encode_frame_flags(
            PROTOCOL_VERSION,
            caps::SUPPORTED,
            &encode_response(&Response::Pong),
        )
        .unwrap();
        for s in &mut conns {
            let _ = s.write_all(&pong); // the impatient client is gone
        }
    });

    // A patient client's ping stays in flight...
    let patient = std::thread::spawn(move || {
        Client::connect_retry(addr, Duration::from_secs(5), Duration::from_secs(30))
            .expect("patient connect")
            .ping()
    });
    // ...while one with a 200 ms op timeout gives up on the silent peer
    // after 200 ms, not 5 s.
    let mut hasty = Client::connect_retry(addr, Duration::from_secs(5), Duration::from_millis(200))
        .expect("hasty connect");
    let start = Instant::now();
    match hasty.ping() {
        Err(ClientError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected a read timeout, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "a 200 ms op timeout took {:?}",
        start.elapsed()
    );

    // That timeout is the event that releases the answer the patient
    // client was still waiting for.
    release.send(()).expect("release");
    assert_eq!(
        patient.join().expect("patient thread").expect("ping"),
        caps::SUPPORTED
    );
    peer.join().expect("peer thread");
}
