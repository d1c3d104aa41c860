//! Network- and storage-fault e2e tests: the daemon must survive
//! clients that disconnect mid-frame, stall mid-frame, or deliver
//! truncated bytes, and a daemon whose disk fills up must answer
//! ingests with a typed `NotDurable` error while continuing to serve
//! reads from the data it already acknowledged.

use numa_faults::{FaultSpec, FaultyStorage};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::protocol::{encode_frame, encode_request, Request, PROTOCOL_VERSION};
use numa_server::{Client, ClientError, ReportFormat, Server, ServerConfig, WireError};
use numa_sim::Program;
use numa_store::{PersistOptions, ProfileId, ProfileStore, StoreConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// A small deterministic profile; `rounds` varies the content hash.
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 8));
    let mut p = Program::new(machine, 4, profiler.clone());
    let size = 1u64 << 20;
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("z", size, PlacementPolicy::FirstTouch);
        ctx.store_range(base, size / 64, 64);
    });
    for _ in 0..rounds {
        p.parallel("compute._omp", |tid, ctx| {
            let chunk = size / 4;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
    }
    finish_profile(p, profiler)
}

fn spawn_server_with_store(
    config: ServerConfig,
    store: Arc<ProfileStore>,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<numa_server::ServerStatsReport>>,
) {
    let server = Server::bind("127.0.0.1:0", config, store).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn spawn_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<numa_server::ServerStatsReport>>,
) {
    spawn_server_with_store(config, Arc::new(ProfileStore::new()))
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "numa-server-faults-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn mid_frame_disconnects_leave_the_daemon_serving() {
    let (addr, server) = spawn_server(ServerConfig::default());

    // A well-formed frame, cut at every interesting byte offset: inside
    // the header, exactly after the header, and mid-payload. The peer
    // vanishes without warning each time.
    let frame = encode_frame(PROTOCOL_VERSION, &encode_request(&Request::Ping)).expect("encode");
    for cut in [1, 3, frame.len() / 2, frame.len() - 1] {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.write_all(&frame[..cut]).expect("send truncated prefix");
        drop(s); // RST/FIN mid-frame
    }

    // The daemon shrugged all of that off and still answers.
    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("alive after mid-frame disconnects");
    c.ingest_profile("after", &profile(1)).expect("ingest");
    assert_eq!(c.list().expect("list").len(), 1);

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

#[test]
fn stalled_mid_frame_reads_time_out_and_are_counted() {
    let (addr, server) = spawn_server(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });

    // Send half a frame, then stall: the daemon must not wait forever
    // for the rest. It drops the connection after the read timeout and
    // counts it, without taking a worker hostage.
    let frame = encode_frame(PROTOCOL_VERSION, &encode_request(&Request::Ping)).expect("encode");
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    stalled
        .write_all(&frame[..frame.len() / 2])
        .expect("send half frame");
    std::thread::sleep(Duration::from_millis(400));

    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("alive after stalled peer");
    let stats = c.server_stats().expect("stats");
    assert!(stats.timeouts >= 1, "{stats:?}");
    drop(stalled);

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

#[test]
fn byte_level_truncation_gets_a_typed_error_or_a_clean_drop() {
    let (addr, server) = spawn_server(ServerConfig::default());

    // A frame whose header promises more payload than the peer ever
    // delivers, followed by a clean close. Whatever the daemon answers
    // (typed malformed error or silent drop), it must keep serving.
    let full = encode_frame(PROTOCOL_VERSION, &encode_request(&Request::Ping)).expect("encode");
    {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.write_all(&full[..full.len() - 3])
            .expect("send truncated");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut rest = Vec::new();
        let _ = std::io::Read::read_to_end(&mut s, &mut rest); // reply or EOF, both fine
    }
    // Garbage that cannot even parse as a header.
    {
        let mut s = TcpStream::connect(addr).expect("connect raw");
        s.write_all(b"\x00\x01").expect("send stub header");
        drop(s);
    }

    let mut c = Client::connect(addr).expect("connect");
    c.ping().expect("alive after truncated frames");

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
}

#[test]
fn full_disk_daemon_answers_ingest_with_not_durable_and_keeps_serving_reads() {
    let dir = scratch("enospc");

    // Budget the fake disk so exactly one profile fits: file header,
    // first record, and a little slack for the group commit.
    let first = profile(1);
    let (ProfileId(hash), canonical) = ProfileId::of(&first);
    let record = numa_store::wal::encode_bin_record("one", &canonical, hash);
    let budget = numa_store::wal::FILE_HEADER_LEN + record.len() as u64 + 16;

    let storage = Arc::new(FaultyStorage::new(FaultSpec {
        enospc_after: Some(budget),
        ..FaultSpec::default()
    }));
    let store = ProfileStore::open_durable_config_with(
        &dir,
        StoreConfig {
            cache_capacity: 16,
            ..StoreConfig::default()
        },
        PersistOptions {
            snapshot_wal_bytes: u64::MAX, // no background compaction
            fsync: false,
        },
        storage,
    )
    .expect("open durable store over faulty storage");
    let (addr, server) = spawn_server_with_store(ServerConfig::default(), Arc::new(store));

    let mut c = Client::connect(addr).expect("connect");

    // The first ingest fits on disk and is acked.
    let (id_one, added) = c.ingest_profile("one", &first).expect("ingest one");
    assert!(added);

    // The second hits ENOSPC. The client sees a typed durability error,
    // not a dropped connection and not a silent ack.
    match c.ingest_profile("two", &profile(2)) {
        Err(ClientError::Server(WireError::NotDurable { detail })) => {
            assert!(
                detail.contains("no space left"),
                "detail should carry the storage error: {detail}"
            );
        }
        other => panic!("expected NotDurable, got {other:?}"),
    }

    // Reads still work on the same connection, and the acked profile is
    // fully served; the failed one is absent everywhere.
    let entries = c.list().expect("list");
    assert_eq!(entries.len(), 1);
    let (resolved, label) = c.resolve("one").expect("resolve acked profile");
    assert_eq!(resolved, id_one);
    assert_eq!(label, "one");
    assert!(c
        .aggregate()
        .expect("aggregate")
        .contains("cross-run aggregate: 1 run(s)"));
    assert!(!c
        .report("one", ReportFormat::Text)
        .expect("report")
        .is_empty());
    match c.resolve("two") {
        Err(ClientError::Server(WireError::UnknownProfile { .. })) => {}
        other => panic!("failed ingest must not be resolvable, got {other:?}"),
    }

    // A fresh connection sees the same picture: the daemon did not wedge.
    let mut c2 = Client::connect(addr).expect("reconnect");
    assert_eq!(c2.list().expect("list").len(), 1);

    c.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");

    // After the daemon exits, a clean-storage reopen recovers exactly
    // the acked profile: the ENOSPC'd one never reached the log.
    let recovered = ProfileStore::open_durable(
        &dir,
        16,
        PersistOptions {
            snapshot_wal_bytes: u64::MAX,
            fsync: false,
        },
    )
    .expect("reopen");
    assert_eq!(recovered.len(), 1);
    assert!(recovered.resolve("one").is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_disk_streaming_session_fails_typed_and_daemon_survives() {
    let dir = scratch("enospc-stream");

    // Nothing fits: every write past the WAL header hits the budget.
    let storage = Arc::new(FaultyStorage::new(FaultSpec {
        enospc_after: Some(numa_store::wal::FILE_HEADER_LEN),
        ..FaultSpec::default()
    }));
    let store = ProfileStore::open_durable_config_with(
        &dir,
        StoreConfig::default(),
        PersistOptions {
            snapshot_wal_bytes: u64::MAX,
            fsync: false,
        },
        storage,
    )
    .expect("open durable store over faulty storage");
    let (addr, server) = spawn_server_with_store(ServerConfig::default(), Arc::new(store));

    let mut c = Client::connect(addr).expect("connect");
    let chunks = numa_store::stream::split_profile(&profile(3), 2);
    let session = c.open_session("streamed").expect("open session");

    // Chunk appends are buffered in memory and never see the disk; the
    // seal is the ingest, and with a full disk it must fail typed rather
    // than ack a profile the log never saw.
    for (seq, chunk) in chunks.iter().enumerate() {
        c.append_chunk_binary(session.session, seq as u64, chunk.to_binary())
            .expect("an append does no I/O");
    }
    match c.seal_session(session.session) {
        Err(ClientError::Server(WireError::NotDurable { .. })) => {}
        other => panic!("expected NotDurable on seal, got {other:?}"),
    }

    // The daemon survives and the store holds nothing.
    let mut c2 = Client::connect(addr).expect("reconnect");
    c2.ping().expect("alive");
    match c2.list() {
        Ok(entries) => assert!(entries.is_empty(), "{entries:?}"),
        Err(ClientError::Server(WireError::EmptyStore)) => {}
        other => panic!("unexpected list result: {other:?}"),
    }

    c2.shutdown().expect("shutdown");
    server.join().expect("join").expect("run ok");
    let _ = std::fs::remove_dir_all(&dir);
}
