//! Streaming robustness against the real binaries: a SIGKILLed
//! streaming *client* must be lease-reaped with no partial state left
//! behind, and a SIGKILLed *daemon* must recover sealed streams from
//! the WAL while an unsealed one — which lived only in its memory — is
//! gone.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{parse_exposition, Client};
use numa_sim::Program;
use numa_store::codec::encode_profile;
use numa_store::ProfileStore;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A small profile; `rounds` varies the content hash. Sampling is
/// interval-randomized, so tests build each profile once and reuse it.
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
    let mut p = Program::new(machine, 4, profiler.clone());
    let size = 1u64 << 18;
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

struct Daemon {
    child: Child,
    addr: String,
}

/// Launch the real `hpcd-sim` binary on an ephemeral port with extra
/// flags, scraping the bound address from its stdout banner.
fn spawn_daemon(extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"))
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hpcd-sim");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen banner");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .to_string();
    assert!(line.contains("listening on"), "unexpected banner: {line:?}");
    Daemon { child, addr }
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("numa-live-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn sigkilled_streaming_client_is_reaped_without_partial_state() {
    let dir = scratch("client-kill");
    let run = profile(1);
    let profile_path = dir.join("run.hpcrun");
    std::fs::write(&profile_path, encode_profile(&run)).expect("write profile");

    // Short lease so the janitor notices the dead client quickly.
    let daemon = spawn_daemon(&["--session-lease-ms", "300"]);
    let mut c = Client::connect(&daemon.addr as &str).expect("connect observer");

    // The real hpcd-client streams with a pause between chunks —
    // 1 thread per chunk = 5 chunks, 200 ms apart — giving a wide
    // window in which the process dies mid-session.
    let mut streamer = Command::new(env!("CARGO_BIN_EXE_hpcd-client"))
        .args([
            "--addr",
            &daemon.addr,
            "--cmd",
            "stream",
            "--file",
            profile_path.to_str().unwrap(),
            "--label",
            "doomed",
            "--chunk-threads",
            "1",
            "--chunk-delay-ms",
            "200",
            "--connect-retry-ms",
            "5000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn streaming client");

    // Once the daemon has acked its first chunk the session is open and
    // holds data; SIGKILL then: no abort, no seal, the TCP connection
    // just dies.
    wait_for_stats(&mut c, "the streamer's first chunk", |s| {
        s["numa_live_chunks_appended_total"] >= 1
    });
    streamer.kill().expect("SIGKILL streaming client");
    streamer.wait().expect("reap client");

    let stats = wait_for_stats(&mut c, "the lease reap", |s| {
        s["numa_live_sessions_reaped_total"] >= 1
    });
    assert_eq!(stats["numa_live_sessions_reaped_total"], 1, "{stats:?}");
    assert_eq!(stats["numa_live_open_sessions"], 0, "{stats:?}");
    assert_eq!(stats["numa_live_open_bytes"], 0, "{stats:?}");

    // Nothing was half-ingested, and the same profile still streams
    // cleanly end to end afterwards.
    assert!(c.list().expect("list").is_empty());
    let (_, added, _) = c
        .stream_profile("recovered", &run, 2)
        .expect("stream after reap");
    assert!(added);
    assert_eq!(c.list().expect("list").len(), 1);

    c.shutdown().expect("shutdown");
    let mut child = daemon.child;
    child.wait().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_daemon_recovers_sealed_streams_and_drops_unsealed() {
    let dir = scratch("daemon-kill");
    let data_dir = dir.join("db");
    let sealed = profile(1);
    let unsealed = profile(2);

    // Oracle: only the sealed profile, ingested one-shot.
    let oracle = ProfileStore::new();
    oracle.ingest_profile("sealed", sealed.clone()).unwrap();
    let oracle_ids: Vec<String> = oracle.ids().iter().map(|id| id.to_string()).collect();
    let oracle_aggregate = oracle.aggregate().unwrap().text();

    let daemon = spawn_daemon(&["--data-dir", data_dir.to_str().unwrap()]);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("connect");
        // Session A: streamed to completion — sealed and acknowledged.
        let (_, added, _) = c.stream_profile("sealed", &sealed, 2).expect("stream");
        assert!(added);
        // Session B: chunks appended and acknowledged (buffered in the
        // daemon's memory) but never sealed.
        let chunks = numa_store::stream::split_profile(&unsealed, 2);
        let info = c.open_session("unsealed").expect("open");
        for (seq, chunk) in chunks.iter().enumerate() {
            c.append_chunk_binary(info.session, seq as u64, chunk.to_binary())
                .expect("append");
        }
    }

    // SIGKILL mid-stream: no seal for session B, no flush, no drain.
    let mut child = daemon.child;
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");

    // Restart on the same --data-dir: the sealed stream's profile
    // replays from the one record its seal logged; the unsealed one
    // never reached the disk.
    let daemon = spawn_daemon(&["--data-dir", data_dir.to_str().unwrap()]);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("reconnect");
        let stats = scrape(&mut c);
        assert!(stats["numa_store_wal_bytes"] > 0, "durable: {stats:?}");
        assert_eq!(stats["numa_store_profiles"], 1, "{stats:?}");
        let ids: Vec<String> = c.list().expect("list").into_iter().map(|e| e.id).collect();
        assert_eq!(ids, oracle_ids);
        assert_eq!(
            (
                stats["numa_store_snapshot_records_loaded"],
                stats["numa_store_wal_records_replayed"]
            ),
            (0, 1),
            "{stats:?}"
        );
        assert_eq!(stats["numa_store_truncated_bytes"], 0, "{stats:?}");
        assert_eq!(c.aggregate().expect("aggregate"), oracle_aggregate);

        // The streamed profile is byte-identical to one-shot ingest:
        // re-ingesting the same profile deduplicates...
        let (_, added) = c
            .ingest_profile("sealed-again", &sealed)
            .expect("re-ingest");
        assert!(!added, "recovered streamed profile must dedup");
        // ...while the unsealed one really is gone: ingesting it adds.
        let (_, added) = c.ingest_profile("unsealed", &unsealed).expect("ingest");
        assert!(added, "unsealed session must have been dropped");

        c.shutdown().expect("shutdown");
    }
    let mut child = daemon.child;
    child.wait().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
