//! Fault-injection test against the real `hpcd-sim` binary: ingest over
//! TCP, SIGKILL the daemon mid-flight, restart it on the same
//! `--data-dir`, and require the recovered corpus (content set hash and
//! cached-aggregate output) to match an uninterrupted in-process oracle.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::Client;
use numa_sim::Program;
use numa_store::wal::{wal_path, FILE_HEADER_LEN};
use numa_store::ProfileStore;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;

/// A small profile; `rounds` varies the content hash. The profiler's
/// sampling intervals are randomized, so each profile is built once and
/// the same one goes to both the daemon and the oracle.
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

/// Launch the real `hpcd-sim` binary on an ephemeral port bound to
/// `data_dir`, scraping the bound address from its stdout banner.
fn spawn_daemon(data_dir: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ])
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("numa-daemon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn sigkilled_daemon_recovers_acknowledged_ingests() {
    let data_dir = scratch("sigkill");

    // The corpus, built once. The oracle never crashes.
    let corpus: Vec<(String, NumaProfile)> =
        (1..=3).map(|r| (format!("run-{r}"), profile(r))).collect();
    let oracle = ProfileStore::new();
    for (label, p) in &corpus {
        oracle
            .ingest_profile(label, p.clone())
            .expect("oracle ingest");
    }
    let oracle_hash = format!("{:016x}", oracle.set_hash());
    let oracle_aggregate = oracle.aggregate().expect("oracle aggregate").text();

    // Round 1: ingest everything, then SIGKILL — no shutdown, no flush.
    let mut daemon = spawn_daemon(&data_dir);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("connect");
        for (label, p) in &corpus {
            let (_, added) = c.ingest_profile(label, p).expect("ingest");
            assert!(added);
        }
        let stats = c.server_stats().expect("server stats");
        assert!(stats.durable);
        assert_eq!(stats.store_profiles, 3);
        assert_eq!(stats.store_set_hash, oracle_hash);
        assert_eq!(stats.wal_appends, 3);
        assert_eq!(c.aggregate().expect("aggregate"), oracle_aggregate);
    }
    daemon.child.kill().expect("SIGKILL");
    daemon.child.wait().expect("reap");

    // Simulate a torn append: garbage after the last acknowledged record.
    let garbage = [0x5Au8; 13];
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(wal_path(&data_dir))
            .expect("open wal");
        f.write_all(&garbage).expect("append garbage");
    }

    // Round 2: a restart on the same --data-dir must recover exactly the
    // acknowledged corpus, drop the torn tail, and answer queries with
    // byte-identical text.
    let mut daemon = spawn_daemon(&data_dir);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("reconnect");
        let stats = c.server_stats().expect("server stats");
        assert!(stats.durable);
        assert_eq!(stats.store_profiles, 3);
        assert_eq!(stats.store_set_hash, oracle_hash);
        assert_eq!(stats.wal_records_replayed, 3);
        assert_eq!(stats.snapshot_records_loaded, 0);
        assert_eq!(stats.wal_truncated_bytes, garbage.len() as u64);
        assert_eq!(c.aggregate().expect("aggregate"), oracle_aggregate);
        assert_eq!(c.list().expect("list").len(), 3);
        // Clean shutdown this time: drains, flushes, compacts.
        c.shutdown().expect("shutdown");
    }
    let status = daemon.child.wait().expect("clean exit");
    assert!(status.success());

    // The clean shutdown compacted the WAL into a snapshot: round 3
    // starts from the snapshot alone, corpus still identical.
    let wal_len = std::fs::metadata(wal_path(&data_dir))
        .expect("wal meta")
        .len();
    assert_eq!(wal_len, FILE_HEADER_LEN);
    let mut daemon = spawn_daemon(&data_dir);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("reconnect");
        let stats = c.server_stats().expect("server stats");
        assert_eq!(stats.store_profiles, 3);
        assert_eq!(stats.store_set_hash, oracle_hash);
        assert_eq!(stats.snapshot_records_loaded, 3);
        assert_eq!(stats.wal_records_replayed, 0);
        assert_eq!(c.aggregate().expect("aggregate"), oracle_aggregate);
        c.shutdown().expect("shutdown");
    }
    daemon.child.wait().expect("clean exit");

    std::fs::remove_dir_all(&data_dir).ok();
}

/// Kill-during-group-commit: several clients ingest concurrently (their
/// appends share group commits on the persister thread), the daemon is
/// SIGKILLed the moment enough acks are in, and a restart must hold
/// every profile whose ingest was acknowledged — the ack ⇒
/// flushed-to-the-OS contract, under the batched commit path.
#[test]
fn sigkill_during_group_commit_keeps_every_acknowledged_ingest() {
    let data_dir = scratch("group-commit");
    const CLIENTS: usize = 4;

    let corpus: Vec<(String, NumaProfile)> = (1..=CLIENTS)
        .map(|r| (format!("run-{r}"), profile(r)))
        .collect();

    let daemon = spawn_daemon(&data_dir);
    // Each client ingests one profile on its own connection, all in
    // flight at once so the persister sees a multi-record batch.
    let acked: Vec<(String, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = corpus
            .iter()
            .map(|(label, p)| {
                let addr = &daemon.addr;
                s.spawn(move || {
                    let mut c = Client::connect(addr as &str).expect("connect");
                    let (id, added) = c.ingest_profile(label, p).expect("ingest");
                    assert!(added);
                    (id, label.clone())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    assert_eq!(acked.len(), CLIENTS);

    // SIGKILL immediately — no shutdown, no flush, no drain.
    let mut child = daemon.child;
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Restart: every acknowledged id must resolve.
    let mut daemon = spawn_daemon(&data_dir);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("reconnect");
        let stats = c.server_stats().expect("server stats");
        assert_eq!(stats.store_profiles, CLIENTS, "{stats:?}");
        assert_eq!(
            stats.snapshot_records_loaded + stats.wal_records_replayed,
            CLIENTS as u64,
            "{stats:?}"
        );
        for (id, label) in &acked {
            let (rid, rlabel) = c.resolve(id).expect("acked ingest survives the kill");
            assert_eq!(&rid, id);
            assert_eq!(&rlabel, label);
        }
        c.shutdown().expect("shutdown");
    }
    daemon.child.wait().expect("clean exit");

    std::fs::remove_dir_all(&data_dir).ok();
}
