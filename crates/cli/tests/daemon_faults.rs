//! Full-disk test against the real `hpcd-sim` binary: run the daemon
//! with `--fault-spec enospc=N` so the fake disk fills after one
//! profile, and require a typed durability error for the overflowing
//! ingest while reads keep being served. A restart on the same
//! `--data-dir` without faults recovers exactly the acked profile.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{Client, ClientError, WireError};
use numa_sim::Program;
use numa_store::wal::FILE_HEADER_LEN;
use numa_store::ProfileId;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;

/// A small profile; `rounds` varies the content hash.
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

/// Launch `hpcd-sim` on an ephemeral port, scraping the bound address
/// from the stdout banner. `extra` appends flags (e.g. --fault-spec).
fn spawn_daemon(data_dir: &Path, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"));
    cmd.args([
        "--listen",
        "127.0.0.1:0",
        "--data-dir",
        data_dir.to_str().unwrap(),
    ]);
    cmd.args(extra);
    let mut child = cmd
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
    let dir = std::env::temp_dir().join(format!("numa-daemon-faults-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn enospc_daemon_fails_ingest_typed_and_serves_reads_until_restart() {
    let data_dir = scratch("enospc");

    // Size the fake disk so exactly the first profile fits: WAL file
    // header, one encoded record, and a little group-commit slack.
    let first = profile(1);
    let (ProfileId(hash), canonical) = ProfileId::of(&first);
    let record = numa_store::wal::encode_bin_record("one", &canonical, hash);
    let budget = FILE_HEADER_LEN + record.len() as u64 + 16;

    let mut daemon = spawn_daemon(&data_dir, &["--fault-spec", &format!("enospc={budget}")]);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("connect");

        // First ingest fits and is acked durably.
        let (_, added) = c.ingest_profile("one", &first).expect("ingest one");
        assert!(added);

        // Second ingest overflows the budget: typed error, no silent ack.
        match c.ingest_profile("two", &profile(2)) {
            Err(ClientError::Server(WireError::NotDurable { detail })) => {
                assert!(
                    detail.contains("no space left"),
                    "detail should carry the storage error: {detail}"
                );
            }
            other => panic!("expected NotDurable, got {other:?}"),
        }

        // The daemon keeps serving reads on the same connection.
        assert_eq!(c.list().expect("list").len(), 1);
        let (_, label) = c.resolve("one").expect("resolve acked profile");
        assert_eq!(label, "one");
        assert!(c
            .aggregate()
            .expect("aggregate")
            .contains("cross-run aggregate: 1 run(s)"));
        let stats = c.server_stats().expect("stats");
        assert!(stats.durable);
        assert_eq!(stats.store_profiles, 1);
    }
    // Operator gives up on the sick disk: SIGKILL, restart clean.
    daemon.child.kill().expect("kill daemon");
    daemon.child.wait().expect("reap daemon");

    let mut daemon = spawn_daemon(&data_dir, &[]);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("reconnect");
        // Exactly the acked profile survived; the ENOSPC'd one never
        // reached the log, so it is cleanly absent.
        assert_eq!(c.list().expect("list").len(), 1);
        let (_, label) = c.resolve("one").expect("resolve after restart");
        assert_eq!(label, "one");
        assert!(matches!(
            c.resolve("two"),
            Err(ClientError::Server(WireError::UnknownProfile { .. }))
        ));
        // And the healthy daemon accepts ingests again.
        let (_, added) = c.ingest_profile("two", &profile(2)).expect("ingest two");
        assert!(added);
        c.shutdown().expect("shutdown");
    }
    assert!(daemon.child.wait().expect("wait daemon").success());
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn fault_spec_without_data_dir_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"))
        .args(["--listen", "127.0.0.1:0", "--fault-spec", "enospc=1024"])
        .output()
        .expect("run hpcd-sim");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fault-spec requires --data-dir"),
        "{stderr}"
    );
}

#[test]
fn bad_fault_spec_is_rejected_with_usage() {
    let data_dir = scratch("badspec");
    std::fs::create_dir_all(&data_dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--fault-spec",
            "frobnicate=9",
        ])
        .output()
        .expect("run hpcd-sim");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --fault-spec"), "{stderr}");
    std::fs::remove_dir_all(&data_dir).ok();
}
