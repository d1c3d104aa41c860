//! `hpcd-client` without a daemon: with `--dir` / `--data-dir` the real
//! binary runs its verbs on a store opened in its own process. It must
//! print exactly what it prints when the same verbs go to `hpcd-sim`
//! over the wire, and on a data directory it must see exactly what a
//! SIGKILLed daemon had acknowledged and leave a compacted snapshot.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::Client;
use numa_sim::Program;
use numa_store::codec::encode_profile;
use numa_store::snapshot::snapshot_path;
use numa_store::wal::{wal_path, FILE_HEADER_LEN};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
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

/// Launch the real `hpcd-sim` on an ephemeral port over `flag DIR`
/// (`--dir` or `--data-dir`), scraping the address from its banner.
fn spawn_daemon(flag: &str, dir: &str) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"))
        .args(["--listen", "127.0.0.1:0", flag, dir])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hpcd-sim");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen banner");
    assert!(line.contains("listening on"), "unexpected banner: {line:?}");
    let addr = line.trim().rsplit(' ').next().unwrap().to_string();
    Daemon { child, addr }
}

/// Run the real `hpcd-client` against `target` (`--addr A`, `--dir D`
/// or `--data-dir D`) and return its stdout; it must exit 0.
fn client(target: [&str; 2], rest: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hpcd-client"))
        .args(target)
        .args(rest)
        .output()
        .expect("run hpcd-client");
    assert!(
        out.status.success(),
        "hpcd-client {target:?} {rest:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("numa-local-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn local_and_remote_verbs_print_identical_stdout() {
    let dir = scratch("verbs");
    for r in 1..=3 {
        std::fs::write(
            dir.join(format!("run-{r}.hpcrun")),
            encode_profile(&profile(r)),
        )
        .unwrap();
    }
    let dir = dir.to_str().unwrap();
    let mut daemon = spawn_daemon("--dir", dir);

    // `stats` goes first: it prints cache counters, which every later
    // query moves on the long-lived daemon but not on the one-shot
    // local store.
    let verbs: &[&[&str]] = &[
        &["--cmd", "stats"],
        &["--cmd", "list"],
        &["--cmd", "resolve", "--profile", "run-2.hpcrun"],
        &["--cmd", "aggregate"],
        &["--cmd", "top", "--n", "3"],
        &["--cmd", "report", "--profile", "run-1.hpcrun"],
        &[
            "--cmd",
            "report",
            "--profile",
            "run-1.hpcrun",
            "--format",
            "json",
        ],
        &["--cmd", "view", "--profile", "run-3.hpcrun", "--var", "z"],
        &["--cmd", "cct", "--profile", "run-3.hpcrun"],
        &[
            "--cmd",
            "diff",
            "--before",
            "run-1.hpcrun",
            "--after",
            "run-3.hpcrun",
        ],
    ];
    for verb in verbs {
        let remote = client(["--addr", &daemon.addr], verb);
        let local = client(["--dir", dir], verb);
        assert!(!local.is_empty(), "{verb:?} printed nothing");
        assert_eq!(local, remote, "{verb:?} differs between --dir and --addr");
    }
    assert!(client(["--dir", dir], &["--cmd", "aggregate"]).contains("3 run(s)"));

    // Typed errors take the same path too: same message, same exit code.
    let bad = |target: [&str; 2]| {
        Command::new(env!("CARGO_BIN_EXE_hpcd-client"))
            .args(target)
            .args(["--cmd", "report", "--profile", "nope"])
            .output()
            .expect("run hpcd-client")
    };
    let (remote, local) = (bad(["--addr", &daemon.addr]), bad(["--dir", dir]));
    assert_eq!(local.status.code(), Some(2));
    assert_eq!(remote.status.code(), Some(2));
    let first_line = |out: &std::process::Output| {
        let stderr = String::from_utf8_lossy(&out.stderr);
        stderr
            .lines()
            .find(|l| l.starts_with("error: "))
            .map(str::to_string)
    };
    assert_eq!(
        first_line(&local).expect("typed error"),
        "error: server error: \"nope\" matches no stored profile"
    );
    assert_eq!(first_line(&local), first_line(&remote));

    client(["--addr", &daemon.addr], &["--cmd", "shutdown"]);
    assert!(daemon.child.wait().expect("clean exit").success());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn local_data_dir_sees_what_a_killed_daemon_acked_and_compacts_it() {
    let data_dir = scratch("data-dir").join("db");
    let dir = data_dir.to_str().unwrap();

    // A daemon acks three ingests, answers `list`, and is SIGKILLed: no
    // shutdown, no flush — the corpus exists only as WAL records.
    let mut daemon = spawn_daemon("--data-dir", dir);
    {
        let mut c = Client::connect(&daemon.addr as &str).expect("connect");
        for r in 1..=3 {
            let (_, added) = c
                .ingest_profile(&format!("run-{r}"), &profile(r))
                .expect("ingest");
            assert!(added);
        }
    }
    let acked = client(["--addr", &daemon.addr], &["--cmd", "list"]);
    assert_eq!(acked.lines().count(), 3);
    daemon.child.kill().expect("SIGKILL");
    daemon.child.wait().expect("reap");
    assert!(std::fs::metadata(wal_path(&data_dir)).unwrap().len() > FILE_HEADER_LEN);

    // The local client replays that WAL and lists exactly the acked set...
    assert_eq!(client(["--data-dir", dir], &["--cmd", "list"]), acked);
    // ...and its exit flush compacted the store: a snapshot, an empty WAL,
    // and a next open that is a pure snapshot load.
    assert!(snapshot_path(&data_dir).exists());
    assert_eq!(
        std::fs::metadata(wal_path(&data_dir)).unwrap().len(),
        FILE_HEADER_LEN
    );
    let stats = client(["--data-dir", dir], &["--cmd", "stats"]);
    assert!(
        stats.contains("persistence: recovered 3 snapshot + 0 wal record(s)"),
        "{stats}"
    );
    // (A snapshot holds the corpus in id order, so compare as sets.)
    let sorted = |text: &str| {
        let mut rows: Vec<String> = text.lines().map(str::to_string).collect();
        rows.sort();
        rows
    };
    assert_eq!(
        sorted(&client(["--data-dir", dir], &["--cmd", "list"])),
        sorted(&acked)
    );

    std::fs::remove_dir_all(data_dir.parent().unwrap()).ok();
}
