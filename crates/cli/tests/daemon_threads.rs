//! The daemon's threads are its fixed helpers plus one per open
//! connection, and nothing else: no request — an index build, a cold
//! cross-run aggregate, a report — starts a thread of its own. The real
//! `hpcd-sim` serves a preloaded `--data-dir` while `CLIENTS` connections
//! race cold queries, and a sampler reads the daemon's `Threads:` line
//! from `/proc/PID/status` throughout.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_server::{Client, ReportFormat};
use numa_sim::Program;
use numa_store::{PersistOptions, ProfileStore};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const PROFILES: usize = 32;
const CLIENTS: usize = 4;
const ROUNDS: usize = 12;

/// A small four-thread profile; `rounds` varies its content id.
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
    let mut p = Program::new(machine, 4, profiler.clone());
    let size = 1u64 << 16;
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

/// The `Threads:` count of process `pid`.
fn threads(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// Launch `hpcd-sim` over `data_dir` and return it with its address.
fn spawn_daemon(data_dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpcd-sim"))
        .args(["--listen", "127.0.0.1:0", "--workers", &CLIENTS.to_string()])
        .arg("--data-dir")
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn hpcd-sim");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read listen banner");
    assert!(line.contains("listening on"), "unexpected banner: {line:?}");
    let addr = line.trim().rsplit(' ').next().expect("address").to_string();
    (child, addr)
}

#[test]
fn cold_queries_start_no_threads_beyond_one_per_connection() {
    let data_dir = std::env::temp_dir().join(format!("numa-daemon-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();
    let labels: Vec<String> = (1..=PROFILES).map(|r| format!("run-{r}")).collect();
    {
        let store = ProfileStore::open_durable(&data_dir, 64, PersistOptions::default())
            .expect("open data dir");
        for (r, label) in (1..=PROFILES).zip(&labels) {
            let (_, added) = store.ingest_profile(label, profile(r)).expect("preload");
            assert!(added, "{label} is distinct");
        }
    }

    let (mut daemon, addr) = spawn_daemon(&data_dir);
    // Every helper thread is started before the banner is printed.
    let pid = daemon.id();
    let idle = threads(pid);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(&addr as &str).expect("connect"))
        .collect();
    for c in &mut clients {
        c.ping().expect("ping");
    }

    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (done, peak) = (Arc::clone(&done), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(threads(pid), Ordering::Relaxed);
            }
        })
    };
    let start = Arc::new(Barrier::new(CLIENTS));
    let labels = Arc::new(labels);
    let racers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(k, mut c)| {
            let (start, labels) = (Arc::clone(&start), Arc::clone(&labels));
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    if k == 0 {
                        c.clear_cache().expect("clear-cache");
                    }
                    start.wait();
                    c.aggregate().expect("aggregate");
                    let label = &labels[(round * CLIENTS + k) % labels.len()];
                    c.report(label, ReportFormat::Text).expect("report");
                    start.wait();
                }
                c
            })
        })
        .collect();
    let mut clients: Vec<Client> = racers
        .into_iter()
        .map(|r| r.join().expect("client thread"))
        .collect();
    done.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler");
    let peak = peak.load(Ordering::Relaxed);

    clients[0].shutdown().expect("shutdown");
    drop(clients);
    daemon.wait().expect("daemon exits");
    std::fs::remove_dir_all(&data_dir).ok();
    assert!(
        peak <= idle + CLIENTS,
        "daemon peaked at {peak} threads: {idle} idle + {CLIENTS} connections allowed"
    );
}
