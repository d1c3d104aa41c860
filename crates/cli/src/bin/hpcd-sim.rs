//! `hpcd-sim`: the profile-ingestion & query daemon. Holds one
//! [`ProfileStore`] in memory and serves it over TCP to any number of
//! `hpcd-client` (or library) connections. With `--data-dir` the store
//! is durable: every acknowledged ingest is in a write-ahead log before
//! the response goes out, the log is periodically compacted into a
//! snapshot, and a restart (even after SIGKILL) replays the corpus.
//!
//! ```text
//! hpcd-sim --listen 127.0.0.1:7701                # empty in-memory store
//! hpcd-sim --listen 127.0.0.1:7701 --dir runs/    # preload a corpus
//! hpcd-sim --listen 127.0.0.1:7701 --data-dir db/ # durable store (WAL + snapshot)
//! hpcd-sim --listen 127.0.0.1:0                   # ephemeral port (printed)
//! ```
//!
//! The daemon runs until a client sends the `shutdown` op (see
//! `hpcd-client --cmd shutdown`), then drains in-flight requests,
//! flushes the store (final snapshot compaction) and exits 0, printing
//! its final metric exposition (the `metrics` op's text) to stderr.

use numa_server::{LiveConfig, Server, ServerConfig};
use numa_store::{PersistOptions, ProfileStore, StoreConfig};
use numa_tools::{die, open_store, Args};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: hpcd-sim [--listen ADDR]          (default 127.0.0.1:7701; port 0 = ephemeral)
                [--dir PROFILES_DIR]     (preload every profile file in DIR)
                [--data-dir DIR]         (durable store: WAL + snapshot crash recovery)
                [--snapshot-wal-kib N]   (compact once the WAL exceeds N KiB; default 4096)
                [--fsync-wal on|off]     (fsync every WAL append; default off)
                [--workers N]            (requests executing at once; default 4)
                [--max-frame-kib N]      (frame payload cap; default 4096)
                [--read-timeout-ms N]    (per-connection; default 10000)
                [--write-timeout-ms N]   (per-connection; default 10000)
                [--cache-capacity N]     (memoized artifacts; default 256)
                [--shards N]             (store shard count, rounded to a power of two; default 8)
                [--session-lease-ms N]   (streaming-session lease; default 30000)
                [--session-max-kib N]    (per-session buffer cap in KiB; default 65536)
                [--max-sessions N]       (concurrent streaming sessions; default 64)
                [--metrics-addr ADDR]    (serve GET /metrics as Prometheus text; port 0 = ephemeral)
                [--slow-op-ms N]         (log requests slower than N ms; default 500)
                [--fault-spec SPEC]      (testing: inject storage faults into the durable
                                          store, e.g. enospc=4096 or sync=2,truncate=1;
                                          see numa-faults::FaultSpec::parse)";

fn main() {
    let args = Args::parse().unwrap_or_else(|e| die(USAGE, &e));
    args.check_known(&[
        "listen",
        "dir",
        "data-dir",
        "snapshot-wal-kib",
        "fsync-wal",
        "workers",
        "max-frame-kib",
        "read-timeout-ms",
        "write-timeout-ms",
        "cache-capacity",
        "shards",
        "session-lease-ms",
        "session-max-kib",
        "max-sessions",
        "metrics-addr",
        "slow-op-ms",
        "fault-spec",
    ])
    .unwrap_or_else(|e| die(USAGE, &e));

    let listen = args.get_or("listen", "127.0.0.1:7701");
    let store_config = StoreConfig {
        cache_capacity: args
            .get_parsed("cache-capacity", 256)
            .unwrap_or_else(|e| die(USAGE, &e)),
        shards: args
            .get_parsed("shards", ProfileStore::DEFAULT_SHARDS)
            .unwrap_or_else(|e| die(USAGE, &e)),
    };
    let config = ServerConfig {
        workers: args
            .get_parsed("workers", 4)
            .unwrap_or_else(|e| die(USAGE, &e)),
        max_frame: args
            .get_parsed::<usize>("max-frame-kib", 4096)
            .unwrap_or_else(|e| die(USAGE, &e))
            .saturating_mul(1024),
        read_timeout: Duration::from_millis(
            args.get_parsed("read-timeout-ms", 10_000)
                .unwrap_or_else(|e| die(USAGE, &e)),
        ),
        write_timeout: Duration::from_millis(
            args.get_parsed("write-timeout-ms", 10_000)
                .unwrap_or_else(|e| die(USAGE, &e)),
        ),
        metrics_addr: args.get("metrics-addr").map(|a| a.to_string()),
        slow_op_threshold: Duration::from_millis(
            args.get_parsed("slow-op-ms", 500)
                .unwrap_or_else(|e| die(USAGE, &e)),
        ),
        live: {
            let lease_ms: u64 = args
                .get_parsed("session-lease-ms", 30_000)
                .unwrap_or_else(|e| die(USAGE, &e));
            let max_session_bytes = args
                .get_parsed::<usize>("session-max-kib", 64 * 1024)
                .unwrap_or_else(|e| die(USAGE, &e))
                .saturating_mul(1024);
            LiveConfig {
                lease: Duration::from_millis(lease_ms.max(1)),
                max_session_bytes,
                max_sessions: args
                    .get_parsed("max-sessions", 64)
                    .unwrap_or_else(|e| die(USAGE, &e)),
                // Short leases (tests, demos) deserve a janitor that
                // actually notices them expiring.
                janitor_period: Duration::from_millis((lease_ms / 4).clamp(10, 250)),
                ..LiveConfig::default()
            }
        },
    };

    let durable = match args.get("data-dir") {
        None => {
            if args.get("fault-spec").is_some() {
                die(
                    USAGE,
                    "--fault-spec requires --data-dir (it faults the durable store)",
                );
            }
            None
        }
        Some(dir) => {
            let opts = PersistOptions {
                snapshot_wal_bytes: args
                    .get_parsed::<u64>("snapshot-wal-kib", 4096)
                    .unwrap_or_else(|e| die(USAGE, &e))
                    .saturating_mul(1024),
                fsync: match args.get_or("fsync-wal", "off") {
                    "on" => true,
                    "off" => false,
                    other => die(USAGE, &format!("--fsync-wal must be on|off, got {other:?}")),
                },
            };
            // Testing hook: run the whole durability stack over an
            // injecting storage layer. The daemon must answer faulted
            // ingests with a typed error and keep serving reads.
            let storage: Arc<dyn numa_faults::Storage> = match args.get("fault-spec") {
                None => Arc::new(numa_faults::StdStorage),
                Some(spec) => {
                    let spec = numa_faults::FaultSpec::parse(spec)
                        .unwrap_or_else(|e| die(USAGE, &format!("bad --fault-spec: {e}")));
                    eprintln!("hpcd-sim: fault injection active: {spec:?}");
                    Arc::new(numa_faults::FaultyStorage::new(spec))
                }
            };
            Some((dir, opts, storage))
        }
    };
    let store = open_store("hpcd-sim", store_config, durable, args.get("dir"))
        .unwrap_or_else(|e| die(USAGE, &e));

    let server = Server::bind(listen, config, Arc::clone(&store))
        .unwrap_or_else(|e| die(USAGE, &format!("cannot bind {listen}: {e}")));
    // The bound address goes to stdout so scripts can scrape the
    // ephemeral port from `--listen 127.0.0.1:0`.
    println!("hpcd-sim: listening on {}", server.local_addr());
    // Same stdout contract for the scrape endpoint's ephemeral port.
    if let Some(addr) = server.metrics_addr() {
        println!("hpcd-sim: metrics on {addr}");
    }
    eprintln!("hpcd-sim: serving (send the shutdown op to stop)");

    match server.run() {
        Ok(exposition) => {
            // Final compaction: a clean shutdown leaves a snapshot and
            // an empty WAL, so the next startup is a pure snapshot load.
            if let Err(e) = store.flush() {
                eprintln!("hpcd-sim: final flush failed: {e}");
            }
            eprint!("hpcd-sim: drained and stopped\n{exposition}");
        }
        Err(e) => die(USAGE, &format!("serve loop failed: {e}")),
    }
}
