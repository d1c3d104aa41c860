//! `hpcd-client`: the front end to the multi-profile store's verbs.
//! With `--addr` they run on an `hpcd-sim` daemon over the wire; with
//! `--dir` (profiles to load) or `--data-dir` (a durable store, flushed
//! on exit) they run on a store opened in this process — same verbs,
//! same output, no daemon.
//!
//! ```text
//! hpcd-client --dir runs/ --cmd aggregate
//! hpcd-client --dir runs/ --cmd diff --before base.hpcrun --after tuned.hpcrun
//! hpcd-client --data-dir db/ --cmd list
//! hpcd-client --addr 127.0.0.1:7701 --cmd ping
//! hpcd-client --addr 127.0.0.1:7701 --cmd ingest --file run.hpcrun
//! hpcd-client --addr 127.0.0.1:7701 --cmd stream --file run.hpcrun --chunk-threads 2
//! hpcd-client --addr 127.0.0.1:7701 --cmd list
//! hpcd-client --addr 127.0.0.1:7701 --cmd aggregate
//! hpcd-client --addr 127.0.0.1:7701 --cmd top --n 5
//! hpcd-client --addr 127.0.0.1:7701 --cmd report --profile run.hpcrun --format json
//! hpcd-client --addr 127.0.0.1:7701 --cmd view --profile 1a2b --var m_matrix
//! hpcd-client --addr 127.0.0.1:7701 --cmd cct --profile run.hpcrun
//! hpcd-client --addr 127.0.0.1:7701 --cmd diff --before base.hpcrun --after tuned.hpcrun
//! hpcd-client --addr 127.0.0.1:7701 --cmd metrics
//! hpcd-client --addr 127.0.0.1:7701 --cmd shutdown
//! ```

use numa_server::{caps, Backend, Client, ClientError, ReportFormat, ServerConfig};
use numa_store::{PersistOptions, StoreConfig};
use numa_tools::{die, fail, open_store, read_profile, Args};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: hpcd-client (--addr HOST:PORT | --dir PROFILES_DIR | --data-dir DIR)
                   --cmd ping|ingest|stream|list|resolve|aggregate|top|report|view|cct|diff|metrics|clear-cache|shutdown
                   (--addr: on an hpcd-sim daemon; --dir: in-process over every profile
                    file in PROFILES_DIR; --data-dir: in-process over the durable store at
                    DIR, flushed on exit, optionally loading --dir into it first)
                   [--file FILE]          (ingest/stream: profile file to send)
                   [--label NAME]         (ingest/stream: label; default = file name)
                   [--chunk-threads N]    (stream: threads per chunk; default 2)
                   [--chunk-delay-ms N]   (stream: pause between chunks; default 0)
                   [--n N]                (top: how many variables; default 5)
                   [--profile REF]        (report/view/cct/resolve: id prefix or label)
                   [--var NAME]           (view: variable source name)
                   [--min-permille N]     (cct: elide subtrees below N/1000; default 5)
                   [--before REF --after REF]  (diff)
                   [--format text|json]   (report; default text)
                   [--timeout-ms N]       (--addr: socket timeout; default 10000)
                   [--connect-retry-ms N] (--addr: retry connecting for up to N ms; default 0 = one attempt)
                   [--out FILE]";

fn main() {
    let args = Args::parse(USAGE);
    args.check_known(&[
        "addr",
        "dir",
        "data-dir",
        "cmd",
        "file",
        "label",
        "chunk-threads",
        "chunk-delay-ms",
        "n",
        "profile",
        "var",
        "min-permille",
        "before",
        "after",
        "format",
        "timeout-ms",
        "connect-retry-ms",
        "out",
    ])
    .unwrap_or_else(|e| die(USAGE, &e));

    let local = args.get("dir").or(args.get("data-dir"));
    // `store` is the in-process store, kept for the exit flush.
    let (target, mut client, store) = match (args.get("addr"), local) {
        (Some(addr), None) => {
            let timeout = Duration::from_millis(
                args.get_parsed("timeout-ms", 10_000)
                    .unwrap_or_else(|e| die(USAGE, &e)),
            );
            let retry_ms: u64 = args
                .get_parsed("connect-retry-ms", 0)
                .unwrap_or_else(|e| die(USAGE, &e));
            let client = if retry_ms > 0 {
                Client::connect_retry(addr, Duration::from_millis(retry_ms), timeout)
            } else {
                Client::connect_with_timeout(addr, timeout)
            }
            .unwrap_or_else(|e| fail("hpcd-client", &format!("cannot connect to {addr}: {e}")));
            (addr, client, None)
        }
        (None, Some(target)) => {
            let durable = args.get("data-dir").map(|dir| {
                let storage: Arc<dyn numa_faults::Storage> = Arc::new(numa_faults::StdStorage);
                (dir, PersistOptions::default(), storage)
            });
            let store = open_store(
                "hpcd-client",
                StoreConfig::default(),
                durable,
                args.get("dir"),
            )
            .unwrap_or_else(|e| die(USAGE, &e));
            let backend = Backend::new(Arc::clone(&store), &ServerConfig::default());
            (target, Client::in_process(backend), Some(store))
        }
        _ => die(
            USAGE,
            "give either --addr or --dir / --data-dir (one is required)",
        ),
    };

    let require = |key: &str| -> &str {
        args.get(key)
            .unwrap_or_else(|| die(USAGE, &format!("--{key} is required for this command")))
    };

    let output = match args.get_or("cmd", "ping") {
        "ping" => {
            let server_caps = run(client.ping());
            format!(
                "hpcd-client: {target} is alive, capabilities {}\n",
                caps::render(server_caps)
            )
        }
        "stream" => {
            let file = require("file");
            let profile = read_profile(file).unwrap_or_else(|e| fail("hpcd-client", &e));
            let label = args.get("label").unwrap_or(file);
            let per: usize = args
                .get_parsed("chunk-threads", 2)
                .unwrap_or_else(|e| die(USAGE, &e));
            let delay_ms: u64 = args
                .get_parsed("chunk-delay-ms", 0)
                .unwrap_or_else(|e| die(USAGE, &e));
            let pause = Duration::from_millis(delay_ms);
            let (id, added, chunks) =
                run(client.stream_profile_paced(label, &profile, per, |seq| {
                    if seq > 0 && !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }));
            format!(
                "{id}  {label} ({}, {chunks} chunk(s) streamed)\n",
                if added { "added" } else { "deduplicated" }
            )
        }
        "ingest" => {
            let file = require("file");
            // The file is a codec container: it travels as read, and the
            // store decodes, canonicalizes and hashes it.
            let bytes = std::fs::read(file)
                .unwrap_or_else(|e| fail("hpcd-client", &format!("cannot read {file}: {e}")));
            let label = args.get("label").unwrap_or(file);
            let (id, added) = run(client.ingest_binary(label, bytes));
            format!(
                "{id}  {label} ({})\n",
                if added { "added" } else { "deduplicated" }
            )
        }
        "list" => {
            let mut out = String::new();
            for e in run(client.list()) {
                out.push_str(&format!(
                    "{}  {:<32} {} thread(s), {} KiB\n",
                    e.id,
                    e.label,
                    e.threads,
                    e.codec_bytes / 1024
                ));
            }
            out
        }
        "resolve" => {
            let (id, label) = run(client.resolve(require("profile")));
            format!("{id}  {label}\n")
        }
        "aggregate" => run(client.aggregate()),
        "top" => {
            let n: usize = args.get_parsed("n", 5).unwrap_or_else(|e| die(USAGE, &e));
            run(client.top(n))
        }
        "report" => {
            let format = match args.get_or("format", "text") {
                "text" => ReportFormat::Text,
                "json" => ReportFormat::Json,
                other => die(USAGE, &format!("unknown format {other:?}")),
            };
            run(client.report(require("profile"), format))
        }
        "view" => {
            let profile = require("profile");
            let var = require("var");
            run(client.address_view(profile, var))
        }
        "cct" => {
            let permille: u16 = args
                .get_parsed("min-permille", 5)
                .unwrap_or_else(|e| die(USAGE, &e));
            run(client.code_view(require("profile"), permille))
        }
        "diff" => {
            let before = require("before");
            let after = require("after");
            run(client.diff(before, after))
        }
        "metrics" => run(client.metrics()),
        "clear-cache" => {
            run(client.clear_cache());
            "hpcd-client: cache cleared\n".to_string()
        }
        "shutdown" => {
            run(client.shutdown());
            format!("hpcd-client: {target} is shutting down\n")
        }
        other => die(USAGE, &format!("unknown command {other:?}")),
    };

    match args.get("out") {
        None => print!("{output}"),
        Some(path) => {
            std::fs::write(path, output).unwrap_or_else(|e| die(USAGE, &e.to_string()));
            eprintln!("hpcd-client: wrote {path}");
        }
    }

    // A durable in-process run leaves a compacted snapshot behind so
    // the next open is a pure snapshot load with an empty WAL.
    if let Some(store) = store.filter(|s| s.is_durable()) {
        store
            .flush()
            .unwrap_or_else(|e| die(USAGE, &format!("final flush failed: {e}")));
    }
}

fn run<T>(result: Result<T, ClientError>) -> T {
    result.unwrap_or_else(|e| die(USAGE, &e.to_string()))
}
