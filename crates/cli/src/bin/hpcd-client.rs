//! `hpcd-client`: remote front end for the `hpcd-sim` daemon. Every
//! `hpcstore-sim` verb, served over the wire instead of in-process,
//! plus daemon administration (`ping`, `server-stats`, `clear-cache`,
//! `shutdown`).
//!
//! ```text
//! hpcd-client --addr 127.0.0.1:7701 --cmd ping
//! hpcd-client --addr 127.0.0.1:7701 --cmd ingest --file run.json
//! hpcd-client --addr 127.0.0.1:7701 --cmd stream --file run.json --chunk-threads 2
//! hpcd-client --addr 127.0.0.1:7701 --cmd list
//! hpcd-client --addr 127.0.0.1:7701 --cmd aggregate
//! hpcd-client --addr 127.0.0.1:7701 --cmd top --n 5
//! hpcd-client --addr 127.0.0.1:7701 --cmd report --profile run.json --format json
//! hpcd-client --addr 127.0.0.1:7701 --cmd view --profile 1a2b --var m_matrix
//! hpcd-client --addr 127.0.0.1:7701 --cmd cct --profile run.json
//! hpcd-client --addr 127.0.0.1:7701 --cmd diff --before base.json --after tuned.json
//! hpcd-client --addr 127.0.0.1:7701 --cmd server-stats
//! hpcd-client --addr 127.0.0.1:7701 --cmd shutdown
//! ```

use numa_profiler::NumaProfile;
use numa_server::{caps, Client, ClientError, ReportFormat};
use numa_tools::{die, Args};
use std::time::Duration;

const USAGE: &str = "\
usage: hpcd-client --addr HOST:PORT --cmd ping|ingest|stream|list|resolve|aggregate|top|report|view|cct|diff|stats|server-stats|metrics|clear-cache|shutdown
                   [--file FILE]          (ingest/stream: profile JSON to send)
                   [--label NAME]         (ingest/stream: label; default = file name)
                   [--chunk-threads N]    (stream: threads per chunk; default 2)
                   [--chunk-delay-ms N]   (stream: pause between chunks; default 0)
                   [--n N]                (top: how many variables; default 5)
                   [--profile REF]        (report/view/cct/resolve: id prefix or label)
                   [--var NAME]           (view: variable source name)
                   [--min-permille N]     (cct: elide subtrees below N/1000; default 5)
                   [--before REF --after REF]  (diff)
                   [--format text|json]   (report; default text)
                   [--timeout-ms N]       (socket timeout; default 10000)
                   [--connect-retry-ms N] (retry connecting for up to N ms; default 0 = one attempt)
                   [--out FILE]";

fn main() {
    let args = Args::parse().unwrap_or_else(|e| die(USAGE, &e));
    args.check_known(&[
        "addr",
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

    let addr = args
        .get("addr")
        .unwrap_or_else(|| die(USAGE, "--addr is required"));
    let timeout_ms: u64 = args
        .get_parsed("timeout-ms", 10_000)
        .unwrap_or_else(|e| die(USAGE, &e));
    let retry_ms: u64 = args
        .get_parsed("connect-retry-ms", 0)
        .unwrap_or_else(|e| die(USAGE, &e));
    let mut client = if retry_ms > 0 {
        Client::connect_retry(addr, Duration::from_millis(retry_ms))
    } else {
        Client::connect_with_timeout(addr, Duration::from_millis(timeout_ms))
    }
    .unwrap_or_else(|e| die(USAGE, &format!("cannot connect to {addr}: {e}")));

    let require = |key: &str| -> &str {
        args.get(key)
            .unwrap_or_else(|| die(USAGE, &format!("--{key} is required for this command")))
    };

    let output = match args.get_or("cmd", "ping") {
        "ping" => {
            let server_caps = run(client.ping());
            format!(
                "hpcd-client: {addr} is alive, capabilities {}\n",
                caps::render(server_caps)
            )
        }
        "stream" => {
            let file = require("file");
            let json = std::fs::read_to_string(file)
                .unwrap_or_else(|e| die(USAGE, &format!("cannot read {file}: {e}")));
            let profile = NumaProfile::from_json(&json)
                .unwrap_or_else(|e| die(USAGE, &format!("cannot parse {file}: {e}")));
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
            let json = std::fs::read_to_string(file)
                .unwrap_or_else(|e| die(USAGE, &format!("cannot read {file}: {e}")));
            let label = args.get("label").unwrap_or(file);
            // Parse locally so the profile can travel as codec bytes
            // when the daemon advertises the binary capability (JSON
            // fallback otherwise) — the stored identity is the same
            // either way.
            let profile = NumaProfile::from_json(&json)
                .unwrap_or_else(|e| die(USAGE, &format!("cannot parse {file}: {e}")));
            let (id, added) = run(client.ingest_profile(label, &profile));
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
                    e.json_bytes / 1024
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
        "stats" => run(client.store_stats()),
        "server-stats" => run(client.server_stats()).render(),
        "metrics" => run(client.metrics()),
        "clear-cache" => {
            run(client.clear_cache());
            "hpcd-client: cache cleared\n".to_string()
        }
        "shutdown" => {
            run(client.shutdown());
            format!("hpcd-client: {addr} is shutting down\n")
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
}

fn run<T>(result: Result<T, ClientError>) -> T {
    result.unwrap_or_else(|e| die(USAGE, &e.to_string()))
}
