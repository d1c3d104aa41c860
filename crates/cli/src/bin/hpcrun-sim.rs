//! `hpcrun-sim`: run a bundled workload under the NUMA profiler and write
//! the measurement profile — the simulated analogue of HPCToolkit's
//! `hpcrun`. The file is the profile's canonical `numa-codec` container,
//! the bytes the store hashes and logs, so its FNV-1a hash is the id any
//! store assigns it.
//!
//! ```text
//! hpcrun-sim --workload lulesh --variant baseline --machine amd \
//!            --mechanism ibs --threads 48 --out lulesh.hpcrun
//! hpcrun-sim --workload lulesh --stream 127.0.0.1:7701 --chunk-threads 4
//! ```
//!
//! With `--stream ADDR` the measurement is delivered to a running
//! `hpcd-sim` daemon over a streaming ingestion session (per-thread
//! chunks, sealed at the end) instead of being written to a file; add
//! `--out` explicitly to do both — the file is written first, so a
//! failed stream does not lose the measurement.

use numa_profiler::ProfilerConfig;
use numa_sampling::MechanismConfig;
use numa_server::Client;
use numa_sim::ExecMode;
use numa_store::codec::encode_profile;
use numa_tools::{die, fail, parse_machine, parse_mechanism, parse_workload, Args};
use numa_workloads::run_profiled;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: hpcrun-sim [--workload lulesh|amg2006|blackscholes|umt2013]
                  [--variant baseline|...]   (per-workload; default baseline)
                  [--machine amd|power7|harpertown|itanium2|ivybridge]
                  [--mechanism ibs|mrk|pebs|dear|pebs-ll|soft-ibs]
                  [--threads N]              (default: all hardware threads)
                  [--size small|medium|large] (default medium)
                  [--scale N]                (period scale factor, default 64)
                  [--bins N]                 (address-centric bins, default 5)
                  [--trace CYCLES]           (record a time series, 1 point/CYCLES)
                  [--stream HOST:PORT]       (stream the profile to a hpcd-sim daemon)
                  [--chunk-threads N]        (stream: threads per chunk; default 4)
                  [--label NAME]             (stream: label; default workload-variant)
                  [--connect-retry-ms N]     (stream: retry connecting up to N ms; default 5000)
                  [--out FILE]               (default profile.hpcrun; skipped when streaming
                                              unless given explicitly)";

fn main() {
    let args = Args::parse(USAGE);
    args.check_known(&[
        "workload",
        "variant",
        "machine",
        "mechanism",
        "threads",
        "size",
        "scale",
        "bins",
        "trace",
        "stream",
        "chunk-threads",
        "label",
        "connect-retry-ms",
        "out",
    ])
    .unwrap_or_else(|e| die(USAGE, &e));

    let machine = parse_machine(args.get_or("machine", "amd")).unwrap_or_else(|e| die(USAGE, &e));
    let mechanism =
        parse_mechanism(args.get_or("mechanism", "ibs")).unwrap_or_else(|e| die(USAGE, &e));
    let workload = parse_workload(
        args.get_or("workload", "lulesh"),
        args.get_or("variant", "baseline"),
        args.get_or("size", "medium"),
    )
    .unwrap_or_else(|e| die(USAGE, &e));
    let default_threads = machine.topology().total_cpus();
    let threads: usize = args
        .get_parsed("threads", default_threads)
        .unwrap_or_else(|e| die(USAGE, &e));
    let scale: u64 = args
        .get_parsed("scale", 64)
        .unwrap_or_else(|e| die(USAGE, &e));
    let bins: u16 = args
        .get_parsed("bins", 5)
        .unwrap_or_else(|e| die(USAGE, &e));
    // The library asserts these ranges; a flag value outside them is a
    // usage error, not a panic.
    if threads == 0 || threads > default_threads {
        die(
            USAGE,
            &format!("--threads must be between 1 and {default_threads} on this machine"),
        );
    }
    if scale == 0 {
        die(USAGE, "--scale must be at least 1");
    }
    if bins == 0 {
        die(USAGE, "--bins must be at least 1");
    }
    let stream_addr = args.get("stream").map(str::to_string);
    let explicit_out = args.get("out").map(str::to_string);
    let per: usize = args
        .get_parsed("chunk-threads", 4)
        .unwrap_or_else(|e| die(USAGE, &e));
    let retry_ms: u64 = args
        .get_parsed("connect-retry-ms", 5_000)
        .unwrap_or_else(|e| die(USAGE, &e));

    let mut config = ProfilerConfig::new(MechanismConfig::scaled(mechanism, scale))
        .with_bins(bins)
        .with_env_bins();
    if let Some(trace) = args.get("trace") {
        let cycles: u64 = trace
            .parse()
            .map_err(|_| format!("--trace: cannot parse {trace:?}"))
            .unwrap_or_else(|e: String| die(USAGE, &e));
        if cycles == 0 {
            die(USAGE, "--trace must be at least 1");
        }
        config = config.with_trace(cycles);
    }
    eprintln!(
        "hpcrun-sim: {} ({}) on {} with {} sampling, {} threads…",
        args.get_or("workload", "lulesh"),
        args.get_or("variant", "baseline"),
        machine.topology().name(),
        mechanism.name(),
        threads
    );
    let started = Instant::now();
    let (stats, _, profile) = run_profiled(
        workload.as_ref(),
        machine,
        threads,
        ExecMode::Sequential,
        config,
    );
    let wall = started.elapsed();
    eprintln!(
        "hpcrun-sim: {} cycles ({:.1}% monitoring overhead), {} samples",
        stats.elapsed_cycles,
        stats.overhead_fraction() * 100.0,
        profile
            .threads
            .iter()
            .map(|t| t.totals.samples_mem)
            .sum::<u64>()
    );
    eprintln!(
        "hpcrun-sim: simulated {} accesses in {} ms ({:.1} ns/access), {} monitor callbacks",
        stats.mem_accesses,
        wall.as_millis(),
        wall.as_nanos() as f64 / stats.mem_accesses.max(1) as f64,
        stats.monitor_callbacks
    );
    // Streaming replaces the file write unless --out was given
    // explicitly; batch runs keep the profile.hpcrun default. The file
    // goes first, so a failed stream leaves the measurement on disk.
    if stream_addr.is_none() || explicit_out.is_some() {
        let out = explicit_out.as_deref().unwrap_or("profile.hpcrun");
        std::fs::write(out, encode_profile(&profile))
            .unwrap_or_else(|e| fail("hpcrun-sim", &format!("cannot write {out}: {e}")));
        eprintln!("hpcrun-sim: wrote {out}");
    }
    if let Some(addr) = &stream_addr {
        let default_label = format!(
            "{}-{}",
            args.get_or("workload", "lulesh"),
            args.get_or("variant", "baseline")
        );
        let label = args.get_or("label", &default_label);
        let mut client = Client::connect_retry(
            addr,
            Duration::from_millis(retry_ms.max(1)),
            Duration::from_secs(5),
        )
        .unwrap_or_else(|e| fail("hpcrun-sim", &format!("cannot connect to {addr}: {e}")));
        let (id, added, chunks) = client
            .stream_profile(label, &profile, per)
            .unwrap_or_else(|e| fail("hpcrun-sim", &format!("streaming to {addr} failed: {e}")));
        eprintln!(
            "hpcrun-sim: streamed {label} to {addr} in {chunks} chunk(s): {id} ({})",
            if added { "added" } else { "deduplicated" }
        );
    }
}
