//! `hpcd-bench`: a one-CPU, fixed-work benchmark of the hpcrun-sim →
//! hpcd-sim → client stack. See `benchmark/README.md`.

mod corpus;
mod daemon;
mod probes;
mod procfs;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use daemon::Tools;
use report::{Header, Saved};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{run_workload, RunConfig};

/// Scratch directories, per-run result files and `trace.json` go here.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "\
usage: hpcd-bench [--workload NAME]   (default: all four, in table order)
                  [--seed N]          (default 1; drives every generated input)
                  [--seconds S]       (default 15; op counts scale by S / 15)
                  [--trace 0|1]       (default 0; 1 = the per-layer run, writes benchmark/out/trace.json)
                  [--runs N]          (default 1; repeats the same seed)
                  [--fraction F]      (default 1; shrinks op counts, for smoke runs only)
                  [--out FILE]        (save every run as JSON, for --compare)
       hpcd-bench --describe [--json]
       hpcd-bench --selfcheck [--runs N]        (default 5 runs per set)
       hpcd-bench --compare PARENT.json CHANGE.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    fraction: f64,
    out: Option<PathBuf>,
    describe: bool,
    json: bool,
    selfcheck: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        runs: None,
        fraction: 1.0,
        out: None,
        describe: false,
        json: false,
        selfcheck: false,
        compare: None,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => args.seed = number(&flag, value("a number")?)?,
            "--seconds" => args.seconds = number(&flag, value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--runs" => args.runs = Some(number(&flag, value("a number")?)?),
            "--fraction" => args.fraction = number(&flag, value("a number")?)?,
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--describe" => args.describe = true,
            "--json" => args.json = true,
            "--selfcheck" => args.selfcheck = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            return Err(format!(
                "unknown workload {name:?} ({})",
                spec::WORKLOADS.map(|w| w.name).join(", ")
            ));
        }
    }
    if !(args.seconds > 0.0 && args.fraction > 0.0 && args.fraction <= 1.0) {
        return Err("--seconds must be positive and --fraction in (0, 1]".to_string());
    }
    if args.runs == Some(0) {
        return Err("--runs must be at least 1".to_string());
    }
    Ok(args)
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare(parent: &PathBuf, change: &PathBuf) -> Result<bool, String> {
    let load = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        report::load_saved(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, regressed) = report::render_compare(&load(parent)?, &load(change)?);
    print!("{table}");
    Ok(regressed)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args())?;
    if args.describe {
        if args.json {
            let json =
                serde_json::to_string_pretty(&spec::describe_json()).map_err(|e| e.to_string())?;
            println!("{json}");
        } else {
            print!("{}", spec::describe_text());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((parent, change)) = &args.compare {
        let regressed = compare(parent, change)?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let runs = args.runs.unwrap_or(if args.selfcheck { 5 } else { 1 });
    let selected: Vec<&'static spec::Workload> = spec::WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if let ([workload], 1, false) = (selected.as_slice(), runs, args.selfcheck) {
        return run_here(&args, workload);
    }

    // Several runs: each in a process of its own, so that every run starts
    // from the same state. (The simulator seeds its sampling jitter from a
    // process-wide counter: a second measurement in one process is not the
    // first one again.) This process only waits, unpinned, and collects.
    let mut first_file = None;
    let mut run_pass = |label: &str| -> Result<Vec<Value>, String> {
        let mut entries = Vec::new();
        for w in &selected {
            println!("\n== {label}{}", w.name);
            let json = run_in_child(&args, w.name)?;
            entries.extend(report::saved_results(&json)?);
            first_file.get_or_insert(json);
        }
        Ok(entries)
    };
    let mut entries = Vec::new();
    let (mut a, mut b) = (Saved::default(), Saved::default());
    for run in 0..runs {
        if args.selfcheck {
            // A B A B …: drift of the box lands on both sets alike.
            for (set, name) in [(&mut a, 'A'), (&mut b, 'B')] {
                for entry in run_pass(&format!("set {name}, run {run}: "))? {
                    set.push(&entry)?;
                    entries.push(entry);
                }
            }
        } else {
            entries.extend(run_pass(&format!("run {run}: "))?);
        }
    }
    let failed: u64 = entries.iter().filter_map(|e| e["failed"].as_u64()).sum();
    if let (Some(path), Some(first)) = (&args.out, &first_file) {
        std::fs::write(path, report::with_results(first, entries)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut ok = failed == 0;
    if args.selfcheck {
        let (table, agree) = report::render_selfcheck(&a, &b);
        println!("\nselfcheck: same build, same seed, interleaved sets of {runs}\n{table}");
        ok &= agree;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One run of one workload in this process: what the driver invokes.
fn run_here(args: &Args, workload: &'static spec::Workload) -> Result<ExitCode, String> {
    // One CPU, before anything is spawned: every thread and process inherits it.
    let affinity = procfs::pin_to_highest_cpu();
    let tools = Tools::locate().map_err(|e| e.to_string())?;
    let header = Header {
        git_sha: git_sha(),
        seed: args.seed,
        seconds: args.seconds,
        fraction: args.fraction,
        trace: args.trace,
        pinned: affinity.cpu.is_some(),
        visible_cpus: affinity.visible_cpus,
        cpu: affinity.cpu,
    };
    println!("{}", header.render());
    let cfg = RunConfig {
        seed: args.seed,
        scale: args.seconds / spec::RUN_SECONDS as f64 * args.fraction,
        trace: args.trace,
        cpu: affinity.cpu,
        out_dir: PathBuf::from(OUT_DIR),
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let outcome =
        run_workload(workload, &tools, &cfg).map_err(|e| format!("{}: {e}", workload.name))?;
    print!("{}", report::render_outcome(&outcome));
    if let Some(path) = &args.out {
        let json = report::results_json(&header, vec![report::result_entry(&outcome)]);
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::contract_line(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one workload in a child process and return the `--out` file it wrote.
/// The child prints its own table; a failed check there is counted here.
fn run_in_child(args: &Args, workload: &str) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let out = PathBuf::from(format!("{OUT_DIR}/run-{}.json", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--fraction", &args.fraction.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .status()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let json = std::fs::read_to_string(&out)
        .map_err(|e| format!("the run of {workload} left no result: {e}"))?;
    let _ = std::fs::remove_file(&out);
    Ok(json)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hpcd-bench: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
