//! `hpcdiff-sim`: compare two profiles of the same workload (e.g. before
//! and after a NUMA fix) and report what changed.
//!
//! ```text
//! hpcrun-sim --workload lulesh --variant baseline  --out before.hpcrun
//! hpcrun-sim --workload lulesh --variant blockwise --out after.hpcrun
//! hpcdiff-sim --before before.hpcrun --after after.hpcrun
//! ```

use numa_analysis::{diff, Analyzer};
use numa_tools::{die, fail, read_profile, Args};

const USAGE: &str = "\
usage: hpcdiff-sim --before PROFILE.hpcrun --after PROFILE.hpcrun [--format text|json]";

fn load(path: &str) -> Analyzer {
    Analyzer::new(read_profile(path).unwrap_or_else(|e| fail("hpcdiff-sim", &e)))
}

fn main() {
    let args = Args::parse(USAGE);
    args.check_known(&["before", "after", "format"])
        .unwrap_or_else(|e| die(USAGE, &e));
    let before = load(
        args.get("before")
            .unwrap_or_else(|| die(USAGE, "--before is required")),
    );
    let after = load(
        args.get("after")
            .unwrap_or_else(|| die(USAGE, "--after is required")),
    );
    let report = diff(&before, &after);
    match args.get_or("format", "text") {
        "text" => print!("{}", report.render()),
        "json" => println!("{}", report.to_json()),
        other => die(USAGE, &format!("unknown format {other:?}")),
    }
}
