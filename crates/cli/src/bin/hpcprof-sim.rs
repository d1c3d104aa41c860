//! `hpcprof-sim`: merge and analyze a profile written by `hpcrun-sim`,
//! printing the NUMA analysis report — the simulated analogue of
//! HPCToolkit's `hpcprof`.
//!
//! ```text
//! hpcprof-sim --in lulesh.hpcrun [--format text|json|html]
//! ```

use numa_analysis::{analyze, full_text_report, html_report, Analyzer};
use numa_tools::{die, fail, read_profile, Args};

const USAGE: &str = "\
usage: hpcprof-sim --in PROFILE.hpcrun [--format text|json|html] [--out FILE]";

fn main() {
    let args = Args::parse(USAGE);
    args.check_known(&["in", "format", "out"])
        .unwrap_or_else(|e| die(USAGE, &e));
    let path = args
        .get("in")
        .unwrap_or_else(|| die(USAGE, "--in is required"));
    let profile = read_profile(path).unwrap_or_else(|e| fail("hpcprof-sim", &e));
    let analyzer = Analyzer::new(profile);
    let output = match args.get_or("format", "text") {
        "text" => full_text_report(&analyzer),
        "json" => analyze(&analyzer).to_json(),
        "html" => html_report(&analyzer),
        other => die(USAGE, &format!("unknown format {other:?}")),
    };
    match args.get("out") {
        None => print!("{output}"),
        Some(path) => {
            std::fs::write(path, output).unwrap_or_else(|e| die(USAGE, &e.to_string()));
            eprintln!("hpcprof-sim: wrote {path}");
        }
    }
}
