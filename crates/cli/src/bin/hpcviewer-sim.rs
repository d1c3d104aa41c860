//! `hpcviewer-sim`: render the address-centric view and metric pane for
//! one variable of a profile — the simulated analogue of the paper's
//! extended `hpcviewer` (§7.2).
//!
//! ```text
//! hpcviewer-sim --in lulesh.hpcrun --var z
//! hpcviewer-sim --in amg.hpcrun --var RAP_diag_data \
//!               --region hypre_boomerAMGRelax._omp
//! hpcviewer-sim --in lulesh.hpcrun --list vars
//! ```

use numa_analysis::{
    classify, export_address_view, render_address_view, render_cct, render_metric_table,
    render_trace_timelines, Analyzer,
};
use numa_profiler::RangeScope;
use numa_tools::{die, fail, read_profile, Args};

const USAGE: &str = "\
usage: hpcviewer-sim --in PROFILE.hpcrun --var NAME [--region PARALLEL_REGION]
                     [--format text|json]
       hpcviewer-sim --in PROFILE.hpcrun --list vars|regions
       hpcviewer-sim --in PROFILE.hpcrun --pane cct       (code-centric tree)
       hpcviewer-sim --in PROFILE.hpcrun --pane timeline  (trace view)";

fn main() {
    let args = Args::parse().unwrap_or_else(|e| die(USAGE, &e));
    args.check_known(&["in", "var", "region", "format", "list", "pane"])
        .unwrap_or_else(|e| die(USAGE, &e));
    let path = args
        .get("in")
        .unwrap_or_else(|| die(USAGE, "--in is required"));
    let profile = read_profile(path).unwrap_or_else(|e| fail("hpcviewer-sim", &e));
    let analyzer = Analyzer::new(profile);

    if let Some(pane) = args.get("pane") {
        match pane {
            "cct" => print!("{}", render_cct(&analyzer, 0.01)),
            "timeline" => print!("{}", render_trace_timelines(&analyzer, 64)),
            other => die(USAGE, &format!("unknown pane {other:?} (cct, timeline)")),
        }
        return;
    }

    if let Some(what) = args.get("list") {
        match what {
            "vars" => {
                for v in analyzer.hot_variables() {
                    println!(
                        "{:<24} [{:>6}] {:>12} bytes  {:>5.1}% of remote cost",
                        v.name,
                        v.kind.name(),
                        v.bytes,
                        v.remote_share * 100.0
                    );
                }
            }
            "regions" => {
                // Names that appear as region scopes in any range — the
                // engine's index already knows; no thread scan.
                for f in analyzer.engine().sampled_regions() {
                    if let Some(name) = analyzer.profile().func_names.get(f.0 as usize) {
                        println!("{name}");
                    }
                }
            }
            other => die(USAGE, &format!("unknown --list {other:?}")),
        }
        return;
    }

    let var_name = args
        .get("var")
        .unwrap_or_else(|| die(USAGE, "--var is required"));
    let var = analyzer.var_named(var_name).unwrap_or_else(|| {
        die(
            USAGE,
            &format!("no variable named {var_name:?} (try --list vars)"),
        )
    });
    let scope = match args.get("region") {
        None => RangeScope::Program,
        Some(region) => {
            let f = analyzer.region_named(region).unwrap_or_else(|| {
                die(
                    USAGE,
                    &format!("no region named {region:?} (try --list regions)"),
                )
            });
            RangeScope::Region(f)
        }
    };

    match args.get_or("format", "text") {
        "json" => println!("{}", export_address_view(&analyzer, var, scope)),
        "text" => {
            let title = match scope {
                RangeScope::Program => format!("{var_name} (whole program)"),
                RangeScope::Region(f) => {
                    format!("{var_name} (region {})", analyzer.profile().func_name(f))
                }
            };
            print!("{}", render_address_view(&analyzer, var, scope, &title));
            let pattern = classify(&analyzer.thread_ranges(var, scope));
            println!("pattern: {}\n", pattern.name());
            let metrics = analyzer.var_metrics(var);
            print!(
                "{}",
                render_metric_table(
                    &[(var_name.to_string(), metrics)],
                    analyzer.profile().domains
                )
            );
            for (tid, domain, path) in analyzer.first_touch_sites(var) {
                println!("first touch: thread {tid} ({domain}) at {path}");
            }
        }
        other => die(USAGE, &format!("unknown format {other:?}")),
    }
}
