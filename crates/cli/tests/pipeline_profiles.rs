//! The profiles a measurement writes are pinned: each run below must
//! produce exactly the profile it produced when the constants were
//! captured, down to its content id (the FNV-1a of the codec bytes, as
//! `hpcd-client --cmd list` prints it). The first four are the runs a
//! `pipeline` benchmark round streams to the daemon, with a fixed trace
//! interval; the last two cover the two mechanisms those leave out. Any
//! change to what the simulator or the profiler computes moves an id, so
//! a change meant to make them faster must leave every id where it is.

use numa_store::ProfileId;
use std::process::Command;

/// `(workload, mechanism, size, content id)`, each at 16 threads on the
/// default machine with one trace point per 1 000 000 004 096 cycles.
const PINNED: [(&str, &str, &str, &str); 6] = [
    ("lulesh", "ibs", "medium", "28e6870cee0e951f"),
    ("amg2006", "mrk", "medium", "ce8d390349e0a8ed"),
    ("blackscholes", "dear", "medium", "1d9a7341105bf708"),
    ("umt2013", "pebs", "medium", "206ca7bb046cb77f"),
    ("amg2006", "pebs-ll", "small", "045734fe911acef3"),
    ("amg2006", "soft-ibs", "small", "2b71509369ff7031"),
];

#[test]
fn pipeline_profiles_keep_their_content_ids() {
    let dir = std::env::temp_dir().join(format!("pipeline-profiles-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut moved = Vec::new();
    for (workload, mechanism, size, want) in PINNED {
        let out = dir.join(format!("{workload}-{mechanism}-{size}.hpcrun"));
        let run = Command::new(env!("CARGO_BIN_EXE_hpcrun-sim"))
            .args([
                "--workload",
                workload,
                "--mechanism",
                mechanism,
                "--size",
                size,
            ])
            .args(["--threads", "16", "--trace", "1000000004096"])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn hpcrun-sim");
        assert!(
            run.status.success(),
            "{workload}/{mechanism}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let bytes = std::fs::read(&out).expect("read profile");
        let got = ProfileId(numa_store::fnv1a(&bytes)).to_string();
        if got != want {
            moved.push(format!(
                "{workload}/{mechanism}/{size}: {got} (pinned {want})"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(moved.is_empty(), "profiles changed: {moved:#?}");
}
