//! Tier-1 slice of `check-results.sh`: the two millisecond-scale
//! regenerators must print exactly what `results/` holds. Table 1 is read
//! straight off the mechanism table in `numa-sampling`.

use std::process::Command;

fn assert_matches_results(exe: &str, name: &str) {
    let out = Command::new(exe).output().expect("regenerator runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read(&path).expect("checked-in result exists");
    assert!(
        out.stdout == want,
        "{name} output differs from results/{name}.txt:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn table1_matches_checked_in_result() {
    assert_matches_results(env!("CARGO_BIN_EXE_table1"), "table1");
}

#[test]
fn bias_demo_matches_checked_in_result() {
    assert_matches_results(env!("CARGO_BIN_EXE_bias_demo"), "bias_demo");
}
