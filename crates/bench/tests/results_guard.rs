//! The paper reproduction guard: every regenerator must print exactly
//! what `results/` holds. The simulated quantities are deterministic, so
//! any difference is a behaviour change, not noise. Each regenerator runs
//! as its own process, so no state can leak from one into another.

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

macro_rules! guard {
    ($($test:ident => $name:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            assert_matches_results(env!(concat!("CARGO_BIN_EXE_", $name)), $name);
        }
    )*};
}

guard! {
    table1_matches_checked_in_result => "table1",
    bias_demo_matches_checked_in_result => "bias_demo",
    fig1_matches_checked_in_result => "fig1",
    table2_matches_checked_in_result => "table2",
    fig3_lulesh_matches_checked_in_result => "fig3_lulesh",
    fig4_7_amg_matches_checked_in_result => "fig4_7_amg",
    fig8_9_blackscholes_matches_checked_in_result => "fig8_9_blackscholes",
    fig10_umt_matches_checked_in_result => "fig10_umt",
    ablations_matches_checked_in_result => "ablations",
}
