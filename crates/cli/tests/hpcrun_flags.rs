//! `hpcrun-sim` flag values the library would assert on are usage errors:
//! exit code 2 and a message naming the flag, never a panic.

use std::process::Command;

#[test]
fn out_of_range_flag_values_are_usage_errors() {
    for (flag, value) in [
        ("--scale", "0"),
        ("--threads", "0"),
        ("--threads", "49"), // the default machine has 48 hardware threads
        ("--bins", "0"),
        ("--trace", "0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcrun-sim"))
            .args(["--workload", "blackscholes", "--size", "small", flag, value])
            .current_dir(std::env::temp_dir())
            .output()
            .expect("spawn hpcrun-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} must be")),
            "{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}
