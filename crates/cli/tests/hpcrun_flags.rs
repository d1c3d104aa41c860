//! `hpcrun-sim` flag values the library would assert on are usage errors:
//! exit code 2 and a message naming the flag, never a panic. A failure at
//! run time is not one: exit code 1, no usage block.

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

/// A failure at run time is not a usage error: one `tool: …` line after
/// whatever the run already printed, exit code 1, no usage block.
#[test]
fn runtime_failures_exit_1_without_the_usage_block() {
    let dir = std::env::temp_dir();
    let missing_dir = dir.join("hpcrun-flags-no-such-dir").join("p.json");
    let run = ["--workload", "blackscholes", "--size", "small"];
    // Port 1 on loopback: nothing listens there.
    let nobody = ["127.0.0.1:1", "--connect-retry-ms", "1"];
    let cases: [(&str, Vec<&str>, &str); 3] = [
        (
            env!("CARGO_BIN_EXE_hpcrun-sim"),
            [&run[..], &["--stream"], &nobody[..]].concat(),
            "hpcrun-sim: cannot connect to 127.0.0.1:1",
        ),
        (
            env!("CARGO_BIN_EXE_hpcrun-sim"),
            [&run[..], &["--out", missing_dir.to_str().unwrap()]].concat(),
            "hpcrun-sim: cannot write ",
        ),
        (
            env!("CARGO_BIN_EXE_hpcd-client"),
            [&["--cmd", "ping", "--addr"], &nobody[..]].concat(),
            "hpcd-client: cannot connect to 127.0.0.1:1",
        ),
    ];
    for (bin, args, last_line) in cases {
        let out = Command::new(bin)
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(last.starts_with(last_line), "{args:?}: {stderr}");
        if bin.ends_with("hpcrun-sim") {
            // The failure follows the run summary, whose two lines keep
            // their order.
            let lines: Vec<&str> = stderr.lines().collect();
            let n = lines.len();
            assert!(lines[n - 3].ends_with(" samples"), "{stderr}");
            assert!(lines[n - 2].ends_with(" monitor callbacks"), "{stderr}");
        }
    }
}
