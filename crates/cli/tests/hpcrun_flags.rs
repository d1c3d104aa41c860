//! `hpcrun-sim` flag values the library would assert on are usage errors:
//! exit code 2 and a message naming the flag, never a panic. A failure at
//! run time is not one: exit code 1, no usage block. And the file
//! `hpcrun-sim --out` writes is what every tool and the store read.

use std::path::PathBuf;
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

/// A bad stream flag is a usage error before the run: no simulation, no
/// file left behind.
#[test]
fn stream_flags_are_parsed_before_the_run() {
    let dir = scratch("stream-flags");
    for flag in ["--chunk-threads", "--connect-retry-ms"] {
        let out_file = dir.join("never-written.hpcrun");
        let out = Command::new(env!("CARGO_BIN_EXE_hpcrun-sim"))
            .args(["--workload", "blackscholes", "--size", "small"])
            .args(["--stream", "127.0.0.1:1", flag, "x", "--out"])
            .arg(&out_file)
            .output()
            .expect("spawn hpcrun-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag}: cannot parse \"x\"")),
            "{flag}: {stderr}"
        );
        assert!(
            !stderr.contains(" cycles ("),
            "{flag} ran the simulation: {stderr}"
        );
        assert!(!out_file.exists(), "{flag} left {out_file:?} behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A scratch directory of this test process's own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpcrun-flags-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// A failure at run time is not a usage error: one `tool: …` line after
/// whatever the run already printed, exit code 1, no usage block. A
/// profile file a tool cannot read or decode is one, and the line names
/// the file.
#[test]
fn runtime_failures_exit_1_without_the_usage_block() {
    let dir = scratch("runtime");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (missing_dir, missing) = (path("no-such-dir/p.hpcrun"), path("no-such-profile.hpcrun"));
    let (json, kept) = (path("old.json"), path("keep-me.hpcrun"));
    std::fs::write(&json, r#"{"mechanism":"Ibs","domains":8}"#).unwrap();
    let dir = dir.to_str().unwrap();
    let run = ["--workload", "blackscholes", "--size", "small"];
    // Port 1 on loopback: nothing listens there.
    let nobody = ["127.0.0.1:1", "--connect-retry-ms", "1"];
    let hpcrun = env!("CARGO_BIN_EXE_hpcrun-sim");
    let client = env!("CARGO_BIN_EXE_hpcd-client");
    let connect = |tool: &str| format!("{tool}: cannot connect to 127.0.0.1:1");
    // (binary, arguments, the prefixes of the last stderr lines)
    let cases: Vec<(&str, Vec<&str>, Vec<String>)> = vec![
        (
            hpcrun,
            [&run[..], &["--stream"], &nobody[..]].concat(),
            vec![connect("hpcrun-sim")],
        ),
        (
            hpcrun,
            [&run[..], &["--out", &missing_dir]].concat(),
            vec!["hpcrun-sim: cannot write ".into()],
        ),
        // An explicit --out is written before the stream is tried, so a
        // failed stream keeps the measurement.
        (
            hpcrun,
            [&run[..], &["--out", &kept, "--stream"], &nobody[..]].concat(),
            vec![format!("hpcrun-sim: wrote {kept}"), connect("hpcrun-sim")],
        ),
        (
            client,
            [&["--cmd", "ping", "--addr"], &nobody[..]].concat(),
            vec![connect("hpcd-client")],
        ),
        (
            env!("CARGO_BIN_EXE_hpcprof-sim"),
            vec!["--in", &missing],
            vec![format!("hpcprof-sim: cannot read {missing}: ")],
        ),
        (
            env!("CARGO_BIN_EXE_hpcviewer-sim"),
            vec!["--in", &json, "--pane", "cct"],
            vec![format!(
                "hpcviewer-sim: cannot decode {json}: not a numa-codec buffer"
            )],
        ),
        (
            env!("CARGO_BIN_EXE_hpcdiff-sim"),
            vec!["--before", &json, "--after", &json],
            vec![format!("hpcdiff-sim: cannot decode {json}: ")],
        ),
        (
            client,
            vec!["--dir", dir, "--cmd", "stream", "--file", &json],
            vec![format!("hpcd-client: cannot decode {json}: ")],
        ),
        (
            client,
            vec!["--dir", dir, "--cmd", "ingest", "--file", &missing],
            vec![format!("hpcd-client: cannot read {missing}: ")],
        ),
    ];
    for (bin, args, tail) in cases {
        let out = Command::new(bin)
            .args(&args)
            .current_dir(dir)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        let n = lines.len() - tail.len();
        for (line, prefix) in lines[n..].iter().zip(&tail) {
            assert!(line.starts_with(prefix.as_str()), "{args:?}: {stderr}");
        }
        if bin == hpcrun {
            // The failure follows the run summary, whose two lines keep
            // their order.
            assert!(lines[n - 2].ends_with(" samples"), "{stderr}");
            assert!(lines[n - 1].ends_with(" monitor callbacks"), "{stderr}");
        }
    }
    let kept = std::fs::read(&kept).expect("the measurement survived the failed stream");
    numa_store::codec::decode_profile(&kept).expect("and decodes");

    // A readable file that is not a container travels as read, and the
    // store's typed parse error names its label: exit 2, like every
    // typed server error.
    let out = Command::new(client)
        .args([
            "--dir", dir, "--cmd", "ingest", "--file", &json, "--label", "old",
        ])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error: server error: cannot parse profile \"old\": not a numa-codec"),
        "{stderr}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The file `hpcrun-sim --out` writes is the canonical codec container
/// the store keys on: two runs write identical bytes, they open with the
/// codec magic, and a store preloaded with the file lists the FNV-1a of
/// those bytes as its id.
#[test]
fn the_profile_file_is_the_container_the_store_keys_on() {
    let dir = scratch("canonical");
    let write = |name: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_hpcrun-sim"))
            .args(["--workload", "blackscholes", "--size", "small", "--out"])
            .arg(dir.join(name))
            .output()
            .expect("spawn hpcrun-sim");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(dir.join(name)).expect("profile written")
    };
    let file = write("f");
    assert!(file == write("g"), "two runs wrote different bytes");
    assert!(file.starts_with(b"NPCB"));
    std::fs::remove_file(dir.join("g")).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_hpcd-client"))
        .args(["--dir", dir.to_str().unwrap(), "--cmd", "list"])
        .output()
        .expect("spawn hpcd-client");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let id = format!("{:016x}", numa_store::fnv1a(&file));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with(&format!("{id}  f ")), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
