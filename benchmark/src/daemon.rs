//! The real binaries: where they are, how the daemon is started and known to
//! be ready, and how it ends. Readiness is the blocking read of the daemon's
//! `listening on` line — nothing here polls, sleeps or backs off.

use crate::spec::DAEMON_FLAGS;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};

const READY_PREFIX: &str = "hpcd-sim: listening on ";

/// The tools under test, built by `run.sh` next to this executable.
pub struct Tools {
    dir: PathBuf,
}

impl Tools {
    pub fn locate() -> io::Result<Tools> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .ok_or_else(|| io::Error::other("executable has no directory"))?
            .to_path_buf();
        let tools = Tools { dir };
        for name in ["hpcd-sim", "hpcrun-sim", "hpcd-client"] {
            if !tools.path(name).is_file() {
                return Err(io::Error::other(format!(
                    "{} not found; run benchmark/run.sh, which builds the tools \
                     (cargo build --release -p numa-tools) beside the harness",
                    tools.path(name).display()
                )));
            }
        }
        Ok(tools)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A tool invocation that leaves nothing behind and talks to no terminal.
    pub fn command(&self, name: &str) -> Command {
        let mut cmd = Command::new(self.path(name));
        cmd.stdin(Stdio::null());
        cmd
    }
}

/// Run a tool to completion and collect what it printed.
pub fn run(cmd: &mut Command) -> io::Result<Output> {
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).output()
}

pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Held open so a later write to stdout cannot kill the daemon.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start `hpcd-sim` with the shipped defaults on `data_dir` and return
    /// once it has printed the address it listens on.
    pub fn spawn(tools: &Tools, data_dir: &Path, log: &Path) -> io::Result<Daemon> {
        let mut child = tools
            .command("hpcd-sim")
            .args(["--listen", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .args(DAEMON_FLAGS)
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        match line.trim_end().strip_prefix(READY_PREFIX) {
            Some(addr) => Ok(Daemon {
                child,
                addr: addr.to_string(),
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "hpcd-sim did not come up (said {line:?}; see {})",
                    log.display()
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then wait: no shutdown op, no final flush — the data
    /// directory is left exactly as the last acknowledged write made it.
    pub fn kill(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory under `benchmark/out/`, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(root: &Path, name: &str) -> io::Result<Scratch> {
        let dir = root.join(format!("tmp-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
