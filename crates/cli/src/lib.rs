//! Shared plumbing for the command-line tools.
//!
//! Four binaries mirror HPCToolkit's workflow on the simulated machine:
//!
//! * `hpcrun-sim` — run one of the bundled workloads under a chosen
//!   sampling mechanism and write a profile file (`profile.hpcrun`);
//! * `hpcprof-sim` — merge and analyze a profile, print the report;
//! * `hpcviewer-sim` — render the address-centric view and metric pane
//!   for a chosen variable (whole program or one parallel region);
//! * `hpcdiff-sim` — compare two profiles of the same workload.
//!
//! A profile file is a `numa-codec` container: the canonical bytes the
//! store hashes and logs, so a file's FNV-1a hash is the id the store
//! assigns it. Every tool reads one through [`read_profile`]; JSON is
//! only ever an output (`--format json`).
//!
//! `hpcd-sim` serves a multi-profile store over TCP and `hpcd-client`
//! runs the store's verbs against it — or, with `--dir` / `--data-dir`,
//! against a store opened in its own process ([`open_store`]).
//!
//! Argument parsing is deliberately dependency-free: `--key value` pairs
//! only.

use numa_faults::Storage;
use numa_machine::{Machine, MachinePreset};
use numa_profiler::NumaProfile;
use numa_sampling::{MechanismKind, MechanismSpec, MECHANISMS};
use numa_store::wal::UnsupportedHeader;
use numa_store::{codec, PersistOptions, ProfileStore, StoreConfig};
use numa_workloads::{
    Amg2006, AmgVariant, Blackscholes, BlackscholesVariant, Lulesh, LuleshVariant, Umt2013,
    UmtVariant, Workload,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Minimal `--key value` argument map.
pub struct Args {
    program: String,
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parse `std::env::args()`. Flags must come in `--key value` pairs.
    pub fn parse() -> Result<Args, String> {
        Self::from_args(std::env::args())
    }

    /// Parse an explicit argument sequence (first item = program name).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = args.into_iter();
        let program = it.next().unwrap_or_default();
        let mut map = BTreeMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args { program, map })
    }

    pub fn program(&self) -> &str {
        &self.program
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Keys the caller recognises; anything else is an error (typo guard).
    pub fn check_known(&self, known: &[&str]) -> Result<(), String> {
        for k in self.map.keys() {
            if !known.contains(&k.as_str()) {
                return Err(format!(
                    "unknown flag --{k}; known flags: {}",
                    known
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        Ok(())
    }
}

/// Parse a machine preset name.
pub fn parse_machine(name: &str) -> Result<Machine, String> {
    let preset = match name.to_ascii_lowercase().as_str() {
        "amd" | "magny-cours" | "magnycours" => MachinePreset::AmdMagnyCours,
        "power7" | "ibm" => MachinePreset::IbmPower7,
        "harpertown" => MachinePreset::IntelHarpertown,
        "itanium" | "itanium2" => MachinePreset::IntelItanium2,
        "ivybridge" | "ivy-bridge" => MachinePreset::IntelIvyBridge,
        other => {
            return Err(format!(
                "unknown machine {other:?} (amd, power7, harpertown, itanium2, ivybridge)"
            ))
        }
    };
    Ok(Machine::from_preset(preset))
}

/// Parse a mechanism name.
pub fn parse_mechanism(name: &str) -> Result<MechanismKind, String> {
    let lower = name.to_ascii_lowercase();
    let cli_name = |spec: &MechanismSpec| spec.name.to_ascii_lowercase();
    MECHANISMS
        .iter()
        .find(|spec| lower == cli_name(spec) || lower == cli_name(spec).replace('-', ""))
        .map(|spec| spec.kind)
        .ok_or_else(|| {
            let known: Vec<String> = MECHANISMS.iter().map(cli_name).collect();
            format!("unknown mechanism {lower:?} ({})", known.join(", "))
        })
}

/// Build one of the bundled workloads from `--workload`, `--variant`, and
/// `--size` (a small/medium/large knob).
pub fn parse_workload(name: &str, variant: &str, size: &str) -> Result<Box<dyn Workload>, String> {
    let sz = match size {
        "small" => 0,
        "medium" => 1,
        "large" => 2,
        other => return Err(format!("unknown size {other:?} (small, medium, large)")),
    };
    let w: Box<dyn Workload> = match name.to_ascii_lowercase().as_str() {
        "lulesh" => {
            let v = match variant {
                "baseline" => LuleshVariant::Baseline,
                "interleaved" => LuleshVariant::Interleaved,
                "blockwise" | "block-wise" => LuleshVariant::BlockWise,
                other => return Err(format!("unknown LULESH variant {other:?}")),
            };
            let edge = [20, 40, 88][sz];
            Box::new(Lulesh::new(edge, 3, v))
        }
        "amg2006" | "amg" => {
            let v = match variant {
                "baseline" => AmgVariant::Baseline,
                "interleaved" => AmgVariant::InterleavedAll,
                "guided" => AmgVariant::Guided,
                other => return Err(format!("unknown AMG variant {other:?}")),
            };
            let rows = [32 * 1024, 96 * 1024, 192 * 1024][sz];
            Box::new(Amg2006::new(rows, 2, v))
        }
        "blackscholes" | "bs" => {
            let v = match variant {
                "baseline" => BlackscholesVariant::Baseline,
                "regrouped" => BlackscholesVariant::Regrouped,
                other => return Err(format!("unknown Blackscholes variant {other:?}")),
            };
            let opts = [256, 1024, 4096][sz];
            Box::new(Blackscholes::new(opts, 20, v))
        }
        "umt2013" | "umt" => {
            let v = match variant {
                "baseline" => UmtVariant::Baseline,
                "parallel-init" | "parallelfirsttouch" => UmtVariant::ParallelFirstTouch,
                other => return Err(format!("unknown UMT variant {other:?}")),
            };
            let angles = [64, 128, 256][sz];
            Box::new(Umt2013::new(16, 64, angles, 2, v))
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (lulesh, amg2006, blackscholes, umt2013)"
            ))
        }
    };
    Ok(w)
}

/// Read the profile file at `path` (a codec container, as `hpcrun-sim
/// --out` writes it). `Err` names the file; it is a run-time failure,
/// for [`fail`].
pub fn read_profile(path: &str) -> Result<NumaProfile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    codec::decode_profile(&bytes).map_err(|e| format!("cannot decode {path}: {e}"))
}

/// Open the store a front end works on: in memory, or — given
/// `durable` = (data dir, options, storage backend) — recovered from
/// that directory's snapshot + WAL and persisting from then on; then
/// ingest every profile file in `preload`. Recovery and preload
/// summaries, and one diagnostic per file that was skipped, go to
/// stderr prefixed with `tool`. `Err` is a message for [`die`].
pub fn open_store(
    tool: &str,
    config: StoreConfig,
    durable: Option<(&str, PersistOptions, Arc<dyn Storage>)>,
    preload: Option<&str>,
) -> Result<Arc<ProfileStore>, String> {
    let store = match durable {
        None => ProfileStore::with_config(config),
        Some((dir, opts, storage)) => {
            let store =
                ProfileStore::open_durable_config_with(Path::new(dir), config, opts, storage)
                    .map_err(|e| {
                        // A directory another build wrote is refused
                        // untouched; say what to do about it.
                        let refused = e
                            .get_ref()
                            .is_some_and(|inner| inner.is::<UnsupportedHeader>());
                        let advice = if refused {
                            "\nre-ingest the profile files (`hpcrun-sim --out`) into a \
                             fresh directory, or open this one with the build that wrote it"
                        } else {
                            ""
                        };
                        format!("cannot open data dir {dir}: {e}{advice}")
                    })?;
            let p = store.persist_stats();
            eprintln!(
                "{tool}: recovered {} profile(s) from {dir} \
                 ({} snapshot + {} wal record(s), {} truncated byte(s), {} stale parse(s))",
                store.len(),
                p.snapshot_records_loaded,
                p.wal_records_replayed,
                p.wal_truncated_bytes + p.snapshot_truncated_bytes,
                p.replay_parse_failures,
            );
            store
        }
    };
    if let Some(dir) = preload {
        let report = store
            .ingest_dir(Path::new(dir))
            .map_err(|e| format!("cannot read {dir}: {e}"))?;
        for (label, err) in &report.rejected {
            eprintln!("{tool}: skipping {label}: {err}");
        }
        for (label, err) in &report.io_errors {
            eprintln!("{tool}: cannot read {label}: {err}");
        }
        for (label, err) in &report.persist_failures {
            eprintln!("{tool}: not durable, rolled back {label}: {err}");
        }
        eprintln!(
            "{tool}: preloaded {} profile(s) from {dir} ({} deduplicated, {} rejected, {} unreadable, {} not durable)",
            report.added.len(),
            report.deduplicated,
            report.rejected.len(),
            report.io_errors.len(),
            report.persist_failures.len()
        );
    }
    Ok(Arc::new(store))
}

/// Exit with a usage message: the command line was wrong.
pub fn die(usage: &str, err: &str) -> ! {
    eprintln!("error: {err}\n\n{usage}");
    std::process::exit(2)
}

/// Exit after a failure at run time (a peer that is not there, a file that
/// cannot be written): the command line was fine, so no usage block, and
/// exit code 1 rather than [`die`]'s 2.
pub fn fail(tool: &str, err: &str) -> ! {
    eprintln!("{tool}: {err}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(s: &str) -> Result<Args, String> {
        Args::from_args(
            std::iter::once("prog".to_string()).chain(s.split_whitespace().map(String::from)),
        )
    }

    #[test]
    fn args_parse_key_value_pairs() {
        let a = args_of("--workload lulesh --threads 48").unwrap();
        assert_eq!(a.get("workload"), Some("lulesh"));
        assert_eq!(a.get_parsed("threads", 0usize).unwrap(), 48);
        assert_eq!(a.get_or("machine", "amd"), "amd");
        assert_eq!(a.program(), "prog");
    }

    #[test]
    fn args_reject_malformed_input() {
        assert!(args_of("workload lulesh").is_err(), "missing --");
        assert!(args_of("--workload").is_err(), "missing value");
        assert!(args_of("--a 1 --a 2").is_err(), "duplicate flag");
        let a = args_of("--threads banana").unwrap();
        assert!(a.get_parsed("threads", 0usize).is_err());
    }

    #[test]
    fn unknown_flags_are_flagged() {
        let a = args_of("--workload lulesh --bogus 1").unwrap();
        assert!(a.check_known(&["workload"]).is_err());
        assert!(a.check_known(&["workload", "bogus"]).is_ok());
    }

    #[test]
    fn machine_names_parse() {
        assert_eq!(parse_machine("amd").unwrap().topology().domains(), 8);
        assert_eq!(parse_machine("power7").unwrap().topology().domains(), 4);
        assert!(parse_machine("vax").is_err());
    }

    #[test]
    fn mechanism_names_parse() {
        assert_eq!(parse_mechanism("ibs").unwrap(), MechanismKind::Ibs);
        assert_eq!(parse_mechanism("PEBS-LL").unwrap(), MechanismKind::PebsLl);
        for spec in &MECHANISMS {
            let lower = spec.name.to_lowercase();
            for alias in [spec.name.to_string(), lower.replace('-', ""), lower] {
                assert_eq!(parse_mechanism(&alias).unwrap(), spec.kind, "{alias}");
            }
        }
        let err = parse_mechanism("magic").unwrap_err();
        assert!(
            err.contains("ibs, mrk, pebs, dear, pebs-ll, soft-ibs"),
            "{err}"
        );
    }

    #[test]
    fn workloads_parse() {
        assert!(parse_workload("lulesh", "baseline", "small").is_ok());
        assert!(parse_workload("amg", "guided", "medium").is_ok());
        assert!(parse_workload("bs", "regrouped", "small").is_ok());
        assert!(parse_workload("umt", "parallel-init", "small").is_ok());
        assert!(parse_workload("doom", "baseline", "small").is_err());
        assert!(parse_workload("lulesh", "baseline", "huge").is_err());
    }
}
