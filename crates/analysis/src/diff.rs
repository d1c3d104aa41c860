//! Profile differencing: quantify what an optimization changed.
//!
//! The paper's workflow is profile → edit the first-touch code →
//! re-profile; this module automates the "did the fix land?" comparison
//! between a baseline profile and an optimized one. Variables are matched
//! by source name (addresses differ between runs), and the program-level
//! derived metrics are compared side by side.

use crate::analyzer::{Analyzer, ProgramAnalysis};
use numa_sim::VarKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Before/after pair for one metric.
#[derive(Clone, Copy, Debug)]
pub struct Delta {
    pub before: f64,
    pub after: f64,
}

impl Delta {
    fn new(before: f64, after: f64) -> Self {
        Delta { before, after }
    }

    /// Relative change (negative = reduction).
    pub fn relative(&self) -> f64 {
        if self.before == 0.0 {
            if self.after == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.after - self.before) / self.before
        }
    }
}

/// Per-variable comparison (matched by name).
#[derive(Clone, Debug)]
pub struct VarDelta {
    pub name: String,
    pub kind: VarKind,
    /// Remote-homed sampled accesses (`M_r`).
    pub m_remote: Delta,
    /// Sampled remote latency.
    pub latency_remote: Delta,
    /// Present in only one of the profiles.
    pub only_in: Option<&'static str>,
}

/// The full comparison.
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub program_before: ProgramAnalysis,
    pub program_after: ProgramAnalysis,
    pub remote_fraction: Delta,
    pub remote_latency: Delta,
    pub lpi: Option<Delta>,
    pub vars: Vec<VarDelta>,
}

/// Compare two analyzed profiles (same workload, different placements or
/// code versions).
pub fn diff(before: &Analyzer, after: &Analyzer) -> DiffReport {
    let pb = before.program();
    let pa = after.program();

    // Index variables by name. Variables can legitimately repeat (e.g.
    // re-allocation with the same name); accumulate.
    // (kind, m_remote per side, latency_remote per side, present per side)
    type SideEntry = (VarKind, [u64; 2], [u64; 2], [bool; 2]);
    let mut names: BTreeMap<String, SideEntry> = BTreeMap::new();
    for (side, analyzer) in [(0usize, before), (1usize, after)] {
        for v in analyzer.hot_variables() {
            let e = names
                .entry(v.name.clone())
                .or_insert((v.kind, [0, 0], [0, 0], [false, false]));
            e.1[side] += v.metrics.m_remote;
            e.2[side] += v.metrics.latency_remote;
            e.3[side] = true;
        }
    }
    let mut vars: Vec<VarDelta> = names
        .into_iter()
        .map(|(name, (kind, mr, lat, present))| VarDelta {
            name,
            kind,
            m_remote: Delta::new(mr[0] as f64, mr[1] as f64),
            latency_remote: Delta::new(lat[0] as f64, lat[1] as f64),
            only_in: match present {
                [true, false] => Some("before"),
                [false, true] => Some("after"),
                _ => None,
            },
        })
        .collect();
    // Biggest absolute improvement first.
    vars.sort_by(|a, b| {
        let wa = a.latency_remote.before - a.latency_remote.after;
        let wb = b.latency_remote.before - b.latency_remote.after;
        wb.total_cmp(&wa)
    });

    DiffReport {
        remote_fraction: Delta::new(pb.remote_fraction, pa.remote_fraction),
        remote_latency: Delta::new(pb.remote_latency as f64, pa.remote_latency as f64),
        lpi: match (pb.lpi_numa, pa.lpi_numa) {
            (Some(b), Some(a)) => Some(Delta::new(b, a)),
            _ => None,
        },
        program_before: pb,
        program_after: pa,
        vars,
    }
}

impl DiffReport {
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("NUMA profile diff (before → after)\n");
        s.push_str(&"=".repeat(72));
        s.push('\n');
        if let Some(lpi) = &self.lpi {
            let _ = writeln!(
                s,
                "lpi_NUMA:           {:.3} → {:.3}  ({:+.1}%)",
                lpi.before,
                lpi.after,
                lpi.relative() * 100.0
            );
        }
        let _ = writeln!(
            s,
            "remote fraction:    {:.1}% → {:.1}%",
            self.remote_fraction.before * 100.0,
            self.remote_fraction.after * 100.0
        );
        let _ = writeln!(
            s,
            "remote latency:     {} → {}  ({:+.1}%)",
            self.remote_latency.before as u64,
            self.remote_latency.after as u64,
            self.remote_latency.relative() * 100.0
        );
        s.push('\n');
        let _ = writeln!(
            s,
            "{:<28} {:>14} {:>14} {:>10}",
            "variable", "rem.lat before", "rem.lat after", "change"
        );
        s.push_str(&"-".repeat(70));
        s.push('\n');
        for v in &self.vars {
            let change = match v.only_in {
                Some(side) => format!("only {side}"),
                None => format!("{:+.1}%", v.latency_remote.relative() * 100.0),
            };
            let _ = writeln!(
                s,
                "{:<28} {:>14} {:>14} {:>10}",
                v.name, v.latency_remote.before as u64, v.latency_remote.after as u64, change
            );
        }
        s
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&crate::json::diff_report(self)).expect("diff prints")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{DomainId, Machine, MachinePreset, PlacementPolicy};
    use numa_profiler::{finish_profile, NumaProfiler, ProfilerConfig};
    use numa_sampling::{MechanismConfig, MechanismKind};
    use numa_sim::Program;
    use std::rc::Rc;

    fn run(policy: PlacementPolicy) -> Analyzer {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let cfg = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), cfg, 8));
        let mut p = Program::new(machine.clone(), 8, profiler.clone());
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("data", 8 << 20, policy);
        });
        p.parallel("sweep", |tid, ctx| {
            let chunk = (8u64 << 20) / 8;
            for off in (0..chunk).step_by(64) {
                ctx.load(base + tid as u64 * chunk + off, 8);
            }
        });
        Analyzer::new(finish_profile(p, profiler))
    }

    #[test]
    fn diff_shows_the_fix_landing() {
        let machine_for_policy = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let before = run(PlacementPolicy::Bind(DomainId(0)));
        let after = run(machine_for_policy.blockwise_for_threads(8));
        let d = diff(&before, &after);
        assert!(d.remote_fraction.before > 0.8);
        assert!(d.remote_fraction.after < 0.05);
        assert!(d.lpi.unwrap().relative() < -0.9, "lpi collapsed");
        let data = d.vars.iter().find(|v| v.name == "data").unwrap();
        assert!(data.latency_remote.relative() < -0.9);
        assert_eq!(data.only_in, None);
        let text = d.render();
        assert!(text.contains("data"));
        assert!(text.contains("lpi_NUMA"));
    }

    #[test]
    fn diff_flags_variables_present_on_one_side() {
        let a = run(PlacementPolicy::Bind(DomainId(0)));
        let b = run(PlacementPolicy::Bind(DomainId(0)));
        let mut d = diff(&a, &b);
        // Forge a one-sided variable to exercise rendering.
        d.vars.push(VarDelta {
            name: "ghost".into(),
            kind: numa_sim::VarKind::Heap,
            m_remote: Delta::new(10.0, 0.0),
            latency_remote: Delta::new(100.0, 0.0),
            only_in: Some("before"),
        });
        assert!(d.render().contains("only before"));
    }

    #[test]
    fn delta_relative_handles_zero_baselines() {
        assert_eq!(Delta::new(0.0, 0.0).relative(), 0.0);
        assert!(Delta::new(0.0, 5.0).relative().is_infinite());
        assert!((Delta::new(10.0, 5.0).relative() + 0.5).abs() < 1e-12);
    }
}
