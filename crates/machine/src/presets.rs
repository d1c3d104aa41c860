//! The five evaluation systems of the paper (Table 1) as machine presets.

use crate::latency::LatencyModel;
use crate::topology::Topology;
use serde::Serialize;

const GIB: u64 = 1 << 30;

/// The machines used in the paper's experiments (§8, Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum MachinePreset {
    /// Four 12-core AMD Magny-Cours packages. Each package holds two 6-core
    /// dies, each die a NUMA domain: 8 domains, 48 cores, 128 GiB evenly
    /// divided across the domains. Used for IBS and Soft-IBS experiments.
    AmdMagnyCours,
    /// Four 8-core POWER7 processors with 4-way SMT: 128 hardware threads,
    /// 64 GiB. The paper treats each socket as one NUMA domain. Used for MRK.
    IbmPower7,
    /// Intel Xeon Harpertown, 8 cores. Two front-side-bus sockets; modeled as
    /// two domains of four cores. Used for PEBS.
    IntelHarpertown,
    /// Intel Itanium 2, 8 threads across two domains. Used for DEAR.
    IntelItanium2,
    /// Intel Ivy Bridge, 8 threads across two domains. Used for PEBS-LL.
    IntelIvyBridge,
}

impl MachinePreset {
    /// All presets, in Table 1 order.
    pub const ALL: [MachinePreset; 5] = [
        MachinePreset::AmdMagnyCours,
        MachinePreset::IbmPower7,
        MachinePreset::IntelHarpertown,
        MachinePreset::IntelItanium2,
        MachinePreset::IntelIvyBridge,
    ];

    pub fn topology(self) -> Topology {
        match self {
            MachinePreset::AmdMagnyCours => Topology::new("AMD Magny-Cours", 8, 2, 6, 1, 16 * GIB),
            MachinePreset::IbmPower7 => Topology::new("IBM POWER7", 4, 1, 8, 4, 16 * GIB),
            MachinePreset::IntelHarpertown => {
                Topology::new("Intel Xeon Harpertown", 2, 1, 4, 1, 8 * GIB)
            }
            MachinePreset::IntelItanium2 => Topology::new("Intel Itanium 2", 2, 1, 4, 1, 8 * GIB),
            MachinePreset::IntelIvyBridge => {
                Topology::new("Intel Ivy Bridge", 2, 1, 4, 1, 16 * GIB)
            }
        }
    }

    /// Marketing name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            MachinePreset::AmdMagnyCours => "AMD Magny-Cours",
            MachinePreset::IbmPower7 => "IBM POWER 7",
            MachinePreset::IntelHarpertown => "Intel Xeon Harpertown",
            MachinePreset::IntelItanium2 => "Intel Itanium 2",
            MachinePreset::IntelIvyBridge => "Intel Ivy Bridge",
        }
    }

    /// Hardware-thread count as reported in Table 1's "Threads" column.
    pub fn table1_threads(self) -> usize {
        self.topology().total_cpus()
    }

    /// A latency model tuned per machine: the remote/local DRAM ratio and
    /// hop costs differ across the five systems (e.g. POWER7's on-package
    /// links are faster relative to its local latency, Harpertown's two
    /// front-side-bus domains are nearly uniform).
    pub fn latency_model(self) -> LatencyModel {
        let mut m = LatencyModel::default_for(&self.topology());
        match self {
            MachinePreset::AmdMagnyCours => {
                // HyperTransport mesh: visible hop costs, 8 small domains.
                m.mem_local = 150;
                m.mem_remote = 250;
                m.per_hop = 30;
            }
            MachinePreset::IbmPower7 => {
                // Big sockets, fast fabric: lower remote ratio, pricier
                // per-hop.
                m.mem_local = 140;
                m.mem_remote = 210;
                m.per_hop = 40;
                m.l3_local_hit = 34;
            }
            MachinePreset::IntelHarpertown => {
                // Front-side bus: nearly uniform memory, slow overall.
                m.mem_local = 190;
                m.mem_remote = 220;
                m.per_hop = 10;
            }
            MachinePreset::IntelItanium2 => {
                m.mem_local = 200;
                m.mem_remote = 300;
                m.per_hop = 30;
            }
            MachinePreset::IntelIvyBridge => {
                // Modern two-socket QPI part: fast local, ~1.6× remote.
                m.mem_local = 120;
                m.mem_remote = 195;
                m.per_hop = 25;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_thread_counts_match_paper() {
        assert_eq!(MachinePreset::AmdMagnyCours.table1_threads(), 48);
        assert_eq!(MachinePreset::IbmPower7.table1_threads(), 128);
        assert_eq!(MachinePreset::IntelHarpertown.table1_threads(), 8);
        assert_eq!(MachinePreset::IntelItanium2.table1_threads(), 8);
        assert_eq!(MachinePreset::IntelIvyBridge.table1_threads(), 8);
    }

    #[test]
    fn magny_cours_has_eight_domains() {
        let t = MachinePreset::AmdMagnyCours.topology();
        assert_eq!(t.domains(), 8);
        assert_eq!(t.sockets(), 4);
        // 128 GiB evenly divided into eight NUMA domains (§8).
        assert_eq!(t.mem_per_domain() * 8, 128 * GIB);
    }

    #[test]
    fn preset_latency_models_keep_remote_penalty() {
        // §2: remote accesses have more than 30% higher latency — true on
        // every modeled machine except the near-uniform FSB Harpertown
        // (whose two "domains" share a bus).
        for p in MachinePreset::ALL {
            let m = p.latency_model();
            let ratio = m.mem_remote as f64 / m.mem_local as f64;
            if p == MachinePreset::IntelHarpertown {
                assert!(ratio > 1.0 && ratio < 1.3, "{p:?}: {ratio}");
            } else {
                assert!(ratio >= 1.3, "{p:?}: {ratio}");
            }
        }
    }

    #[test]
    fn power7_socket_is_one_domain() {
        let t = MachinePreset::IbmPower7.topology();
        assert_eq!(t.domains(), 4);
        assert_eq!(t.smt(), 4);
        assert_eq!(t.mem_per_domain() * 4, 64 * GIB);
    }
}
