//! Inter-domain interconnect: hop distances between NUMA domains.
//!
//! The model distinguishes three distances: same domain (0 hops), a sibling
//! domain on the same socket (1 hop — e.g. the two dies of a Magny-Cours
//! package linked on-package), and a domain on another socket (2 hops).
//! This is enough structure to make "how far" matter without simulating a
//! full HyperTransport/QPI routing table.

use crate::ids::DomainId;
use crate::topology::Topology;
use serde::Serialize;

/// Symmetric hop-distance matrix between NUMA domains.
#[derive(Clone, Debug, Serialize)]
pub struct Interconnect {
    domains: usize,
    /// Row-major `domains × domains` hop counts.
    hops: Vec<u32>,
}

impl Interconnect {
    /// Derive distances from a topology: 0 within a domain, 1 between
    /// domains sharing a socket, 2 across sockets.
    pub fn for_topology(t: &Topology) -> Self {
        let n = t.domains();
        let mut hops = vec![0u32; n * n];
        for a in 0..n {
            for b in 0..n {
                let da = DomainId(a as u8);
                let db = DomainId(b as u8);
                hops[a * n + b] = if a == b {
                    0
                } else if t.socket_of_domain(da) == t.socket_of_domain(db) {
                    1
                } else {
                    2
                };
            }
        }
        Interconnect { domains: n, hops }
    }

    /// Build from an explicit matrix (must be square, symmetric, and zero on
    /// the diagonal).
    pub fn from_matrix(hops: Vec<Vec<u32>>) -> Self {
        let n = hops.len();
        let mut flat = Vec::with_capacity(n * n);
        for (i, row) in hops.iter().enumerate() {
            assert_eq!(row.len(), n, "hop matrix must be square");
            assert_eq!(row[i], 0, "diagonal must be zero");
            flat.extend_from_slice(row);
        }
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    flat[a * n + b],
                    flat[b * n + a],
                    "hop matrix must be symmetric"
                );
            }
        }
        Interconnect {
            domains: n,
            hops: flat,
        }
    }

    pub fn domains(&self) -> usize {
        self.domains
    }

    /// Hop count between two domains.
    pub fn hops(&self, a: DomainId, b: DomainId) -> u32 {
        assert!(a.index() < self.domains && b.index() < self.domains);
        self.hops[a.index() * self.domains + b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::MachinePreset;

    #[test]
    fn magny_cours_distances() {
        let t = MachinePreset::AmdMagnyCours.topology();
        let ic = Interconnect::for_topology(&t);
        // Same domain.
        assert_eq!(ic.hops(DomainId(0), DomainId(0)), 0);
        // Two dies of socket 0.
        assert_eq!(ic.hops(DomainId(0), DomainId(1)), 1);
        // Across sockets.
        assert_eq!(ic.hops(DomainId(0), DomainId(2)), 2);
        assert_eq!(ic.hops(DomainId(1), DomainId(7)), 2);
    }

    #[test]
    fn distances_are_symmetric() {
        let t = MachinePreset::AmdMagnyCours.topology();
        let ic = Interconnect::for_topology(&t);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(
                    ic.hops(DomainId(a), DomainId(b)),
                    ic.hops(DomainId(b), DomainId(a))
                );
            }
        }
    }

    #[test]
    fn explicit_matrix_roundtrips() {
        let ic = Interconnect::from_matrix(vec![vec![0, 3], vec![3, 0]]);
        assert_eq!(ic.hops(DomainId(0), DomainId(1)), 3);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        Interconnect::from_matrix(vec![vec![0, 1], vec![2, 0]]);
    }
}
