//! Page placement policies (§2, Figure 1).
//!
//! A policy decides which NUMA domain backs a page the first time it is
//! touched. [`PlacementPolicy::FirstTouch`] is the Linux default the paper
//! discusses at length; the others are the optimization levers the tool's
//! guidance recommends (interleaving for contention reduction, block-wise
//! distribution for co-location, explicit binding).

use crate::ids::{DomainId, PAGE_SHIFT};
use serde::Serialize;

/// How pages of an allocation region are bound to NUMA domains.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub enum PlacementPolicy {
    /// Linux default: a page is bound to the domain of the thread that first
    /// reads or writes it.
    FirstTouch,
    /// Pages are bound round-robin across the listed domains in page order —
    /// `numactl --interleave`. An empty list means "all domains".
    Interleaved { domains: Vec<DomainId> },
    /// The region is split into `domains.len()` equal contiguous blocks of
    /// pages; block `i` is bound entirely to `domains[i]`. This is the
    /// co-location distribution the paper's case studies implement by
    /// adjusting first-touch code.
    BlockWise { domains: Vec<DomainId> },
    /// Every page of the region is bound to one explicit domain.
    Bind(DomainId),
}

impl PlacementPolicy {
    /// Interleave across all `n` domains of a machine.
    pub fn interleave_all(n: usize) -> Self {
        PlacementPolicy::Interleaved {
            domains: (0..n).map(|d| DomainId(d as u8)).collect(),
        }
    }

    /// Block-wise across all `n` domains of a machine.
    pub fn blockwise_all(n: usize) -> Self {
        PlacementPolicy::BlockWise {
            domains: (0..n).map(|d| DomainId(d as u8)).collect(),
        }
    }

    /// Resolve the domain for a page, or `None` if the decision belongs to
    /// the toucher (first-touch).
    ///
    /// * `page_index` — index of the page within its region (0-based).
    /// * `region_pages` — total pages in the region.
    pub fn domain_for_page(&self, page_index: u64, region_pages: u64) -> Option<DomainId> {
        match self {
            PlacementPolicy::FirstTouch => None,
            PlacementPolicy::Interleaved { domains } => {
                assert!(!domains.is_empty(), "interleave domain list is empty");
                Some(domains[(page_index % domains.len() as u64) as usize])
            }
            PlacementPolicy::BlockWise { domains } => {
                assert!(!domains.is_empty(), "block-wise domain list is empty");
                let n = domains.len() as u64;
                // Balanced partition: block i covers pages
                // [i·P/n, (i+1)·P/n), so block sizes differ by at most one
                // page and every listed domain receives pages whenever
                // P ≥ n (a ceiling-divide split can starve the trailing
                // domains entirely).
                let idx = (page_index.min(region_pages - 1) as u128 * n as u128
                    / region_pages.max(1) as u128) as u64;
                Some(domains[idx.min(n - 1) as usize])
            }
            PlacementPolicy::Bind(d) => Some(*d),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstTouch => "first-touch",
            PlacementPolicy::Interleaved { .. } => "interleaved",
            PlacementPolicy::BlockWise { .. } => "block-wise",
            PlacementPolicy::Bind(_) => "bind",
        }
    }
}

/// Convenience: number of whole pages covering a byte-size region.
pub fn region_pages(bytes: u64) -> u64 {
    bytes.div_ceil(1 << PAGE_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u8) -> DomainId {
        DomainId(i)
    }

    #[test]
    fn first_touch_defers() {
        assert_eq!(PlacementPolicy::FirstTouch.domain_for_page(0, 100), None);
    }

    #[test]
    fn bind_is_constant() {
        let p = PlacementPolicy::Bind(d(5));
        for i in 0..10 {
            assert_eq!(p.domain_for_page(i, 10), Some(d(5)));
        }
    }

    #[test]
    fn interleave_round_robins() {
        let p = PlacementPolicy::interleave_all(4);
        let got: Vec<_> = (0..8).map(|i| p.domain_for_page(i, 8).unwrap().0).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn blockwise_splits_evenly() {
        let p = PlacementPolicy::blockwise_all(4);
        // 8 pages over 4 domains: blocks of 2.
        let got: Vec<_> = (0..8).map(|i| p.domain_for_page(i, 8).unwrap().0).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn blockwise_remainder_is_balanced() {
        let p = PlacementPolicy::blockwise_all(4);
        // 10 pages over 4 domains: balanced blocks of size 3,2,3,2.
        let got: Vec<_> = (0..10)
            .map(|i| p.domain_for_page(i, 10).unwrap().0)
            .collect();
        assert_eq!(got, vec![0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn blockwise_covers_every_domain_when_possible() {
        // The ceiling-divide formulation starved trailing domains (e.g.
        // 8 pages over 5 domains never used domain 4); the balanced split
        // must not.
        for domains in 1..8u64 {
            for pages in domains..64 {
                let p = PlacementPolicy::blockwise_all(domains as usize);
                let mut seen = vec![false; domains as usize];
                for i in 0..pages {
                    seen[p.domain_for_page(i, pages).unwrap().0 as usize] = true;
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{pages} pages over {domains} domains"
                );
            }
        }
    }

    #[test]
    fn blockwise_more_domains_than_pages() {
        let p = PlacementPolicy::blockwise_all(8);
        // 3 pages over 8 domains: pages spread across distinct domains.
        let got: Vec<_> = (0..3).map(|i| p.domain_for_page(i, 3).unwrap().0).collect();
        assert_eq!(got.len(), 3);
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(dedup, got, "each page on a distinct domain");
    }

    #[test]
    fn blockwise_never_indexes_out_of_bounds() {
        let p = PlacementPolicy::blockwise_all(3);
        for pages in 1..50u64 {
            for i in 0..pages {
                let got = p.domain_for_page(i, pages).unwrap();
                assert!(got.0 < 3);
            }
        }
    }

    #[test]
    fn region_pages_rounds_up() {
        assert_eq!(region_pages(1), 1);
        assert_eq!(region_pages(4096), 1);
        assert_eq!(region_pages(4097), 2);
    }
}
