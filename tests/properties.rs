//! Property-based tests (proptest) over the core invariants.

use hpctoolkit_numa::machine::{
    AccessLevel, DomainId, LatencyModel, Machine, MachinePreset, PageMap, PlacementPolicy,
    PAGE_SIZE,
};
use hpctoolkit_numa::profiler::{
    finish_profile, MetricSet, NumaProfiler, ProfilerConfig, VarRecord,
};
use hpctoolkit_numa::sampling::{MechanismConfig, MechanismKind, Sample};
use hpctoolkit_numa::sim::{Program, VarKind};
use numa_machine::CpuId;
use proptest::prelude::*;
use std::rc::Rc;

fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        0usize..8,
        0u8..8,
        any::<u64>(),
        prop::option::of(0u32..1000),
        prop::option::of(prop::sample::select(vec![
            AccessLevel::L1,
            AccessLevel::L2,
            AccessLevel::L3Local,
            AccessLevel::L3Remote,
            AccessLevel::MemLocal,
            AccessLevel::MemRemote,
        ])),
        any::<bool>(),
    )
        .prop_map(|(tid, dom, addr, latency, level, is_store)| Sample {
            tid,
            cpu: CpuId(tid as u16),
            thread_domain: DomainId(dom),
            addr: Some(addr),
            size: Some(8),
            is_store: Some(is_store),
            latency,
            level,
            line: 0,
            precise_ip: true,
        })
}

proptest! {
    /// M_l + M_r always equals the number of samples with a resolved home
    /// domain, and per-domain counts sum to the same.
    #[test]
    fn metricset_counting_invariants(
        samples in prop::collection::vec((arb_sample(), prop::option::of(0u8..8)), 0..200)
    ) {
        let mut m = MetricSet::new(8);
        let mut resolved = 0u64;
        for (s, home) in &samples {
            m.add_sample(s, home.map(DomainId), false);
            if home.is_some() {
                resolved += 1;
            }
        }
        prop_assert_eq!(m.m_local + m.m_remote, resolved);
        prop_assert_eq!(m.per_domain.iter().sum::<u64>(), resolved);
        prop_assert_eq!(m.samples_mem as usize, samples.len());
        prop_assert!(m.latency_remote <= m.latency_total);
        prop_assert_eq!(m.loads + m.stores, samples.len() as u64);
    }

    /// Merging metric sets is associative and commutative in its totals.
    #[test]
    fn metricset_merge_is_order_independent(
        samples in prop::collection::vec((arb_sample(), prop::option::of(0u8..8)), 1..100),
        split in 1usize..99
    ) {
        let split = split.min(samples.len());
        let mut all = MetricSet::new(8);
        for (s, home) in &samples {
            all.add_sample(s, home.map(DomainId), false);
        }
        let mut left = MetricSet::new(8);
        let mut right = MetricSet::new(8);
        for (s, home) in &samples[..split] {
            left.add_sample(s, home.map(DomainId), false);
        }
        for (s, home) in &samples[split..] {
            right.add_sample(s, home.map(DomainId), false);
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        prop_assert_eq!(&lr, &all);
        prop_assert_eq!(&rl, &all);
    }

    /// Every placement policy sends every page of a region to a valid
    /// domain, and block-wise covers each listed domain for large regions.
    #[test]
    fn placement_policies_stay_in_range(
        pages in 1u64..512,
        domains in 1usize..8
    ) {
        for policy in [
            PlacementPolicy::interleave_all(domains),
            PlacementPolicy::blockwise_all(domains),
        ] {
            for p in 0..pages {
                let d = policy.domain_for_page(p, pages).unwrap();
                prop_assert!((d.0 as usize) < domains);
            }
        }
        if pages >= domains as u64 {
            let policy = PlacementPolicy::blockwise_all(domains);
            let mut seen = vec![false; domains];
            for p in 0..pages {
                seen[policy.domain_for_page(p, pages).unwrap().0 as usize] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "block-wise covers all domains");
        }
    }

    /// First touch on a page map binds each page exactly once, to the
    /// policy's choice (or the toucher for FirstTouch), and the binding is
    /// stable.
    #[test]
    fn page_binding_is_stable(
        touches in prop::collection::vec((0u64..64, 0u8..8), 1..200)
    ) {
        let map = PageMap::new(8);
        let base = 0x100_0000u64;
        map.register_region(base, 64 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let mut first: std::collections::HashMap<u64, DomainId> = Default::default();
        for (page, toucher) in touches {
            let q = map.touch(base + page * PAGE_SIZE + 8, DomainId(toucher));
            match first.entry(page) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    prop_assert!(q.bound_now);
                    prop_assert_eq!(q.domain, DomainId(toucher));
                    e.insert(q.domain);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    prop_assert!(!q.bound_now);
                    prop_assert_eq!(q.domain, *e.get());
                }
            }
        }
    }

    /// Bin geometry: every address maps to exactly the bin whose range
    /// contains it, for arbitrary variable sizes and bin counts.
    #[test]
    fn bins_partition_variables(
        bytes in 1u64..10_000_000,
        bins in 1u16..64,
        probe in 0u64..10_000_000
    ) {
        let rec = VarRecord {
            id: hpctoolkit_numa::profiler::VarId(0),
            name: "v".into(),
            addr: 0x4000,
            bytes,
            kind: VarKind::Heap,
            alloc_tid: 0,
            alloc_path: Vec::new(),
            bins,
            freed: false,
        };
        let addr = rec.addr + probe % bytes;
        let b = rec.bin_of(addr);
        let (lo, hi) = rec.bin_range(b);
        prop_assert!(addr >= lo && addr < hi, "addr {addr:#x} not in bin {b} [{lo:#x},{hi:#x})");
        // Ranges tile the extent.
        let mut expect = rec.addr;
        for i in 0..rec.bins.max(1) {
            let (lo, hi) = rec.bin_range(i);
            prop_assert_eq!(lo, expect);
            expect = hi;
        }
        prop_assert_eq!(expect, rec.addr + bytes);
    }

    /// Contention multipliers stay within [1, max] for arbitrary loads and
    /// are monotone in the load.
    #[test]
    fn contention_multiplier_bounds(load_a in 0.0f64..100.0, load_b in 0.0f64..100.0) {
        let lat = LatencyModel::default_for(&MachinePreset::AmdMagnyCours.topology());
        let ma = lat.contention_multiplier_load(load_a);
        let mb = lat.contention_multiplier_load(load_b);
        prop_assert!((1.0..=lat.contention_max).contains(&ma));
        if load_a <= load_b {
            prop_assert!(ma <= mb);
        }
    }

    /// Simulated programs conserve work: instructions ≥ memory accesses,
    /// and total sampled accesses never exceed real accesses.
    #[test]
    fn sampling_never_invents_accesses(period in 1u64..64, threads in 1usize..8) {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(
            MechanismConfig::for_tests(MechanismKind::SoftIbs, period)
        );
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, threads));
        let mut p = Program::new(machine, threads, profiler.clone());
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("v", 1 << 16, PlacementPolicy::FirstTouch);
            ctx.store_range(base, 64, 64);
        });
        p.parallel("w", |tid, ctx| {
            ctx.load_range(base + (tid as u64 % 4) * 1024, 128, 8);
        });
        let stats = p.stats();
        let profile = finish_profile(p, profiler);
        let sampled: u64 = profile.threads.iter().map(|t| t.totals.samples_mem).sum();
        prop_assert!(sampled <= stats.mem_accesses);
        prop_assert!(stats.instructions >= stats.mem_accesses);
        // With period 1 every access is sampled.
        if period == 1 {
            prop_assert_eq!(sampled, stats.mem_accesses);
        }
    }
}
