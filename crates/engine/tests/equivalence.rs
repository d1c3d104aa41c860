//! Equivalence proof: every engine query answers byte-for-byte what the
//! pre-engine scan path (the `oracle` module beside this file)
//! answers, on randomized profiles — including malformed ones the index
//! must degrade on exactly like the scans did: dangling `VarId`s in
//! metric and range tables, duplicate thread ids, duplicate range cells
//! within one thread, out-of-range region ids, and variable records
//! whose `id` disagrees with their table position.

mod oracle;

use numa_engine::Engine;
use numa_machine::{CpuId, DomainId};
use numa_profiler::{
    Cct, FirstTouchRecord, MetricSet, NumaProfile, RangeKey, RangeScope, RangeStat, ThreadProfile,
    Trace, VarId, VarRecord,
};
use numa_sampling::{Capabilities, MechanismKind};
use numa_sim::{Frame, FrameKind, FuncId, VarKind};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic xorshift64* generator: the whole profile derives from
/// one proptest-supplied seed, so failures reproduce from the seed
/// alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn gen_metrics(r: &mut Rng, domains: usize) -> MetricSet {
    let mut m = MetricSet::new(domains);
    m.m_local = r.below(100);
    m.m_remote = r.below(100);
    for d in 0..domains {
        m.per_domain[d] = r.below(50);
    }
    m.latency_total = r.below(2000);
    m.latency_remote = r.below(1000);
    m.latency_samples = r.below(40);
    m.samples_mem = r.below(120);
    m.samples_instr = r.below(300);
    m.loads = r.below(80);
    m.stores = r.below(80);
    for slot in m.level_hist.iter_mut() {
        *slot = r.below(20);
    }
    m.first_touch_samples = r.below(8);
    m
}

fn gen_path(r: &mut Rng, nfuncs: usize) -> Vec<Frame> {
    (0..r.below(4))
        .map(|_| Frame {
            // +1: occasionally reference a function past the name table.
            func: FuncId(r.below(nfuncs as u64 + 1) as u32),
            kind: match r.below(3) {
                0 => FrameKind::Function,
                1 => FrameKind::ParallelRegion,
                _ => FrameKind::Loop,
            },
        })
        .collect()
}

fn gen_range_key(r: &mut Rng, nvars: usize, nfuncs: usize) -> RangeKey {
    RangeKey {
        // +2: dangling variable ids must behave like the scans.
        var: VarId(r.below(nvars as u64 + 2) as u32),
        bin: r.below(4) as u16,
        scope: if r.chance(2) {
            RangeScope::Program
        } else {
            RangeScope::Region(FuncId(r.below(nfuncs as u64 + 1) as u32))
        },
    }
}

fn gen_profile(seed: u64) -> NumaProfile {
    let mut r = Rng::new(seed);
    let domains = 1 + r.below(4) as usize;
    let nfuncs = 1 + r.below(6) as usize;
    let nvars = r.below(6) as usize;

    let vars: Vec<VarRecord> = (0..nvars)
        .map(|i| VarRecord {
            // Mostly id == table position, occasionally mismatched: the
            // engine's name lookup must return the record's own id,
            // exactly as `var_by_name(..).id` did.
            id: if r.chance(8) {
                VarId(r.below(nvars as u64 + 2) as u32)
            } else {
                VarId(i as u32)
            },
            // Duplicate names allowed: first match must win.
            name: format!("v{}", r.below(nvars as u64)),
            addr: 0x1000 + i as u64 * 0x10_0000,
            bytes: if r.chance(10) {
                0
            } else {
                1 + r.below(1 << 16)
            },
            kind: match r.below(3) {
                0 => VarKind::Heap,
                1 => VarKind::Static,
                _ => VarKind::Stack,
            },
            alloc_tid: r.below(8) as usize,
            alloc_path: gen_path(&mut r, nfuncs),
            bins: 1 + r.below(5) as u16,
            freed: r.chance(4),
        })
        .collect();

    let nthreads = r.below(6) as usize;
    let threads: Vec<ThreadProfile> = (0..nthreads)
        .map(|i| {
            let mut cct = Cct::new(domains);
            for _ in 0..r.below(6) {
                let stack = gen_path(&mut r, nfuncs);
                let line = r.below(5) as u32;
                let id = cct.resolve(&stack, line);
                let m = gen_metrics(&mut r, domains);
                cct.node_mut(id).metrics.merge(&m);
            }
            let var_metrics = (0..r.below(8))
                .map(|_| {
                    // Dangling ids and repeated entries for one var.
                    let v = VarId(r.below(nvars as u64 + 2) as u32);
                    (v, gen_metrics(&mut r, domains))
                })
                .collect();
            let mut ranges: Vec<(RangeKey, RangeStat)> = Vec::new();
            for _ in 0..r.below(10) {
                let key = if !ranges.is_empty() && r.chance(3) {
                    // Duplicate cell within the same thread: build-time
                    // dedup must merge it like per-query accumulation.
                    ranges[r.below(ranges.len() as u64) as usize].0
                } else {
                    gen_range_key(&mut r, nvars, nfuncs)
                };
                let lo = r.below(1 << 20);
                ranges.push((
                    key,
                    RangeStat {
                        min_addr: lo,
                        max_addr: lo + r.below(1 << 16),
                        count: r.below(40),
                        latency: r.below(500),
                        latency_remote: r.below(250),
                    },
                ));
            }
            ThreadProfile {
                // Duplicate tids allowed: they must stay separate rows.
                tid: if r.chance(3) { r.below(3) as usize } else { i },
                cpu: CpuId(r.below(32) as u16),
                domain: DomainId(r.below(domains as u64) as u8),
                cct,
                totals: gen_metrics(&mut r, domains),
                instructions: r.below(1 << 20),
                numa_events: r.below(1 << 12),
                var_metrics,
                ranges,
                trace: Trace::default(),
                stack_underflows: r.below(2),
            }
        })
        .collect();

    let first_touches = (0..r.below(8))
        .map(|_| FirstTouchRecord {
            var: VarId(r.below(nvars as u64 + 2) as u32),
            tid: r.below(8) as usize,
            cpu: CpuId(r.below(32) as u16),
            domain: DomainId(r.below(domains as u64) as u8),
            addr: r.below(1 << 30),
            is_store: r.chance(2),
            line: r.below(100) as u32,
            path: gen_path(&mut r, nfuncs),
        })
        .collect();

    let mechanism = match r.below(4) {
        0 => MechanismKind::Ibs,
        1 => MechanismKind::Mrk,
        2 => MechanismKind::Pebs,
        _ => MechanismKind::Dear,
    };
    NumaProfile {
        mechanism,
        capabilities: Capabilities::for_kind(mechanism),
        domains,
        machine_name: format!("rig-{}", r.below(4)),
        func_names: (0..nfuncs).map(|i| format!("fn{i}")).collect(),
        vars,
        threads,
        first_touches,
    }
}

/// Thresholds exercising both hot-bin regimes: below and above the
/// floor-of-2 cut.
const THRESHOLDS: &[f64] = &[0.0, 0.5, 1.0, 2.5];

proptest! {
    #[test]
    fn engine_queries_match_the_scan_oracle(seed in 0u64..u64::MAX) {
        let profile = gen_profile(seed);
        let engine = Engine::new(Arc::new(profile.clone()));
        let domains = profile.domains;

        // Program totals and the Eq. 3 counters.
        let (totals, _, merged_ranges) = oracle::merge_threads(&profile);
        prop_assert_eq!(engine.totals(), &totals);
        prop_assert_eq!(
            engine.total_instructions(),
            profile.total_instructions()
        );
        prop_assert_eq!(
            engine.total_numa_events(),
            profile.threads.iter().map(|t| t.numa_events).sum::<u64>()
        );

        // Every plausible id plus guaranteed-dangling ones.
        let probe_vars: Vec<VarId> = (0..profile.vars.len() as u32 + 2)
            .map(VarId)
            .chain([VarId(u32::MAX)])
            .collect();
        let probe_scopes: Vec<RangeScope> = std::iter::once(RangeScope::Program)
            .chain((0..profile.func_names.len() as u32 + 1).map(|f| RangeScope::Region(FuncId(f))))
            .collect();

        for &v in &probe_vars {
            let expect = oracle::var_metrics(&profile, v);
            let got = engine
                .var_metrics(v)
                .cloned()
                .unwrap_or_else(|| MetricSet::new(domains));
            prop_assert_eq!(got, expect, "var_metrics({:?})", v);

            prop_assert_eq!(
                engine.var_regions(v),
                oracle::var_regions(&profile, v),
                "var_regions({:?})", v
            );
            prop_assert_eq!(
                engine.first_touch_sites(v),
                oracle::first_touch_sites(&profile, v),
                "first_touch_sites({:?})", v
            );

            for &scope in &probe_scopes {
                for &th in THRESHOLDS {
                    prop_assert_eq!(
                        engine.thread_ranges(v, scope, th),
                        oracle::thread_ranges(&profile, v, scope, th),
                        "thread_ranges({:?}, {:?}, {})", v, scope, th
                    );
                }
                for bin in 0..4u16 {
                    let key = RangeKey { var: v, bin, scope };
                    prop_assert_eq!(
                        engine.merged_range(&key),
                        merged_ranges.get(&key),
                        "merged_range({:?})", key
                    );
                }
            }
        }

        // The merged CCT: `Cct` has no `PartialEq`, so compare the
        // serialized trees — node order is part of the contract (stable
        // ids for downstream renderers).
        let expect_cct = serde_json::to_string(&oracle::merged_cct(&profile)).unwrap();
        let got_cct = serde_json::to_string(engine.merged_cct()).unwrap();
        prop_assert_eq!(got_cct, expect_cct);

        // Interned name lookups vs. the linear scans, for present and
        // absent names of both tables.
        for name in profile.vars.iter().map(|v| v.name.as_str()).chain(["nope"]) {
            prop_assert_eq!(
                engine.var_named(name),
                oracle::var_named(&profile, name),
                "var_named({:?})", name
            );
        }
        for name in profile.func_names.iter().map(String::as_str).chain(["nope"]) {
            prop_assert_eq!(
                engine.func_named(name),
                oracle::func_named(&profile, name),
                "func_named({:?})", name
            );
        }
    }
}
