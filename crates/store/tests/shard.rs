//! Sharded-store tests: any interleaving of concurrent `ingest_batch` +
//! pooled `query` + `clear_cache` across shards must leave the store
//! indistinguishable (set hash and aggregate text) from a single-shard
//! oracle that applied the same ingests sequentially — sharding is a
//! performance layout, never a semantic change.

use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_obs::{parse_exposition, Registry};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use numa_store::{ProfileStore, StoreConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};

/// A small profile; `rounds` varies the content hash.
fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = std::rc::Rc::new(NumaProfiler::new(machine.clone(), config, 4));
    let mut p = Program::new(machine, 4, profiler.clone());
    let size = 1u64 << 18;
    let mut base = 0;
    p.serial("main", |ctx| {
        base = ctx.alloc("z", size, PlacementPolicy::FirstTouch);
        ctx.store_range(base, size / 64, 64);
    });
    for _ in 0..rounds {
        p.parallel("compute._omp", |tid, ctx| {
            let chunk = size / 4;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
    }
    finish_profile(p, profiler)
}

/// Codec bytes of four distinct profiles, generated once per test
/// process (profiler sampling is randomized, so the same `rounds` twice
/// would produce different content).
fn corpus() -> &'static [Vec<u8>; 4] {
    static CORPUS: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
    CORPUS.get_or_init(|| [1, 2, 3, 4].map(|rounds| numa_codec::encode_profile(&profile(rounds))))
}

fn sharded(shards: usize) -> ProfileStore {
    ProfileStore::with_config(StoreConfig {
        shards,
        ..StoreConfig::default()
    })
}

proptest! {
    /// Ops are `(kind, profile index)`: kind 0 = ingest_batch of that
    /// profile, 1 = pooled aggregate query, 2 = clear_cache. The op list
    /// is dealt round-robin to `threads` OS threads running against an
    /// 8-shard store; the oracle replays the ingests sequentially into a
    /// single-shard store.
    #[test]
    fn concurrent_ops_match_single_shard_oracle(
        ops in prop::collection::vec((0usize..3, 0usize..4), 1..16),
        threads in 1usize..4,
    ) {
        let corpus = corpus();
        let store = sharded(8);
        std::thread::scope(|s| {
            for t in 0..threads {
                let ops = &ops;
                let store = &store;
                s.spawn(move || {
                    for (kind, idx) in ops.iter().skip(t).step_by(threads) {
                        match kind {
                            0 => {
                                let inputs =
                                    vec![(format!("run-{idx}"), corpus[*idx].clone())];
                                store.ingest_batch(&inputs);
                            }
                            1 => {
                                // EmptyStore is legal mid-interleaving.
                                let _ = store.aggregate();
                            }
                            _ => store.clear_cache(),
                        }
                    }
                });
            }
        });

        let oracle = sharded(1);
        for (kind, idx) in &ops {
            if *kind == 0 {
                oracle
                    .ingest_binary(&format!("run-{idx}"), &corpus[*idx])
                    .expect("corpus parses");
            }
        }
        prop_assert_eq!(store.len(), oracle.len());
        prop_assert_eq!(store.set_hash(), oracle.set_hash());
        if !store.is_empty() {
            prop_assert_eq!(
                store.aggregate().expect("non-empty").text(),
                oracle.aggregate().expect("non-empty").text()
            );
        }
    }
}

/// A pooled hit never outlives its set. Round by round, three threads
/// each ingest one new profile while a fourth — released from the same
/// barrier — loops `aggregate()`, which answers from the memo cache
/// whenever the live set hash still has an entry. Every answer must
/// cover at least the ingests acknowledged before the call began; with
/// the round's writers done, the next lookup is a hit on exactly that
/// set; and the last answer is the one a fresh store gives over the
/// same corpus.
#[test]
fn pooled_hits_never_outlive_their_set_under_racing_ingests() {
    const WRITERS: usize = 3;
    const ROUNDS: usize = 4;
    let runs: Vec<NumaProfile> = (1..=WRITERS * ROUNDS).map(profile).collect();
    let store = sharded(8);
    let acked = AtomicUsize::new(0);
    let round_start = Barrier::new(WRITERS + 1);
    // Collected, not asserted, inside the scope: a thread that panicked
    // mid-round would leave the others parked at the barrier for good.
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let violation = |what: String| violations.lock().unwrap().push(what);
    std::thread::scope(|s| {
        for (w, mine) in runs.chunks(ROUNDS).enumerate() {
            let (store, acked, round_start, violation) = (&store, &acked, &round_start, &violation);
            s.spawn(move || {
                for (round, p) in mine.iter().enumerate() {
                    round_start.wait();
                    let outcome = store.ingest_profile(&format!("w{w}-{round}"), p.clone());
                    if !matches!(outcome, Ok((_, true))) {
                        violation(format!("w{w}-{round} was not added: {outcome:?}"));
                    }
                    acked.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for round in 1..=ROUNDS {
            round_start.wait();
            loop {
                let floor = acked.load(Ordering::SeqCst);
                let runs = match store.aggregate() {
                    Ok(a) => a.as_aggregate().unwrap().runs,
                    Err(_) => 0,
                };
                if runs < floor {
                    violation(format!("{runs} run(s) answered after {floor} ack(s)"));
                }
                // Checked after the query, so the last lap ran against
                // the round's whole set and left its entry behind.
                if floor == round * WRITERS {
                    break;
                }
            }
            // The writers are parked at the next barrier: the set is
            // still, and the lookup must be served from that entry.
            let hits = store.cache_stats().hits;
            let settled = store.aggregate().unwrap().as_aggregate().unwrap().runs;
            if settled != round * WRITERS || store.cache_stats().hits != hits + 1 {
                violation(format!("round {round} settled on {settled} run(s)"));
            }
        }
    });
    assert_eq!(violations.into_inner().unwrap(), Vec::<String>::new());

    let fresh = sharded(1);
    for (i, p) in runs.iter().enumerate() {
        let label = format!("w{}-{}", i / ROUNDS, i % ROUNDS);
        fresh.ingest_profile(&label, p.clone()).unwrap();
    }
    let last = store.aggregate().unwrap();
    assert_eq!(last.text(), fresh.aggregate().unwrap().text());
}

#[test]
fn shard_count_rounds_to_power_of_two_and_clamps() {
    assert_eq!(sharded(1).shard_count(), 1);
    assert_eq!(sharded(5).shard_count(), 8);
    assert_eq!(sharded(8).shard_count(), 8);
    assert_eq!(sharded(0).shard_count(), 1);
    assert_eq!(sharded(10_000).shard_count(), 256);
}

#[test]
fn listings_preserve_insertion_order_across_shards() {
    let corpus = corpus();
    let store = sharded(8);
    for (i, bytes) in corpus.iter().enumerate() {
        store
            .ingest_binary(&format!("run-{i}"), bytes)
            .expect("parses");
    }
    let labels: Vec<String> = store
        .entries()
        .iter()
        .map(|e| e.label.to_string())
        .collect();
    assert_eq!(labels, ["run-0", "run-1", "run-2", "run-3"]);
    // ids() and entries() agree on the order.
    let ids: Vec<_> = store.entries().iter().map(|e| e.id).collect();
    assert_eq!(ids, store.ids());
}

#[test]
fn shard_stats_account_for_every_profile_and_ingest() {
    let corpus = corpus();
    let store = Arc::new(sharded(8));
    for (i, bytes) in corpus.iter().enumerate() {
        store
            .ingest_binary(&format!("run-{i}"), bytes)
            .expect("parses");
    }
    // Re-ingest one duplicate: counted as a dedup hit, not a shard ingest.
    store.ingest_binary("dup", &corpus[0]).expect("parses");

    let shards = store.shard_stats();
    assert_eq!(shards.len(), 8);
    assert_eq!(shards.iter().map(|s| s.profiles).sum::<usize>(), 4);
    assert_eq!(shards.iter().map(|s| s.ingests).sum::<u64>(), 4);
    // The exposition carries the same rows, one labelled series each.
    let registry = Registry::new();
    store.register_metrics(&registry);
    let series = parse_exposition(&registry.render()).expect("exposition parses");
    assert_eq!(series["numa_store_dedup_hits_total"], 1);
    for (i, shard) in shards.iter().enumerate() {
        let row = |family: &str| series[&format!("{family}{{shard=\"{i}\"}}")];
        assert_eq!(row("numa_store_shard_profiles"), shard.profiles as i128);
        assert_eq!(row("numa_store_shard_ingests_total"), shard.ingests as i128);
    }
    assert!(!series.contains_key("numa_store_shard_profiles{shard=\"8\"}"));
}

#[test]
fn single_shard_matches_default_semantics() {
    let corpus = corpus();
    let one = sharded(1);
    let eight = sharded(8);
    for (i, bytes) in corpus.iter().enumerate() {
        one.ingest_binary(&format!("run-{i}"), bytes)
            .expect("parses");
    }
    // Reverse order into the 8-shard store: set hash is order- and
    // layout-insensitive.
    for (i, bytes) in corpus.iter().enumerate().rev() {
        eight
            .ingest_binary(&format!("run-{i}"), bytes)
            .expect("parses");
    }
    assert_eq!(one.set_hash(), eight.set_hash());
    assert_eq!(
        one.aggregate().expect("non-empty").text(),
        eight.aggregate().expect("non-empty").text()
    );
}
