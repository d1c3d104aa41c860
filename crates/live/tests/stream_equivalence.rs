//! Property: for ANY chunking granularity and ANY arrival order of the
//! chunk contents, a sealed streaming session is byte-identical to
//! one-shot ingestion — same content hash, same store set hash, same
//! aggregate report text.

use numa_live::{LiveConfig, SessionManager};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use numa_store::stream::split_profile;
use numa_store::{ProfileId, ProfileStore};
use proptest::prelude::*;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

fn profile(rounds: usize) -> NumaProfile {
    let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
    let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
    let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
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

/// Each corpus profile and its one-shot oracle hashes, computed once
/// per test process.
struct Oracle {
    profile: NumaProfile,
    id: ProfileId,
    set_hash: u64,
    aggregate: String,
}

fn oracles() -> &'static [Oracle; 2] {
    static ORACLES: OnceLock<[Oracle; 2]> = OnceLock::new();
    ORACLES.get_or_init(|| {
        [profile(1), profile(2)].map(|profile| {
            let store = ProfileStore::new();
            let (id, _) = store.ingest_profile("run", profile.clone()).unwrap();
            Oracle {
                profile,
                id,
                set_hash: store.set_hash(),
                aggregate: store.aggregate().unwrap().text(),
            }
        })
    })
}

proptest! {
    #[test]
    fn sealed_stream_matches_oneshot(
        which in 0usize..2,
        per in 1usize..9,
        shuffle_seed in any::<u64>(),
    ) {
        let oracle = &oracles()[which];

        // Random granularity, then a random permutation of the chunk
        // *contents* — sequence numbers stay 0..n (the wire contract),
        // but assembly must not care which part arrives when.
        let mut chunks = split_profile(&oracle.profile, per);
        let mut state = shuffle_seed | 1;
        for i in (1..chunks.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            chunks.swap(i, j);
        }

        let store = Arc::new(ProfileStore::new());
        let mgr = SessionManager::new(Arc::clone(&store), LiveConfig::default());
        let ticket = mgr.open("run").unwrap();
        for (seq, chunk) in chunks.iter().enumerate() {
            mgr.append_binary(ticket.session, seq as u64, &chunk.to_binary()).unwrap();
        }
        let sealed = mgr.seal(ticket.session).unwrap();
        mgr.stop();

        prop_assert!(sealed.added);
        prop_assert_eq!(sealed.chunks, chunks.len() as u64);
        prop_assert_eq!(sealed.id, oracle.id);
        prop_assert_eq!(store.set_hash(), oracle.set_hash);
        prop_assert_eq!(store.aggregate().unwrap().text(), oracle.aggregate.clone());
    }
}
