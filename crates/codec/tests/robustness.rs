//! Adversarial-input properties for the codec: any single-byte flip or
//! truncation of an encoded profile either decodes to a typed
//! [`CodecError`] or round-trips to a well-formed profile — never a
//! panic, never an input-sized allocation (the counts that size
//! buffers are clamped against the bytes actually present, the same
//! discipline as the WAL scanner's `body_len` clamp).

use numa_codec::{decode_profile, decode_threads, encode_profile, encode_threads, ProfileView};
use numa_machine::{Machine, MachinePreset, PlacementPolicy};
use numa_profiler::{finish_profile, NumaProfile, NumaProfiler, ProfilerConfig};
use numa_sampling::{MechanismConfig, MechanismKind};
use numa_sim::Program;
use proptest::prelude::*;
use std::rc::Rc;
use std::sync::OnceLock;

fn profile() -> &'static NumaProfile {
    static P: OnceLock<NumaProfile> = OnceLock::new();
    P.get_or_init(|| {
        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config =
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8)).with_trace(500);
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
        let mut p = Program::new(machine, 4, profiler.clone());
        let size = 1u64 << 18;
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("grid", size, PlacementPolicy::FirstTouch);
            ctx.store_range(base, size / 64, 64);
        });
        p.parallel("solve._omp", |tid, ctx| {
            let chunk = size / 4;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
        finish_profile(p, profiler)
    })
}

fn encoded() -> &'static Vec<u8> {
    static E: OnceLock<Vec<u8>> = OnceLock::new();
    E.get_or_init(|| encode_profile(profile()))
}

fn encoded_batch() -> &'static Vec<u8> {
    static E: OnceLock<Vec<u8>> = OnceLock::new();
    E.get_or_init(|| encode_threads(&profile().threads))
}

proptest! {
    /// Flipping any byte to any other value never panics, and whatever
    /// still decodes re-encodes cleanly (the decoder produced a
    /// well-formed profile, not a half-materialized one).
    #[test]
    fn single_byte_flips_never_panic(pos in 0usize..1 << 20, xor in 1usize..256) {
        let mut bytes = encoded().clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= xor as u8;
        if let Ok(decoded) = decode_profile(&bytes) {
            // A flip inside a name string or a metric value can survive
            // validation; the result must still be a complete profile.
            let _ = encode_profile(&decoded);
        }
    }

    /// Every proper prefix of a full-profile container is a typed
    /// error: the trailing section is required, so a truncated buffer
    /// can never silently decode to less data.
    #[test]
    fn truncations_are_typed_errors(cut in 0usize..1 << 20) {
        let bytes = encoded();
        let cut = cut % bytes.len();
        prop_assert!(decode_profile(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        // The view parser obeys the same bound (it validates the column
        // framing up front even though bodies stay undecoded).
        if let Ok(view) = ProfileView::parse(&bytes[..cut]) {
            prop_assert!(view.to_profile().is_err());
        }
    }

    /// Thread-batch containers (streaming chunks) hold the same line.
    #[test]
    fn thread_batch_flips_and_truncations_never_panic(
        pos in 0usize..1 << 20,
        xor in 1usize..256,
        cut in 0usize..1 << 20,
    ) {
        let mut bytes = encoded_batch().clone();
        let cut = cut % bytes.len();
        prop_assert!(decode_threads(&bytes[..cut]).is_err());
        let pos = pos % bytes.len();
        bytes[pos] ^= xor as u8;
        if let Ok(threads) = decode_threads(&bytes) {
            let _ = encode_threads(&threads);
        }
    }

    /// A corrupted length or count field must be rejected without
    /// sizing an allocation from it: smash four consecutive bytes (the
    /// width of every count/length in the format) to 0xFF and decode.
    /// If this ever allocated what the field claims, the test would
    /// attempt ~4 GiB per case and the suite would fall over.
    #[test]
    fn corrupt_length_words_do_not_allocate(pos in 0usize..1 << 20) {
        let mut bytes = encoded().clone();
        let pos = pos % bytes.len().saturating_sub(4).max(1);
        bytes[pos..pos + 4].copy_from_slice(&[0xFF; 4]);
        if let Ok(decoded) = decode_profile(&bytes) {
            let _ = encode_profile(&decoded);
        }
    }
}
