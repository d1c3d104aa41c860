//! Content addressing for profiles.
//!
//! A profile's identity is the FNV-1a hash of its canonical codec
//! bytes, `numa_codec::encode_profile(profile)`. That encoding is a
//! function of the struct alone — fixed section order, fixed-width
//! big-endian integers, every list in stored order, no floats and no
//! maps — so two runs that produced identical measurements hash
//! identically no matter how the bytes arrived: a profile file, a wire
//! container (canonical or not) and a chunked stream of the same run
//! all decode to the same struct first, and dedup to one stored copy.
//!
//! The hash is FNV-1a taken eight bytes at a time, so a ≈ 55 KB profile
//! costs one multiply per word instead of one per byte. It is the only
//! hash the write path runs over a payload: the id at admit, and once
//! more when replay re-derives that id to vouch for the bytes it read.

use numa_profiler::NumaProfile;
use serde::Serialize;
use std::fmt;
use std::str::FromStr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string, one little-endian word per step.
///
/// The state is seeded with the input length; each word is xored in,
/// multiplied by the FNV prime and rotated (so the product's high bits
/// reach the next multiply's low ones); the 0–7 tail bytes are
/// zero-padded into one last word; a xor-shift-multiply avalanche
/// finishes. For a fixed word every step is a bijection of the state,
/// so two inputs of one length that differ inside a single word always
/// hash apart — which is what makes a flipped byte certain to be caught.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(27);
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET ^ bytes.len() as u64;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Mix one more 64-bit value into a running hash (order-sensitive).
pub fn mix(h: u64, x: u64) -> u64 {
    let mut h = h ^ x.rotate_left(31);
    h = h.wrapping_mul(FNV_PRIME);
    h ^ (h >> 29)
}

/// Content address of one stored profile.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ProfileId(pub u64);

impl ProfileId {
    /// The id of `profile` and the canonical codec bytes it is the
    /// hash of — which are also the payload the WAL and snapshot store.
    pub fn of(profile: &NumaProfile) -> (ProfileId, Vec<u8>) {
        let canonical = numa_codec::encode_profile(profile);
        (ProfileId(fnv1a(&canonical)), canonical)
    }
}

impl fmt::Display for ProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for ProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProfileId({self})")
    }
}

/// The value of `s` read as lowercase hex, when `s` is 1–16 chars of
/// `[0-9a-f]` — the alphabet `Display` prints. The bytes are checked
/// before parsing because `u64::from_str_radix` also takes a leading
/// `+` and uppercase digits, which no id ever renders as.
pub(crate) fn lower_hex(s: &str) -> Option<u64> {
    let digits = s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !digits || s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The exact inverse of `Display`: 16 chars of `[0-9a-f]`, nothing else.
impl FromStr for ProfileId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match lower_hex(s) {
            Some(v) if s.len() == 16 => Ok(ProfileId(v)),
            _ => Err(format!("not a 16-hex-digit profile id: {s:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_eq!(fnv1a(b"profile"), fnv1a(b"profile"));
    }

    /// Every single-bit flip of a 71-byte input — eight full words and a
    /// seven-byte tail, so every lane of a word and the padded tail —
    /// changes the digest.
    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let input: Vec<u8> = (0..71u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let digest = fnv1a(&input);
        for byte in 0..input.len() {
            for bit in 0..8 {
                let mut flipped = input.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(fnv1a(&flipped), digest, "byte {byte} bit {bit}");
            }
        }
    }

    /// Zero padding of the tail is not ambiguous: `n` and `n + 1` zero
    /// bytes hash apart, across the empty input and two word boundaries.
    #[test]
    fn zero_runs_of_adjacent_lengths_differ() {
        for n in 0..=17 {
            assert_ne!(fnv1a(&vec![0; n]), fnv1a(&vec![0; n + 1]), "n = {n}");
        }
    }

    /// Ids and record checksums on disk are this function's output: a
    /// change to it must break this test, not silently make every
    /// existing data directory unreadable.
    #[test]
    fn known_answer() {
        assert_eq!(fnv1a(b"numa-store profile id, v6"), 0x0c94_0628_8967_f405);
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
    }

    #[test]
    fn id_round_trips_through_hex() {
        let id = ProfileId(0x0123_4567_89ab_cdef);
        let parsed: ProfileId = id.to_string().parse().unwrap();
        assert_eq!(parsed, id);
        for id in [ProfileId(0), ProfileId(1), ProfileId(u64::MAX)] {
            assert_eq!(id.to_string().parse::<ProfileId>(), Ok(id));
        }
        // Everything `Display` never prints is rejected, including what
        // `u64::from_str_radix` would take.
        for bad in [
            "",
            "xyz",
            "1",
            "0123456789abcde",
            "0123456789abcdef0",
            "+123456789abcdef",
            "-123456789abcdef",
            "0123456789ABCDEF",
            " 123456789abcdef",
            "0123456789abcde ",
            "0x23456789abcdef",
            "0123456789abcdeg",
            "0123456789abcdé",
        ] {
            assert!(bad.parse::<ProfileId>().is_err(), "{bad:?} parsed");
        }
    }
}
