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

use numa_profiler::NumaProfile;
use serde::Serialize;
use std::fmt;
use std::str::FromStr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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
