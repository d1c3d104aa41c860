//! [`ProfileStore::resolve`] against the string matcher it replaced:
//! the old body, kept here verbatim as the oracle, formats every stored
//! id and compares text; the shipped one looks a full id up and compares
//! prefixes numerically. Same `Ok` id, or the same error with the same
//! candidates in the same order, on every needle.

use crate::{ProfileId, ProfileStore, StoreConfig, StoreError, StoredProfile};
use numa_profiler::NumaProfile;
use numa_sampling::{Capabilities, MechanismKind};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// `ProfileStore::resolve` as it was while it matched on strings.
fn resolve_by_string(store: &ProfileStore, needle: &str) -> Result<Arc<StoredProfile>, StoreError> {
    let mut matches: Vec<(u64, Arc<StoredProfile>)> = Vec::new();
    for shard in &store.shards.shards {
        let shelf = shard.read();
        matches.extend(
            shelf
                .profiles
                .iter()
                .filter(|(_, p)| &*p.label == needle || p.id.to_string().starts_with(needle))
                .map(|(seq, p)| (*seq, Arc::clone(p))),
        );
    }
    matches.sort_unstable_by_key(|(seq, _)| *seq);
    match matches.as_slice() {
        [] => Err(StoreError::NoMatch(needle.to_string())),
        [(_, one)] => Ok(Arc::clone(one)),
        many => {
            if let Some((_, exact)) = many.iter().find(|(_, p)| p.id.to_string() == needle) {
                return Ok(Arc::clone(exact));
            }
            Err(StoreError::Ambiguous {
                needle: needle.to_string(),
                candidates: many
                    .iter()
                    .map(|(_, p)| (p.id, p.label.to_string()))
                    .collect(),
            })
        }
    }
}

/// Shelve an empty profile under a chosen id — ids are content hashes,
/// so shared prefixes and leading zeros cannot be ingested, only
/// planted.
fn plant(store: &ProfileStore, id: ProfileId, label: &str) {
    let kind = MechanismKind::Ibs;
    let empty = NumaProfile {
        mechanism: kind,
        capabilities: Capabilities::for_kind(kind),
        domains: 1,
        machine_name: String::new(),
        func_names: Vec::new(),
        vars: Vec::new(),
        threads: Vec::new(),
        first_touches: Vec::new(),
    };
    let sp = Arc::new(StoredProfile::new(id, label, empty, 0));
    let seq = store.shards.seq.fetch_add(1, Ordering::Relaxed);
    assert!(store.shards.of(id).write().insert(seq, sp), "{id} twice");
}

const STEM: u64 = 0x0123_4567_89ab_cdef;

/// An id from two random words: uniform, with 1–15 leading zero digits,
/// sharing all but its low 1–15 digits with [`STEM`], or an extreme.
fn shaped_id(raw: u64, shape: u64) -> ProfileId {
    let digits = 4 * (1 + (shape >> 8) % 15) as u32;
    ProfileId(match shape % 8 {
        0 | 1 => raw,
        2 | 3 => raw >> digits,
        4..=6 => STEM ^ (raw & ((1 << digits) - 1)),
        _ => [0, 1, u64::MAX, STEM][(raw % 4) as usize],
    })
}

/// A label for the profile at `i`: plain, shared with other runs,
/// another profile's full id, a hex prefix of one, or text no id prints.
fn shaped_label(ids: &[ProfileId], i: usize, shape: u64) -> String {
    let other = ids[(i + 1 + (shape >> 16) as usize % ids.len()) % ids.len()].to_string();
    match (shape >> 4) % 8 {
        0 => format!("run-{i}"),
        1 => format!("run-{}", i % 2),
        2 => other,
        3 => other[..1 + (shape >> 24) as usize % 15].to_string(),
        4 => other.to_uppercase(),
        5 => format!("{other}0"),
        6 => String::new(),
        _ => format!("+{}", &other[1..]),
    }
}

/// Everything worth asking `store` for `id`: each prefix length 0–16 and
/// the spellings `Display` never prints.
fn needles_for(id: ProfileId, out: &mut Vec<String>) {
    let hex = id.to_string();
    out.extend((0..=16).map(|n| hex[..n].to_string()));
    out.push(hex.to_uppercase());
    out.push(hex[..6].to_uppercase());
    out.push(format!("+{}", &hex[1..]));
    out.push(format!("+{}", &hex[..7]));
    out.push(format!("{hex}0"));
    out.push(format!(" {}", &hex[1..]));
    out.push(format!("{} ", &hex[..8]));
    out.push(format!("0x{}", &hex[..6]));
}

fn ids_agree(store: &ProfileStore, needle: &str) {
    let got = store.resolve(needle).map(|sp| sp.id);
    let want = resolve_by_string(store, needle).map(|sp| sp.id);
    assert_eq!(got, want, "needle {needle:?}");
}

proptest! {
    #[test]
    fn resolve_agrees_with_the_string_matcher(
        seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 0..24),
        absent in prop::collection::vec((any::<u64>(), any::<u64>()), 1..4),
        shards in prop::sample::select(vec![1usize, 8]),
    ) {
        let mut ids: Vec<ProfileId> = Vec::new();
        for &(raw, shape) in &seeds {
            let id = shaped_id(raw, shape);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        let store = ProfileStore::with_config(StoreConfig { shards, ..StoreConfig::default() });
        let mut needles = vec!["nope".to_string(), "run-".to_string()];
        for (i, &id) in ids.iter().enumerate() {
            let label = shaped_label(&ids, i, seeds[i].1);
            plant(&store, id, &label);
            needles.push(label);
            needles_for(id, &mut needles);
        }
        for &(raw, shape) in &absent {
            needles_for(shaped_id(raw, shape), &mut needles);
        }
        for needle in &needles {
            ids_agree(&store, needle);
        }
    }
}

#[test]
fn resolve_rules_on_a_planted_store() {
    let store = ProfileStore::new();
    let (a, b, c) = (
        ProfileId(0x0000_0000_0000_00ab),
        ProfileId(0x0000_0000_0000_00ac),
        ProfileId(0xab00_0000_0000_0000),
    );
    plant(&store, a, "first");
    // A label that is another profile's full id, and one that is a
    // prefix of it.
    plant(&store, b, &a.to_string());
    plant(&store, c, "00000000");
    let id = |needle: &str| store.resolve(needle).map(|sp| sp.id);

    // A full id wins over the label that spells it.
    assert_eq!(id(&a.to_string()), Ok(a));
    // Leading zeros are digits: "ab" is c's prefix, not a's value.
    assert_eq!(id("ab"), Ok(c));
    assert_eq!(id("00000000000000a"), ambiguous("00000000000000a", &[a, b]));
    // A prefix that is also a label matches both ways, in insertion order.
    assert_eq!(id("00000000"), ambiguous("00000000", &[a, b, c]));
    // The empty needle prefixes every id.
    assert_eq!(id(""), ambiguous("", &[a, b, c]));
    // What `Display` never prints is a label or nothing.
    for needle in ["AB", "+b", " ab", "00000000000000AB", "0000000000000000"] {
        assert_eq!(id(needle), Err(StoreError::NoMatch(needle.to_string())));
    }
    // A 16-digit needle that is no id may still be a label.
    plant(&store, ProfileId(7), "ffffffffffffffff");
    assert_eq!(id("ffffffffffffffff"), Ok(ProfileId(7)));

    fn ambiguous(needle: &str, ids: &[ProfileId]) -> Result<ProfileId, StoreError> {
        let label = |id: &ProfileId| match id.0 {
            0xab => "first".to_string(),
            0xac => ProfileId(0xab).to_string(),
            _ => "00000000".to_string(),
        };
        Err(StoreError::Ambiguous {
            needle: needle.to_string(),
            candidates: ids.iter().map(|id| (*id, label(id))).collect(),
        })
    }
}
