//! Chunked representation of a profile for streaming ingestion.
//!
//! A streaming client does not ship one giant `NumaProfile` blob; it
//! splits the run into [`ChunkPayload`]s — exactly one `Header` (every
//! per-run field except the threads) plus any number of `Threads`
//! chunks — and appends them to an open session in any grouping or
//! order. [`assemble`] reverses the split deterministically: threads
//! are sorted by `tid` (duplicates rejected), and the result encodes to the exact same canonical codec bytes as the
//! original profile — so a streamed profile is byte-identical (content
//! hash, set hash, aggregate text) to the same profile ingested one-shot.
//!
//! The binary chunk form ([`ChunkPayload::to_binary`]) is a wire format
//! only: the daemon buffers the decoded chunks in memory until the seal
//! and logs the assembled profile, never a chunk.

use numa_profiler::{FirstTouchRecord, NumaProfile, ThreadProfile, VarRecord};
use numa_sampling::{Capabilities, MechanismKind};
use std::fmt;

/// Every per-run field of a [`NumaProfile`] except the thread list.
#[derive(Clone, Debug)]
pub struct ProfileHeader {
    pub mechanism: MechanismKind,
    pub capabilities: Capabilities,
    pub domains: usize,
    pub machine_name: String,
    pub func_names: Vec<String>,
    pub vars: Vec<VarRecord>,
    pub first_touches: Vec<FirstTouchRecord>,
}

/// One streamed piece of a profile.
#[derive(Clone, Debug)]
pub enum ChunkPayload {
    /// The run-wide fields. A session must receive exactly one.
    Header(Box<ProfileHeader>),
    /// A batch of per-thread measurements, in any order across chunks.
    Threads(Vec<ThreadProfile>),
}

/// Leading tag byte of a binary chunk payload.
const CHUNK_TAG_HEADER: u8 = 0;
const CHUNK_TAG_THREADS: u8 = 1;

impl ChunkPayload {
    /// Encode to the binary wire chunk format: a tag byte
    /// followed by a numa-codec container. A `Header` chunk is encoded
    /// as a full-profile container with an empty thread list; a
    /// `Threads` chunk as a thread-batch container — both sides of the
    /// split reuse the one profile codec.
    pub fn to_binary(&self) -> Vec<u8> {
        match self {
            ChunkPayload::Header(h) => {
                let mut out = vec![CHUNK_TAG_HEADER];
                out.extend_from_slice(&numa_codec::encode_parts(&numa_codec::ProfileParts {
                    mechanism: h.mechanism,
                    capabilities: h.capabilities,
                    domains: h.domains,
                    machine_name: &h.machine_name,
                    func_names: &h.func_names,
                    vars: &h.vars,
                    threads: &[],
                    first_touches: &h.first_touches,
                }));
                out
            }
            ChunkPayload::Threads(batch) => {
                let mut out = vec![CHUNK_TAG_THREADS];
                out.extend_from_slice(&numa_codec::encode_threads(batch));
                out
            }
        }
    }

    /// Decode from the binary wire chunk format.
    pub fn from_binary(bytes: &[u8]) -> Result<Self, numa_codec::CodecError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or(numa_codec::CodecError::Truncated)?;
        match tag {
            CHUNK_TAG_HEADER => {
                let p = numa_codec::decode_profile(rest)?;
                Ok(ChunkPayload::Header(Box::new(ProfileHeader {
                    mechanism: p.mechanism,
                    capabilities: p.capabilities,
                    domains: p.domains,
                    machine_name: p.machine_name,
                    func_names: p.func_names,
                    vars: p.vars,
                    first_touches: p.first_touches,
                })))
            }
            CHUNK_TAG_THREADS => Ok(ChunkPayload::Threads(numa_codec::decode_threads(rest)?)),
            _ => Err(numa_codec::CodecError::Malformed("unknown chunk tag")),
        }
    }
}

/// Why a set of chunks does not assemble into a profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// No `Header` chunk was streamed.
    MissingHeader,
    /// More than one `Header` chunk was streamed.
    DuplicateHeader,
    /// Two chunks claimed the same thread id.
    DuplicateThread { tid: usize },
    /// The session sealed without any thread data.
    NoThreads,
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::MissingHeader => write!(f, "no header chunk was streamed"),
            AssembleError::DuplicateHeader => write!(f, "more than one header chunk was streamed"),
            AssembleError::DuplicateThread { tid } => {
                write!(f, "thread {tid} appeared in more than one chunk")
            }
            AssembleError::NoThreads => write!(f, "no thread chunks were streamed"),
        }
    }
}

impl std::error::Error for AssembleError {}

/// Split a profile into a header chunk plus thread chunks of at most
/// `threads_per_chunk` threads each (clamped to at least 1). The
/// inverse of [`assemble`].
pub fn split_profile(profile: &NumaProfile, threads_per_chunk: usize) -> Vec<ChunkPayload> {
    let per = threads_per_chunk.max(1);
    let mut chunks = vec![ChunkPayload::Header(Box::new(ProfileHeader {
        mechanism: profile.mechanism,
        capabilities: profile.capabilities,
        domains: profile.domains,
        machine_name: profile.machine_name.clone(),
        func_names: profile.func_names.clone(),
        vars: profile.vars.clone(),
        first_touches: profile.first_touches.clone(),
    }))];
    for group in profile.threads.chunks(per) {
        chunks.push(ChunkPayload::Threads(group.to_vec()));
    }
    chunks
}

/// Reassemble chunks into a canonical profile: exactly one header,
/// threads gathered from every `Threads` chunk and sorted by `tid`
/// (duplicates rejected). Chunk order does not matter — any
/// permutation of the same chunks yields the same profile.
pub fn assemble(chunks: Vec<ChunkPayload>) -> Result<NumaProfile, AssembleError> {
    let mut header: Option<Box<ProfileHeader>> = None;
    let mut threads: Vec<ThreadProfile> = Vec::new();
    for chunk in chunks {
        match chunk {
            ChunkPayload::Header(h) => {
                if header.is_some() {
                    return Err(AssembleError::DuplicateHeader);
                }
                header = Some(h);
            }
            ChunkPayload::Threads(batch) => threads.extend(batch),
        }
    }
    let header = header.ok_or(AssembleError::MissingHeader)?;
    if threads.is_empty() {
        return Err(AssembleError::NoThreads);
    }
    threads.sort_by_key(|t| t.tid);
    if let Some(w) = threads.windows(2).find(|w| w[0].tid == w[1].tid) {
        return Err(AssembleError::DuplicateThread { tid: w[0].tid });
    }
    Ok(NumaProfile {
        mechanism: header.mechanism,
        capabilities: header.capabilities,
        domains: header.domains,
        machine_name: header.machine_name,
        func_names: header.func_names,
        vars: header.vars,
        threads,
        first_touches: header.first_touches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> NumaProfile {
        use numa_machine::{Machine, MachinePreset, PlacementPolicy};
        use numa_profiler::{finish_profile, NumaProfiler, ProfilerConfig};
        use numa_sampling::MechanismConfig;
        use numa_sim::Program;
        use std::rc::Rc;

        let machine = Machine::from_preset(MachinePreset::AmdMagnyCours);
        let config = ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8));
        let profiler = Rc::new(NumaProfiler::new(machine.clone(), config, 4));
        let mut p = Program::new(machine, 4, profiler.clone());
        let size = 1u64 << 18;
        let mut base = 0;
        p.serial("main", |ctx| {
            base = ctx.alloc("s", size, PlacementPolicy::FirstTouch);
            ctx.store_range(base, size / 64, 64);
        });
        p.parallel("work._omp", |tid, ctx| {
            let chunk = size / 4;
            ctx.load_range(base + tid as u64 * chunk, chunk / 64, 64);
        });
        finish_profile(p, profiler)
    }

    #[test]
    fn split_then_assemble_is_identity_on_canonical_bytes() {
        let original = profile();
        let bytes = numa_codec::encode_profile(&original);
        for per in [1, 2, 3, 64] {
            let chunks = split_profile(&original, per);
            let rebuilt = assemble(chunks).unwrap();
            assert_eq!(numa_codec::encode_profile(&rebuilt), bytes, "per={per}");
        }
    }

    #[test]
    fn assemble_is_order_independent() {
        let original = profile();
        let mut chunks: Vec<ChunkPayload> = split_profile(&original, 1)
            .iter()
            .map(|c| ChunkPayload::from_binary(&c.to_binary()).unwrap())
            .collect();
        chunks.reverse(); // header last, threads in reverse tid order
        assert_eq!(
            numa_codec::encode_profile(&assemble(chunks).unwrap()),
            numa_codec::encode_profile(&original)
        );
    }

    #[test]
    fn binary_chunks_round_trip_and_assemble_identically() {
        let original = profile();
        let chunks = split_profile(&original, 2);
        let rebuilt: Vec<ChunkPayload> = chunks
            .iter()
            .map(|c| ChunkPayload::from_binary(&c.to_binary()).unwrap())
            .collect();
        let assembled = assemble(rebuilt).unwrap();
        assert_eq!(
            numa_codec::encode_profile(&assembled),
            numa_codec::encode_profile(&original)
        );
        // A flipped tag byte is a typed error, not a panic.
        let mut bad = chunks[0].to_binary();
        bad[0] = 7;
        assert_eq!(
            ChunkPayload::from_binary(&bad).unwrap_err(),
            numa_codec::CodecError::Malformed("unknown chunk tag")
        );
        assert_eq!(
            ChunkPayload::from_binary(&[]).unwrap_err(),
            numa_codec::CodecError::Truncated
        );
    }

    #[test]
    fn assemble_rejects_malformed_chunk_sets() {
        let original = profile();
        let chunks = split_profile(&original, 2);
        let header = chunks[0].clone();
        let threads = chunks[1].clone();

        assert_eq!(
            assemble(vec![threads.clone(), threads.clone(), header.clone()]).unwrap_err(),
            AssembleError::DuplicateThread { tid: 0 }
        );
        assert_eq!(
            assemble(vec![threads.clone()]).unwrap_err(),
            AssembleError::MissingHeader
        );
        assert_eq!(
            assemble(vec![header.clone(), header.clone(), threads]).unwrap_err(),
            AssembleError::DuplicateHeader
        );
        assert_eq!(
            assemble(vec![header]).unwrap_err(),
            AssembleError::NoThreads
        );
    }
}
