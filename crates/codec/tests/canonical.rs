//! The codec encoding is canonical: a profile has exactly one encoding,
//! and everything that decodes to the same profile re-encodes to it.
//! Content ids are the hash of these bytes, so each property below is a
//! dedup guarantee: a decode → encode round trip and a container whose
//! sections arrive reordered or with ones this build does not know both
//! land on the same buffer.
//!
//! Profiles are generated straight from a seed — every list length,
//! enum arm, string and integer drawn independently — rather than
//! measured, so empty tables, maximal integers and non-ASCII names are
//! covered and not only what the simulator happens to produce.

use numa_codec::{decode_profile, encode_profile, CODEC_HEADER_LEN};
use numa_machine::{CpuId, DomainId};
use numa_profiler::{
    Cct, CctNode, FirstTouchRecord, MetricSet, NodeKey, NumaProfile, RangeKey, RangeScope,
    RangeStat, ThreadProfile, Trace, TracePoint, VarId, VarRecord, ROOT,
};
use numa_sampling::{Capabilities, MechanismKind};
use numa_sim::{Frame, FrameKind, FuncId, VarKind};
use proptest::prelude::*;

/// SplitMix64 with the draws the generator needs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Mostly small, sometimes the extremes: where a width bug hides.
    fn int(&mut self) -> u64 {
        match self.below(8) {
            0 => 0,
            1 => u64::MAX,
            2 => self.next(),
            _ => self.below(100_000),
        }
    }

    fn vec<T>(&mut self, max: u64, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| f(self)).collect()
    }

    fn name(&mut self) -> String {
        const PIECES: [&str; 8] = [
            "main",
            "solve._omp",
            "z",
            "α-β",
            "a b",
            "\"q\"",
            "\\n",
            "網",
        ];
        self.vec(3, |r| PIECES[r.below(8) as usize]).concat()
    }

    fn frame(&mut self) -> Frame {
        Frame {
            func: FuncId(self.int() as u32),
            kind: [
                FrameKind::Function,
                FrameKind::ParallelRegion,
                FrameKind::Loop,
            ][self.below(3) as usize],
        }
    }

    fn metrics(&mut self) -> MetricSet {
        MetricSet {
            m_local: self.int(),
            m_remote: self.int(),
            per_domain: self.vec(8, Rng::int),
            latency_total: self.int(),
            latency_remote: self.int(),
            latency_samples: self.int(),
            samples_mem: self.int(),
            samples_instr: self.int(),
            loads: self.int(),
            stores: self.int(),
            level_hist: std::array::from_fn(|_| self.int()),
            first_touch_samples: self.int(),
        }
    }

    fn cct(&mut self) -> Cct {
        let mut nodes = vec![CctNode {
            key: NodeKey::Root,
            parent: ROOT,
            metrics: self.metrics(),
        }];
        for i in 1..=self.below(6) {
            let key = if self.flag() {
                NodeKey::Frame(self.frame())
            } else {
                NodeKey::Line(self.int() as u32)
            };
            nodes.push(CctNode {
                key,
                parent: self.below(i) as u32, // parents precede children
                metrics: self.metrics(),
            });
        }
        Cct::from_parts(nodes, self.below(9) as usize).expect("well-formed tree")
    }

    fn thread(&mut self, tid: usize) -> ThreadProfile {
        ThreadProfile {
            tid,
            cpu: CpuId(self.int() as u16),
            domain: DomainId(self.int() as u8),
            cct: self.cct(),
            totals: self.metrics(),
            instructions: self.int(),
            numa_events: self.int(),
            var_metrics: self.vec(3, |r| (VarId(r.int() as u32), r.metrics())),
            ranges: self.vec(4, |r| {
                let scope = if r.flag() {
                    RangeScope::Program
                } else {
                    RangeScope::Region(FuncId(r.int() as u32))
                };
                let key = RangeKey {
                    var: VarId(r.int() as u32),
                    bin: r.int() as u16,
                    scope,
                };
                let stat = RangeStat {
                    min_addr: r.int(),
                    max_addr: r.int(),
                    count: r.int(),
                    latency: r.int(),
                    latency_remote: r.int(),
                };
                (key, stat)
            }),
            trace: Trace::from_parts(
                self.int(),
                self.vec(3, |r| TracePoint {
                    clock: r.int(),
                    samples: r.int(),
                    m_remote: r.int(),
                    latency_remote: r.int(),
                }),
            ),
            stack_underflows: self.int(),
        }
    }

    fn profile(&mut self) -> NumaProfile {
        const KINDS: [MechanismKind; 6] = [
            MechanismKind::Ibs,
            MechanismKind::Mrk,
            MechanismKind::Pebs,
            MechanismKind::Dear,
            MechanismKind::PebsLl,
            MechanismKind::SoftIbs,
        ];
        // Thread ids in scrambled, gappy order: the encoding keeps the
        // stored order, it does not sort.
        let mut tids: Vec<usize> = (0..self.below(5) as usize).map(|i| i * 3).collect();
        if self.flag() {
            tids.reverse();
        }
        NumaProfile {
            mechanism: KINDS[self.below(6) as usize],
            capabilities: Capabilities {
                samples_all_instructions: self.flag(),
                latency: self.flag(),
                data_source: self.flag(),
                precise_ip: self.flag(),
            },
            domains: self.below(9) as usize,
            machine_name: self.name(),
            func_names: self.vec(5, Rng::name),
            vars: self.vec(3, |r| VarRecord {
                id: VarId(r.int() as u32),
                name: r.name(),
                addr: r.int(),
                bytes: r.int(),
                kind: [VarKind::Heap, VarKind::Static, VarKind::Stack][r.below(3) as usize],
                alloc_tid: r.below(1 << 20) as usize,
                alloc_path: r.vec(3, Rng::frame),
                bins: r.int() as u16,
                freed: r.flag(),
            }),
            threads: tids.into_iter().map(|tid| self.thread(tid)).collect(),
            first_touches: self.vec(3, |r| FirstTouchRecord {
                var: VarId(r.int() as u32),
                tid: r.below(1 << 20) as usize,
                cpu: CpuId(r.int() as u16),
                domain: DomainId(r.int() as u8),
                addr: r.int(),
                is_store: r.flag(),
                line: r.int() as u32,
                path: r.vec(3, Rng::frame),
            }),
        }
    }
}

/// The `id | u32 len | body` sections of a container, framing included.
fn sections(container: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut off = CODEC_HEADER_LEN;
    while off < container.len() {
        let len = u32::from_be_bytes(container[off + 1..off + 5].try_into().unwrap()) as usize;
        out.push(&container[off..off + 5 + len]);
        off += 5 + len;
    }
    out
}

proptest! {
    /// Struct → bytes is a function: two encodes of one profile, and an
    /// encode of its clone, agree.
    #[test]
    fn encoding_is_deterministic(seed in any::<u64>()) {
        let p = Rng(seed).profile();
        let bytes = encode_profile(&p);
        prop_assert_eq!(&encode_profile(&p), &bytes);
        prop_assert_eq!(&encode_profile(&p.clone()), &bytes);
    }

    /// `encode(decode(encode(p))) == encode(p)`: the decoder loses
    /// nothing the encoder wrote and invents nothing it would write
    /// differently.
    #[test]
    fn decode_then_encode_is_the_identity_on_bytes(seed in any::<u64>()) {
        let bytes = encode_profile(&Rng(seed).profile());
        prop_assert_eq!(encode_profile(&decode_profile(&bytes).unwrap()), bytes);
    }

    /// A container that is *not* the canonical encoding — a section this
    /// build does not know appended, two known sections swapped — still
    /// decodes to a profile whose re-encoding is the canonical buffer.
    #[test]
    fn non_canonical_containers_re_encode_canonically(
        seed in any::<u64>(),
        a in 0usize..5,
        b in 0usize..5,
    ) {
        let canonical = encode_profile(&Rng(seed).profile());
        let mut parts = sections(&canonical);
        prop_assert_eq!(parts.len(), 5);

        let mut extended = canonical.clone();
        extended.extend_from_slice(&[0xEE, 0, 0, 0, 2, 0xAB, 0xCD]);
        prop_assert_eq!(encode_profile(&decode_profile(&extended).unwrap()), canonical.clone());

        parts.swap(a, b);
        let mut swapped = canonical[..CODEC_HEADER_LEN].to_vec();
        swapped.extend(parts.into_iter().flatten());
        prop_assert_eq!(swapped == canonical, a == b);
        prop_assert_eq!(encode_profile(&decode_profile(&swapped).unwrap()), canonical);
    }
}
