//! Binary columnar encoding of [`NumaProfile`] — the one profile codec
//! every layer speaks.
//!
//! A versioned, length-delimited, sectioned binary layout, smaller than
//! the profile's JSON rendering and decoded without any text parsing.
//! It is the one stored and transported form: the profile file
//! `hpcrun-sim --out` writes (`*.hpcrun`), the WAL, snapshots, the wire
//! protocol's ingest requests and streaming chunks all carry these
//! bytes. JSON is an output only (reports, `NumaProfile::to_json`);
//! nothing decodes a profile from it.
//!
//! ## The encoding is canonical
//!
//! [`encode_profile`] is a function of the struct alone: the five
//! sections always appear in id order, every integer is fixed-width
//! big-endian, every list (name table, variables, threads, CCT nodes,
//! ranges, trace points) is written in stored order, and the profile
//! holds no floats and no maps whose iteration order could vary. So a
//! profile has exactly one encoding, `encode(decode(b))` is that
//! encoding for *any* buffer `b` that decodes to it — including one
//! with reordered or unknown sections (`tests/canonical.rs` holds these
//! as properties). This is what lets `numa-store` define a profile's
//! content id as the FNV-1a hash of these bytes and still dedup the
//! same run arriving as a file, a non-canonical container or a chunked
//! stream — and what makes a file `hpcrun-sim` wrote hash to the id the
//! store assigns it.
//!
//! ## Layout (all integers big-endian)
//!
//! ```text
//! offset 0..4   magic    b"NPCB"
//! offset 4..6   version  u16 — format revision (currently 1)
//! offset 6..8   flags    u16 — must be zero
//! offset 8..    sections
//! ```
//!
//! Each section is `u8 id | u32 len | bytes`. Unknown section ids are
//! skipped on decode (forward compatibility); known ids must appear at
//! most once. A full profile carries five sections:
//!
//! * **RUN** (1): mechanism, capability bits, domain count, machine name.
//! * **FUNCS** (2): the interned function-name table.
//! * **VARS** (3): one row per monitored variable.
//! * **THREADS** (4): thread count, then *fixed-width scalar columns*
//!   (tids, cpus, domains, instructions, numa_events, stack_underflows —
//!   contiguous per metric, so readers can hand column slices straight
//!   to the engine without materializing per-thread structs), then one
//!   length-prefixed variable-size body per thread (totals, CCT,
//!   per-variable metrics, address ranges, trace).
//! * **FIRST_TOUCH** (5): the first-touch records.
//!
//! A streaming *thread batch* ([`encode_threads`]) is the same container
//! carrying only a THREADS section.
//!
//! ## Decode discipline
//!
//! Decoding never trusts a length or count it has not bounded against
//! the bytes actually present: section lengths are clamped to the
//! remaining buffer, fixed-width columns are validated as one
//! `count * width` check, and element counts only pre-reserve capacity
//! up to `remaining / min_element_size`. Malformed input yields a typed
//! [`CodecError`] — never a panic, never an attacker-sized allocation
//! (the same discipline as the WAL scanner's `body_len` clamp).

use numa_machine::{CpuId, DomainId};
use numa_profiler::{
    Cct, CctNode, FirstTouchRecord, MetricSet, NodeKey, NumaProfile, RangeKey, RangeScope,
    RangeStat, ThreadProfile, Trace, TracePoint, VarId, VarRecord,
};
use numa_sampling::{Capabilities, MechanismKind};
use numa_sim::{Frame, FrameKind, FuncId, VarKind};
use std::fmt;

/// Magic of every numa-codec buffer.
pub const CODEC_MAGIC: [u8; 4] = *b"NPCB";

/// Current format revision.
pub const CODEC_VERSION: u16 = 1;

/// Container header size (magic + version + flags).
pub const CODEC_HEADER_LEN: usize = 8;

const SEC_RUN: u8 = 1;
const SEC_FUNCS: u8 = 2;
const SEC_VARS: u8 = 3;
const SEC_THREADS: u8 = 4;
const SEC_FIRST_TOUCH: u8 = 5;

/// Why a buffer failed to decode. Every variant is a rejected input,
/// never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field being read.
    Truncated,
    /// The first four bytes are not [`CODEC_MAGIC`].
    BadMagic,
    /// The header carries a version this build does not read.
    UnsupportedVersion(u16),
    /// Framing or content inconsistency (bad enum tag, duplicate or
    /// missing section, count/length mismatch, invalid UTF-8, ...).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadMagic => write!(f, "not a numa-codec buffer (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "codec version {v} not supported (this build reads 1..={CODEC_VERSION})"
                )
            }
            CodecError::Malformed(what) => write!(f, "malformed codec buffer: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------
// Primitive reader/writer
// ---------------------------------------------------------------------

/// Forward-only bounds-checked reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    fn str_field(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Malformed("invalid utf-8"))
    }

    /// Capacity to pre-reserve for `count` elements of at least
    /// `min_size` bytes each: bounded by the bytes actually remaining,
    /// so a corrupt count can never size an allocation.
    fn clamped_capacity(&self, count: usize, min_size: usize) -> usize {
        count.min(self.remaining() / min_size.max(1))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, u32::try_from(s.len()).expect("string fits u32"));
    out.extend_from_slice(s.as_bytes());
}

/// Append one section: id, length placeholder, body, then backpatch the
/// length.
fn section(out: &mut Vec<u8>, id: u8, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(id);
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    body(out);
    let len = u32::try_from(out.len() - at - 4).expect("section fits u32");
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

// ---------------------------------------------------------------------
// Leaf encoders/decoders
// ---------------------------------------------------------------------

fn mechanism_tag(m: MechanismKind) -> u8 {
    match m {
        MechanismKind::Ibs => 0,
        MechanismKind::Mrk => 1,
        MechanismKind::Pebs => 2,
        MechanismKind::Dear => 3,
        MechanismKind::PebsLl => 4,
        MechanismKind::SoftIbs => 5,
    }
}

fn mechanism_from(tag: u8) -> Result<MechanismKind> {
    Ok(match tag {
        0 => MechanismKind::Ibs,
        1 => MechanismKind::Mrk,
        2 => MechanismKind::Pebs,
        3 => MechanismKind::Dear,
        4 => MechanismKind::PebsLl,
        5 => MechanismKind::SoftIbs,
        _ => return Err(CodecError::Malformed("unknown mechanism")),
    })
}

fn capability_bits(c: Capabilities) -> u8 {
    (c.samples_all_instructions as u8)
        | (c.latency as u8) << 1
        | (c.data_source as u8) << 2
        | (c.precise_ip as u8) << 3
}

fn capabilities_from(bits: u8) -> Result<Capabilities> {
    if bits & !0b1111 != 0 {
        return Err(CodecError::Malformed("unknown capability bits"));
    }
    Ok(Capabilities {
        samples_all_instructions: bits & 1 != 0,
        latency: bits & 2 != 0,
        data_source: bits & 4 != 0,
        precise_ip: bits & 8 != 0,
    })
}

fn put_frame(out: &mut Vec<u8>, f: Frame) {
    put_u32(out, f.func.0);
    out.push(match f.kind {
        FrameKind::Function => 0,
        FrameKind::ParallelRegion => 1,
        FrameKind::Loop => 2,
    });
}

fn read_frame(r: &mut Reader<'_>) -> Result<Frame> {
    let func = FuncId(r.u32()?);
    let kind = match r.u8()? {
        0 => FrameKind::Function,
        1 => FrameKind::ParallelRegion,
        2 => FrameKind::Loop,
        _ => return Err(CodecError::Malformed("unknown frame kind")),
    };
    Ok(Frame { func, kind })
}

/// Frame encoded size (func u32 + kind u8).
const FRAME_LEN: usize = 5;

fn put_path(out: &mut Vec<u8>, path: &[Frame]) {
    put_u32(out, u32::try_from(path.len()).expect("path fits u32"));
    for &f in path {
        put_frame(out, f);
    }
}

fn read_path(r: &mut Reader<'_>) -> Result<Vec<Frame>> {
    let n = r.u32()? as usize;
    let mut path = Vec::with_capacity(r.clamped_capacity(n, FRAME_LEN));
    for _ in 0..n {
        path.push(read_frame(r)?);
    }
    Ok(path)
}

const LEVELS: usize = 6;

/// Minimum encoded [`MetricSet`] size (empty `per_domain`).
const METRICS_MIN_LEN: usize = 8 * 2 + 4 + 8 * 8 + LEVELS * 8;

fn put_metrics(out: &mut Vec<u8>, m: &MetricSet) {
    put_u64(out, m.m_local);
    put_u64(out, m.m_remote);
    put_u32(
        out,
        u32::try_from(m.per_domain.len()).expect("domains fit u32"),
    );
    for &d in &m.per_domain {
        put_u64(out, d);
    }
    put_u64(out, m.latency_total);
    put_u64(out, m.latency_remote);
    put_u64(out, m.latency_samples);
    put_u64(out, m.samples_mem);
    put_u64(out, m.samples_instr);
    put_u64(out, m.loads);
    put_u64(out, m.stores);
    for &h in &m.level_hist {
        put_u64(out, h);
    }
    put_u64(out, m.first_touch_samples);
}

fn read_metrics(r: &mut Reader<'_>) -> Result<MetricSet> {
    let m_local = r.u64()?;
    let m_remote = r.u64()?;
    let nd = r.u32()? as usize;
    let domain_bytes = nd
        .checked_mul(8)
        .ok_or(CodecError::Malformed("domain count"))?;
    let raw = r.take(domain_bytes)?;
    let per_domain = raw
        .chunks_exact(8)
        .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
        .collect();
    let latency_total = r.u64()?;
    let latency_remote = r.u64()?;
    let latency_samples = r.u64()?;
    let samples_mem = r.u64()?;
    let samples_instr = r.u64()?;
    let loads = r.u64()?;
    let stores = r.u64()?;
    let mut level_hist = [0u64; LEVELS];
    for slot in &mut level_hist {
        *slot = r.u64()?;
    }
    let first_touch_samples = r.u64()?;
    Ok(MetricSet {
        m_local,
        m_remote,
        per_domain,
        latency_total,
        latency_remote,
        latency_samples,
        samples_mem,
        samples_instr,
        loads,
        stores,
        level_hist,
        first_touch_samples,
    })
}

fn put_var(out: &mut Vec<u8>, v: &VarRecord) {
    put_u32(out, v.id.0);
    put_str(out, &v.name);
    put_u64(out, v.addr);
    put_u64(out, v.bytes);
    out.push(match v.kind {
        VarKind::Heap => 0,
        VarKind::Static => 1,
        VarKind::Stack => 2,
    });
    put_u64(out, v.alloc_tid as u64);
    put_u16(out, v.bins);
    out.push(v.freed as u8);
    put_path(out, &v.alloc_path);
}

/// Minimum encoded [`VarRecord`] size (empty name and path).
const VAR_MIN_LEN: usize = 4 + 4 + 8 + 8 + 1 + 8 + 2 + 1 + 4;

fn read_var(r: &mut Reader<'_>) -> Result<VarRecord> {
    let id = VarId(r.u32()?);
    let name = r.str_field()?.to_string();
    let addr = r.u64()?;
    let bytes = r.u64()?;
    let kind = match r.u8()? {
        0 => VarKind::Heap,
        1 => VarKind::Static,
        2 => VarKind::Stack,
        _ => return Err(CodecError::Malformed("unknown variable kind")),
    };
    let alloc_tid = read_usize(r)?;
    let bins = r.u16()?;
    let freed = read_bool(r)?;
    let alloc_path = read_path(r)?;
    Ok(VarRecord {
        id,
        name,
        addr,
        bytes,
        kind,
        alloc_tid,
        alloc_path,
        bins,
        freed,
    })
}

/// Minimum encoded [`FirstTouchRecord`] size (empty path).
const FIRST_TOUCH_MIN_LEN: usize = 4 + 8 + 2 + 1 + 8 + 1 + 4 + 4;

fn put_first_touch(out: &mut Vec<u8>, ft: &FirstTouchRecord) {
    put_u32(out, ft.var.0);
    put_u64(out, ft.tid as u64);
    put_u16(out, ft.cpu.0);
    out.push(ft.domain.0);
    put_u64(out, ft.addr);
    out.push(ft.is_store as u8);
    put_u32(out, ft.line);
    put_path(out, &ft.path);
}

fn read_first_touch(r: &mut Reader<'_>) -> Result<FirstTouchRecord> {
    let var = VarId(r.u32()?);
    let tid = read_usize(r)?;
    let cpu = CpuId(r.u16()?);
    let domain = DomainId(r.u8()?);
    let addr = r.u64()?;
    let is_store = read_bool(r)?;
    let line = r.u32()?;
    let path = read_path(r)?;
    Ok(FirstTouchRecord {
        var,
        tid,
        cpu,
        domain,
        addr,
        is_store,
        line,
        path,
    })
}

fn read_usize(r: &mut Reader<'_>) -> Result<usize> {
    usize::try_from(r.u64()?).map_err(|_| CodecError::Malformed("value exceeds usize"))
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::Malformed("invalid bool")),
    }
}

// ---------------------------------------------------------------------
// Thread bodies
// ---------------------------------------------------------------------

fn put_thread_body(out: &mut Vec<u8>, t: &ThreadProfile) {
    put_metrics(out, &t.totals);
    // CCT: domain count, node count, then nodes in id order (root
    // first, parents before children — the tree's append-only
    // invariant).
    put_u32(
        out,
        u32::try_from(t.cct.domains()).expect("domains fit u32"),
    );
    put_u32(out, u32::try_from(t.cct.len()).expect("cct fits u32"));
    for node in t.cct.nodes() {
        match node.key {
            NodeKey::Root => out.push(0),
            NodeKey::Frame(f) => {
                out.push(1);
                put_frame(out, f);
            }
            NodeKey::Line(line) => {
                out.push(2);
                put_u32(out, line);
            }
        }
        put_u32(out, node.parent);
        put_metrics(out, &node.metrics);
    }
    put_u32(
        out,
        u32::try_from(t.var_metrics.len()).expect("var metrics fit u32"),
    );
    for (var, m) in &t.var_metrics {
        put_u32(out, var.0);
        put_metrics(out, m);
    }
    put_u32(out, u32::try_from(t.ranges.len()).expect("ranges fit u32"));
    for (key, stat) in &t.ranges {
        put_u32(out, key.var.0);
        put_u16(out, key.bin);
        match key.scope {
            RangeScope::Program => out.push(0),
            RangeScope::Region(f) => {
                out.push(1);
                put_u32(out, f.0);
            }
        }
        put_u64(out, stat.min_addr);
        put_u64(out, stat.max_addr);
        put_u64(out, stat.count);
        put_u64(out, stat.latency);
        put_u64(out, stat.latency_remote);
    }
    put_u64(out, t.trace.interval());
    put_u32(out, u32::try_from(t.trace.len()).expect("trace fits u32"));
    for p in t.trace.points() {
        put_u64(out, p.clock);
        put_u64(out, p.samples);
        put_u64(out, p.m_remote);
        put_u64(out, p.latency_remote);
    }
}

/// Minimum encoded CCT node size (root tag).
const NODE_MIN_LEN: usize = 1 + 4 + METRICS_MIN_LEN;

fn read_cct(r: &mut Reader<'_>) -> Result<Cct> {
    let domains = r.u32()? as usize;
    let count = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(r.clamped_capacity(count, NODE_MIN_LEN));
    for _ in 0..count {
        let key = match r.u8()? {
            0 => NodeKey::Root,
            1 => NodeKey::Frame(read_frame(r)?),
            2 => NodeKey::Line(r.u32()?),
            _ => return Err(CodecError::Malformed("unknown cct node key")),
        };
        let parent = r.u32()?;
        let metrics = read_metrics(r)?;
        nodes.push(CctNode {
            key,
            parent,
            metrics,
        });
    }
    Cct::from_parts(nodes, domains).ok_or(CodecError::Malformed("invalid cct structure"))
}

/// Decode one thread body paired with its scalar-column row.
fn read_thread_body(body: &[u8], scalars: ThreadScalarRow) -> Result<ThreadProfile> {
    let mut r = Reader::new(body);
    let totals = read_metrics(&mut r)?;
    let cct = read_cct(&mut r)?;

    let nv = r.u32()? as usize;
    let mut var_metrics = Vec::with_capacity(r.clamped_capacity(nv, 4 + METRICS_MIN_LEN));
    for _ in 0..nv {
        let var = VarId(r.u32()?);
        let m = read_metrics(&mut r)?;
        var_metrics.push((var, m));
    }

    let nr = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(r.clamped_capacity(nr, 4 + 2 + 1 + 5 * 8));
    for _ in 0..nr {
        let var = VarId(r.u32()?);
        let bin = r.u16()?;
        let scope = match r.u8()? {
            0 => RangeScope::Program,
            1 => RangeScope::Region(FuncId(r.u32()?)),
            _ => return Err(CodecError::Malformed("unknown range scope")),
        };
        let stat = RangeStat {
            min_addr: r.u64()?,
            max_addr: r.u64()?,
            count: r.u64()?,
            latency: r.u64()?,
            latency_remote: r.u64()?,
        };
        ranges.push((RangeKey { var, bin, scope }, stat));
    }

    let interval = r.u64()?;
    let np = r.u32()? as usize;
    let mut points = Vec::with_capacity(r.clamped_capacity(np, 4 * 8));
    for _ in 0..np {
        points.push(TracePoint {
            clock: r.u64()?,
            samples: r.u64()?,
            m_remote: r.u64()?,
            latency_remote: r.u64()?,
        });
    }
    if !r.is_empty() {
        return Err(CodecError::Malformed("trailing bytes in thread body"));
    }
    Ok(ThreadProfile {
        tid: scalars.tid,
        cpu: scalars.cpu,
        domain: scalars.domain,
        cct,
        totals,
        instructions: scalars.instructions,
        numa_events: scalars.numa_events,
        var_metrics,
        ranges,
        trace: Trace::from_parts(interval, points),
        stack_underflows: scalars.stack_underflows,
    })
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Borrowed fields of a profile — what [`encode_parts`] serializes.
/// Streaming header chunks encode these with an empty thread slice.
pub struct ProfileParts<'a> {
    pub mechanism: MechanismKind,
    pub capabilities: Capabilities,
    pub domains: usize,
    pub machine_name: &'a str,
    pub func_names: &'a [String],
    pub vars: &'a [VarRecord],
    pub threads: &'a [ThreadProfile],
    pub first_touches: &'a [FirstTouchRecord],
}

impl<'a> From<&'a NumaProfile> for ProfileParts<'a> {
    fn from(p: &'a NumaProfile) -> Self {
        ProfileParts {
            mechanism: p.mechanism,
            capabilities: p.capabilities,
            domains: p.domains,
            machine_name: &p.machine_name,
            func_names: &p.func_names,
            vars: &p.vars,
            threads: &p.threads,
            first_touches: &p.first_touches,
        }
    }
}

fn put_container_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&CODEC_MAGIC);
    put_u16(out, CODEC_VERSION);
    put_u16(out, 0); // flags
}

fn put_threads_section(out: &mut Vec<u8>, threads: &[ThreadProfile]) {
    section(out, SEC_THREADS, |out| {
        put_u32(out, u32::try_from(threads.len()).expect("threads fit u32"));
        // Fixed-width scalar columns, one metric at a time, so each
        // column is a contiguous slice a reader can use in place.
        for t in threads {
            put_u64(out, t.tid as u64);
        }
        for t in threads {
            put_u16(out, t.cpu.0);
        }
        for t in threads {
            out.push(t.domain.0);
        }
        for t in threads {
            put_u64(out, t.instructions);
        }
        for t in threads {
            put_u64(out, t.numa_events);
        }
        for t in threads {
            put_u64(out, t.stack_underflows);
        }
        // Variable-size per-thread bodies, each length-prefixed.
        for t in threads {
            let at = out.len();
            out.extend_from_slice(&[0u8; 4]);
            put_thread_body(out, t);
            let len = u32::try_from(out.len() - at - 4).expect("thread body fits u32");
            out[at..at + 4].copy_from_slice(&len.to_be_bytes());
        }
    });
}

/// Encode a profile's borrowed parts. See [`encode_profile`].
pub fn encode_parts(p: &ProfileParts<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    put_container_header(&mut out);
    section(&mut out, SEC_RUN, |out| {
        out.push(mechanism_tag(p.mechanism));
        out.push(capability_bits(p.capabilities));
        put_u32(out, u32::try_from(p.domains).expect("domains fit u32"));
        put_str(out, p.machine_name);
    });
    section(&mut out, SEC_FUNCS, |out| {
        put_u32(
            out,
            u32::try_from(p.func_names.len()).expect("funcs fit u32"),
        );
        for name in p.func_names {
            put_str(out, name);
        }
    });
    section(&mut out, SEC_VARS, |out| {
        put_u32(out, u32::try_from(p.vars.len()).expect("vars fit u32"));
        for v in p.vars {
            put_var(out, v);
        }
    });
    put_threads_section(&mut out, p.threads);
    section(&mut out, SEC_FIRST_TOUCH, |out| {
        put_u32(
            out,
            u32::try_from(p.first_touches.len()).expect("first touches fit u32"),
        );
        for ft in p.first_touches {
            put_first_touch(out, ft);
        }
    });
    out
}

/// Encode a full profile to the binary format.
pub fn encode_profile(p: &NumaProfile) -> Vec<u8> {
    encode_parts(&ProfileParts::from(p))
}

/// Encode a streaming thread batch: a container carrying only a THREADS
/// section. The inverse of [`decode_threads`].
pub fn encode_threads(threads: &[ThreadProfile]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    put_container_header(&mut out);
    put_threads_section(&mut out, threads);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// One thread's row across the THREADS section's scalar columns.
#[derive(Clone, Copy, Debug)]
struct ThreadScalarRow {
    tid: usize,
    cpu: CpuId,
    domain: DomainId,
    instructions: u64,
    numa_events: u64,
    stack_underflows: u64,
}

/// Zero-copy view of a THREADS section: borrowed column slices plus the
/// per-thread body slices, validated but not decoded.
struct ThreadsView<'a> {
    count: usize,
    tids: &'a [u8],
    cpus: &'a [u8],
    domains: &'a [u8],
    instructions: &'a [u8],
    numa_events: &'a [u8],
    stack_underflows: &'a [u8],
    bodies: Vec<&'a [u8]>,
}

fn be_u64_column(raw: &[u8]) -> impl Iterator<Item = u64> + '_ {
    raw.chunks_exact(8)
        .map(|c| u64::from_be_bytes(c.try_into().unwrap()))
}

impl<'a> ThreadsView<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let count = r.u32()? as usize;
        let wide = |w: usize| {
            count
                .checked_mul(w)
                .ok_or(CodecError::Malformed("thread count"))
        };
        let tids = r.take(wide(8)?)?;
        let cpus = r.take(wide(2)?)?;
        let domains = r.take(wide(1)?)?;
        let instructions = r.take(wide(8)?)?;
        let numa_events = r.take(wide(8)?)?;
        let stack_underflows = r.take(wide(8)?)?;
        let mut bodies = Vec::with_capacity(r.clamped_capacity(count, 4));
        for _ in 0..count {
            let len = r.u32()? as usize;
            bodies.push(r.take(len)?);
        }
        if !r.is_empty() {
            return Err(CodecError::Malformed("trailing bytes in threads section"));
        }
        Ok(ThreadsView {
            count,
            tids,
            cpus,
            domains,
            instructions,
            numa_events,
            stack_underflows,
            bodies,
        })
    }

    fn scalar_row(&self, i: usize) -> Result<ThreadScalarRow> {
        let tid = usize::try_from(u64::from_be_bytes(
            self.tids[i * 8..i * 8 + 8].try_into().unwrap(),
        ))
        .map_err(|_| CodecError::Malformed("tid exceeds usize"))?;
        Ok(ThreadScalarRow {
            tid,
            cpu: CpuId(u16::from_be_bytes(
                self.cpus[i * 2..i * 2 + 2].try_into().unwrap(),
            )),
            domain: DomainId(self.domains[i]),
            instructions: u64::from_be_bytes(
                self.instructions[i * 8..i * 8 + 8].try_into().unwrap(),
            ),
            numa_events: u64::from_be_bytes(self.numa_events[i * 8..i * 8 + 8].try_into().unwrap()),
            stack_underflows: u64::from_be_bytes(
                self.stack_underflows[i * 8..i * 8 + 8].try_into().unwrap(),
            ),
        })
    }

    fn decode(&self) -> Result<Vec<ThreadProfile>> {
        let mut threads = Vec::with_capacity(self.count);
        for (i, body) in self.bodies.iter().enumerate() {
            threads.push(read_thread_body(body, self.scalar_row(i)?)?);
        }
        Ok(threads)
    }
}

/// Raw sections of one container, located but not decoded.
#[derive(Default)]
struct Sections<'a> {
    run: Option<&'a [u8]>,
    funcs: Option<&'a [u8]>,
    vars: Option<&'a [u8]>,
    threads: Option<&'a [u8]>,
    first_touch: Option<&'a [u8]>,
}

impl<'a> Sections<'a> {
    /// Validate the container header and locate each section. Unknown
    /// section ids are skipped; a duplicated known id is malformed.
    fn parse(bytes: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4).map_err(|_| CodecError::BadMagic)?;
        if magic != CODEC_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u16()?;
        if version == 0 || version > CODEC_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        if r.u16()? != 0 {
            return Err(CodecError::Malformed("nonzero header flags"));
        }
        let mut sections = Sections::default();
        while !r.is_empty() {
            let id = r.u8()?;
            let len = r.u32()? as usize;
            let body = r.take(len)?;
            let slot = match id {
                SEC_RUN => &mut sections.run,
                SEC_FUNCS => &mut sections.funcs,
                SEC_VARS => &mut sections.vars,
                SEC_THREADS => &mut sections.threads,
                SEC_FIRST_TOUCH => &mut sections.first_touch,
                _ => continue, // a section from a future revision
            };
            if slot.is_some() {
                return Err(CodecError::Malformed("duplicate section"));
            }
            *slot = Some(body);
        }
        Ok(sections)
    }
}

/// A parsed-but-not-materialized profile: run metadata decoded, name
/// tables and rows located, thread scalar columns exposed as in-place
/// slices. [`ProfileView::to_profile`] materializes the full struct;
/// the column accessors serve readers (the engine's index builder) that
/// only need the per-thread scalars.
pub struct ProfileView<'a> {
    mechanism: MechanismKind,
    capabilities: Capabilities,
    domains: usize,
    machine_name: &'a str,
    funcs: &'a [u8],
    vars: &'a [u8],
    threads: ThreadsView<'a>,
    first_touch: &'a [u8],
}

impl<'a> ProfileView<'a> {
    /// Parse a full-profile container: header, section table, RUN
    /// section, and the THREADS section's column framing. Name tables,
    /// variable rows, thread bodies, and first-touch rows are located
    /// and bounds-checked but not decoded.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let sections = Sections::parse(bytes)?;
        let run = sections
            .run
            .ok_or(CodecError::Malformed("missing run section"))?;
        let funcs = sections
            .funcs
            .ok_or(CodecError::Malformed("missing funcs section"))?;
        let vars = sections
            .vars
            .ok_or(CodecError::Malformed("missing vars section"))?;
        let threads_raw = sections
            .threads
            .ok_or(CodecError::Malformed("missing threads section"))?;
        let first_touch = sections
            .first_touch
            .ok_or(CodecError::Malformed("missing first-touch section"))?;

        let mut r = Reader::new(run);
        let mechanism = mechanism_from(r.u8()?)?;
        let capabilities = capabilities_from(r.u8()?)?;
        let domains = r.u32()? as usize;
        let machine_name = r.str_field()?;
        if !r.is_empty() {
            return Err(CodecError::Malformed("trailing bytes in run section"));
        }
        Ok(ProfileView {
            mechanism,
            capabilities,
            domains,
            machine_name,
            funcs,
            vars,
            threads: ThreadsView::parse(threads_raw)?,
            first_touch,
        })
    }

    pub fn mechanism(&self) -> MechanismKind {
        self.mechanism
    }

    pub fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    pub fn domains(&self) -> usize {
        self.domains
    }

    pub fn machine_name(&self) -> &'a str {
        self.machine_name
    }

    /// Threads in this container.
    pub fn thread_count(&self) -> usize {
        self.threads.count
    }

    /// The `instructions` scalar column, straight off the buffer.
    pub fn instructions(&self) -> impl Iterator<Item = u64> + '_ {
        be_u64_column(self.threads.instructions)
    }

    /// The `numa_events` scalar column, straight off the buffer.
    pub fn numa_events(&self) -> impl Iterator<Item = u64> + '_ {
        be_u64_column(self.threads.numa_events)
    }

    /// The `tid` scalar column, straight off the buffer.
    pub fn tids(&self) -> impl Iterator<Item = u64> + '_ {
        be_u64_column(self.threads.tids)
    }

    /// The `stack_underflows` scalar column, straight off the buffer.
    pub fn stack_underflows(&self) -> impl Iterator<Item = u64> + '_ {
        be_u64_column(self.threads.stack_underflows)
    }

    /// Materialize the full [`NumaProfile`] (CCT indices rebuilt).
    pub fn to_profile(&self) -> Result<NumaProfile> {
        let mut r = Reader::new(self.funcs);
        let nf = r.u32()? as usize;
        let mut func_names = Vec::with_capacity(r.clamped_capacity(nf, 4));
        for _ in 0..nf {
            func_names.push(r.str_field()?.to_string());
        }
        if !r.is_empty() {
            return Err(CodecError::Malformed("trailing bytes in funcs section"));
        }

        let mut r = Reader::new(self.vars);
        let nv = r.u32()? as usize;
        let mut vars = Vec::with_capacity(r.clamped_capacity(nv, VAR_MIN_LEN));
        for _ in 0..nv {
            vars.push(read_var(&mut r)?);
        }
        if !r.is_empty() {
            return Err(CodecError::Malformed("trailing bytes in vars section"));
        }

        let threads = self.threads.decode()?;

        let mut r = Reader::new(self.first_touch);
        let nt = r.u32()? as usize;
        let mut first_touches = Vec::with_capacity(r.clamped_capacity(nt, FIRST_TOUCH_MIN_LEN));
        for _ in 0..nt {
            first_touches.push(read_first_touch(&mut r)?);
        }
        if !r.is_empty() {
            return Err(CodecError::Malformed(
                "trailing bytes in first-touch section",
            ));
        }

        Ok(NumaProfile {
            mechanism: self.mechanism,
            capabilities: self.capabilities,
            domains: self.domains,
            machine_name: self.machine_name.to_string(),
            func_names,
            vars,
            threads,
            first_touches,
        })
    }
}

/// Decode a full profile ([`ProfileView::parse`] + materialize).
pub fn decode_profile(bytes: &[u8]) -> Result<NumaProfile> {
    ProfileView::parse(bytes)?.to_profile()
}

/// Decode a streaming thread batch (a container carrying a THREADS
/// section). The inverse of [`encode_threads`].
pub fn decode_threads(bytes: &[u8]) -> Result<Vec<ThreadProfile>> {
    let sections = Sections::parse(bytes)?;
    let raw = sections
        .threads
        .ok_or(CodecError::Malformed("missing threads section"))?;
    ThreadsView::parse(raw)?.decode()
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
        let config =
            ProfilerConfig::new(MechanismConfig::for_tests(MechanismKind::Ibs, 8)).with_trace(1000);
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
    }

    #[test]
    fn round_trip_preserves_canonical_bytes() {
        let original = profile();
        let bytes = encode_profile(&original);
        let decoded = decode_profile(&bytes).unwrap();
        assert!(encode_profile(&decoded) == bytes);
    }

    #[test]
    fn view_columns_match_materialized_threads() {
        let original = profile();
        let bytes = encode_profile(&original);
        let view = ProfileView::parse(&bytes).unwrap();
        assert_eq!(view.thread_count(), original.threads.len());
        assert_eq!(view.machine_name(), original.machine_name);
        assert_eq!(view.domains(), original.domains);
        let instr: Vec<u64> = view.instructions().collect();
        let events: Vec<u64> = view.numa_events().collect();
        let tids: Vec<u64> = view.tids().collect();
        for (i, t) in original.threads.iter().enumerate() {
            assert_eq!(instr[i], t.instructions);
            assert_eq!(events[i], t.numa_events);
            assert_eq!(tids[i], t.tid as u64);
        }
    }

    #[test]
    fn thread_batches_round_trip() {
        let original = profile();
        let bytes = encode_threads(&original.threads[1..3]);
        let decoded = decode_threads(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        assert!(encode_threads(&decoded) == bytes);
        // A thread batch is not a full profile.
        assert_eq!(
            decode_profile(&bytes).unwrap_err(),
            CodecError::Malformed("missing run section")
        );
    }

    #[test]
    fn typed_errors_for_bad_headers() {
        assert_eq!(decode_profile(b"").unwrap_err(), CodecError::BadMagic);
        assert_eq!(
            decode_profile(b"XXXXXXXX").unwrap_err(),
            CodecError::BadMagic
        );
        let mut bytes = encode_profile(&profile());
        bytes[4] = 0xFF; // version
        assert!(matches!(
            decode_profile(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn truncation_at_every_section_boundary_is_typed() {
        let bytes = encode_profile(&profile());
        // Chop at a spread of prefixes, including every early boundary.
        for cut in (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(97)) {
            let err = decode_profile(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn corrupt_count_is_rejected_not_allocated() {
        let mut bytes = encode_profile(&profile());
        // The THREADS section's count field: find the section and smash
        // its count to u32::MAX. Decode must reject it (Truncated) long
        // before allocating count-sized buffers.
        let mut off = CODEC_HEADER_LEN;
        while off + 5 <= bytes.len() {
            let id = bytes[off];
            let len = u32::from_be_bytes(bytes[off + 1..off + 5].try_into().unwrap()) as usize;
            if id == SEC_THREADS {
                bytes[off + 5..off + 9].copy_from_slice(&u32::MAX.to_be_bytes());
                break;
            }
            off += 5 + len;
        }
        assert!(decode_profile(&bytes).is_err());
    }
}
