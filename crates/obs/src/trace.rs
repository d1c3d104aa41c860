//! Per-request structured spans.
//!
//! The serving layer opens a trace around each request
//! ([`begin`] / [`take`]); lower layers deposit facts into the active
//! trace through the thread-local note functions ([`note_shard`],
//! [`note_cache`], [`note_wal_ack_us`]) without any context argument
//! threading. A finished [`Span`] slower than a configurable threshold
//! is kept in a bounded [`SpanRing`], so the evidence for a slow request
//! outlives it.
//!
//! Notes are no-ops when no trace is active on the thread, so
//! instrumented code in the store costs one thread-local flag check
//! when called outside a traced request (recovery, tests, in-process
//! embedding).

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// One finished request span. `seq` numbers the daemon's requests in
/// the order they finished.
#[derive(Clone, Debug)]
pub struct Span {
    pub seq: u64,
    /// Wire op name (static: the daemon's op table).
    pub op: &'static str,
    /// Request payload size in bytes.
    pub bytes: u64,
    /// Store shard the request touched, if any.
    pub shard: Option<u32>,
    /// Memo-cache outcome, if the request consulted the cache.
    pub cache_hit: Option<bool>,
    /// Time spent blocked on the WAL ack, if the request committed a profile.
    pub wal_ack_us: Option<u64>,
    /// End-to-end service time.
    pub total_us: u64,
    /// Whether the request was answered with a typed error.
    pub error: bool,
}

/// One line: `#SEQ OP TOTAL µs (BYTES byte(s)` then whichever of
/// `, shard N`, `, cache hit|miss`, `, wal ack N µs` and `, error` the
/// span carries, then `)`. The daemon's slow-op log line and its
/// `# slow-op` exposition comment both print this.
impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {} {} µs ({} byte(s)",
            self.seq, self.op, self.total_us, self.bytes
        )?;
        if let Some(shard) = self.shard {
            write!(f, ", shard {shard}")?;
        }
        match self.cache_hit {
            Some(true) => f.write_str(", cache hit")?,
            Some(false) => f.write_str(", cache miss")?,
            None => {}
        }
        if let Some(us) = self.wal_ack_us {
            write!(f, ", wal ack {us} µs")?;
        }
        if self.error {
            f.write_str(", error")?;
        }
        f.write_str(")")
    }
}

/// Prefix of the exposition comment that carries one retained slow span.
const SLOW_OP_COMMENT: &str = "# slow-op ";

/// Append `span` to an exposition as one `# slow-op` comment line.
pub fn write_slow_op(out: &mut String, span: &Span) {
    use fmt::Write as _;
    let _ = writeln!(out, "{SLOW_OP_COMMENT}{span}");
}

/// The `# slow-op` comments of an exposition as `(seq, span line)`, in
/// text order. A comment whose line does not start with `#SEQ` is an
/// error naming it.
pub fn parse_slow_ops(text: &str) -> Result<Vec<(u64, &str)>, String> {
    text.lines()
        .filter_map(|l| l.strip_prefix(SLOW_OP_COMMENT))
        .map(|span| {
            let seq = span
                .strip_prefix('#')
                .and_then(|rest| rest.split(' ').next()?.parse().ok());
            seq.map(|seq| (seq, span))
                .ok_or_else(|| format!("slow-op line without a seq: {span:?}"))
        })
        .collect()
}

/// A bounded ring of spans. Spans go in whole under one lock, so a
/// reader never sees torn fields, and memory stays capped at `capacity`
/// spans (at least one).
pub struct SpanRing {
    spans: Mutex<VecDeque<Span>>,
    capacity: usize,
}

impl SpanRing {
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            spans: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
        }
    }

    /// Keep `span`, evicting the oldest when full.
    pub fn retain(&self, span: Span) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() == self.capacity {
            spans.pop_front();
        }
        spans.push_back(span);
    }

    /// The most recent `n` spans, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Span> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let skip = spans.len().saturating_sub(n);
        spans.iter().skip(skip).cloned().collect()
    }
}

/// Facts lower layers deposited into the active trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct Notes {
    pub shard: Option<u32>,
    pub cache_hit: Option<bool>,
    pub wal_ack_us: Option<u64>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static NOTES: Cell<Notes> = const { Cell::new(Notes { shard: None, cache_hit: None, wal_ack_us: None }) };
}

/// Open a trace on this thread, clearing any stale notes.
pub fn begin() {
    NOTES.with(|n| n.set(Notes::default()));
    ACTIVE.with(|a| a.set(true));
}

/// Close the trace and return the accumulated notes.
pub fn take() -> Notes {
    ACTIVE.with(|a| a.set(false));
    NOTES.with(|n| n.replace(Notes::default()))
}

#[inline]
fn with_active(f: impl FnOnce(&mut Notes)) {
    if ACTIVE.with(|a| a.get()) {
        NOTES.with(|n| {
            let mut notes = n.get();
            f(&mut notes);
            n.set(notes);
        });
    }
}

/// Record which store shard the request touched.
#[inline]
pub fn note_shard(shard: u32) {
    with_active(|n| n.shard = Some(shard));
}

/// Record a memo-cache hit (`true`) or miss (`false`).
#[inline]
pub fn note_cache(hit: bool) {
    with_active(|n| n.cache_hit = Some(hit));
}

/// Accumulate time spent blocked on a WAL ack (requests that stage
/// multiple records sum their waits).
#[inline]
pub fn note_wal_ack_us(us: u64) {
    with_active(|n| n.wal_ack_us = Some(n.wal_ack_us.unwrap_or(0) + us));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> Span {
        Span {
            seq,
            op: "ping",
            bytes: 0,
            shard: None,
            cache_hit: None,
            wal_ack_us: None,
            total_us: 1,
            error: false,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_monotonic_seq() {
        let ring = SpanRing::new(3);
        for seq in 0..5 {
            ring.retain(span(seq));
        }
        let seqs: Vec<u64> = ring.recent(10).iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let seqs: Vec<u64> = ring.recent(2).iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn a_span_displays_only_the_facts_it_carries() {
        let mut span = Span {
            seq: 7,
            op: "ingest-binary",
            bytes: 512,
            shard: None,
            cache_hit: None,
            wal_ack_us: None,
            total_us: 900,
            error: false,
        };
        assert_eq!(span.to_string(), "#7 ingest-binary 900 µs (512 byte(s))");
        span.shard = Some(3);
        span.cache_hit = Some(false);
        span.wal_ack_us = Some(40);
        span.error = true;
        assert_eq!(
            span.to_string(),
            "#7 ingest-binary 900 µs (512 byte(s), shard 3, cache miss, wal ack 40 µs, error)"
        );
    }

    #[test]
    fn slow_op_comments_read_back_in_text_order() {
        let mut text = String::from("numa_x 1\n");
        write_slow_op(&mut text, &span(4));
        write_slow_op(&mut text, &span(9));
        assert_eq!(
            parse_slow_ops(&text).unwrap(),
            [
                (4, "#4 ping 1 µs (0 byte(s))"),
                (9, "#9 ping 1 µs (0 byte(s))")
            ]
        );
        assert!(parse_slow_ops("# slow-op ping\n").is_err());
    }

    #[test]
    fn notes_only_stick_while_a_trace_is_active() {
        note_shard(9); // no trace: dropped
        begin();
        note_shard(3);
        note_cache(true);
        note_wal_ack_us(10);
        note_wal_ack_us(5);
        let notes = take();
        assert_eq!(notes.shard, Some(3));
        assert_eq!(notes.cache_hit, Some(true));
        assert_eq!(notes.wal_ack_us, Some(15));
        // Closed: further notes are dropped and the next begin() is clean.
        note_cache(false);
        begin();
        assert_eq!(take().cache_hit, None);
    }
}
