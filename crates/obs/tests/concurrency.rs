//! Concurrency contracts: the span ring under 8 writers + racing
//! readers (no torn spans, bounded memory, each writer's spans in the
//! order it retained them), and histogram snapshots that stay
//! internally consistent while writers hammer `record`.

use numa_obs::{Histogram, Span, SpanRing};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WRITERS: usize = 8;
const PER_WRITER: u64 = 2_000;
const CAPACITY: usize = 64;

/// Span fields carry a checksum relation so a reader can detect a torn
/// span (fields from two different retains) no matter how the ring is
/// sliced: for sequence number `x`, bytes = x, wal_ack = 3x and
/// total = 7x. Writer `w` retains `x` = w·PER_WRITER … in order.
fn checked_span(x: u64) -> Span {
    Span {
        seq: x,
        op: "ingest",
        bytes: x,
        shard: Some((x % 16) as u32),
        cache_hit: Some(x.is_multiple_of(2)),
        wal_ack_us: Some(x.wrapping_mul(3)),
        total_us: x.wrapping_mul(7),
        error: false,
    }
}

#[test]
fn ring_survives_eight_writers_and_racing_readers() {
    const READERS: usize = 2;
    let ring = Arc::new(SpanRing::new(CAPACITY));
    let stop = Arc::new(AtomicBool::new(false));
    // All ten threads leave one barrier together, and a reader finishes
    // a scrape before it first looks at `stop`: the writers cannot be
    // done (and `stop` set) before a reader was ever scheduled.
    let start = Arc::new(Barrier::new(WRITERS + READERS));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut scrapes = 0u64;
                loop {
                    let spans = ring.recent(CAPACITY * 2);
                    // Bounded memory: never more than the capacity.
                    assert!(spans.len() <= CAPACITY, "ring grew to {}", spans.len());
                    let mut last_seq = [None; WRITERS];
                    for s in &spans {
                        // Each writer's spans in its retain order.
                        let last = &mut last_seq[(s.seq / PER_WRITER) as usize];
                        if let Some(prev) = *last {
                            assert!(s.seq > prev, "seq {} after {}", s.seq, prev);
                        }
                        *last = Some(s.seq);
                        // No torn spans: the checksum relation holds.
                        let x = s.seq;
                        assert_eq!(s.bytes, x, "torn span {s:?}");
                        assert_eq!(s.wal_ack_us, Some(x.wrapping_mul(3)), "torn span {s:?}");
                        assert_eq!(s.total_us, x.wrapping_mul(7), "torn span {s:?}");
                        assert_eq!(s.shard, Some((x % 16) as u32), "torn span {s:?}");
                    }
                    scrapes += 1;
                    if stop.load(Ordering::Relaxed) {
                        return scrapes;
                    }
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    ring.retain(checked_span(w as u64 * PER_WRITER + i));
                }
            })
        })
        .collect();
    for t in writers {
        t.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    for t in readers {
        let scrapes = t.join().expect("reader");
        assert!(scrapes > 0, "reader never ran");
    }

    // The ring kept exactly the last CAPACITY retains, and the very
    // last one was some writer's final span.
    let finals = ring.recent(usize::MAX);
    assert_eq!(finals.len(), CAPACITY);
    let last = finals.last().expect("nonempty").seq;
    assert_eq!(
        last % PER_WRITER,
        PER_WRITER - 1,
        "last retained seq {last}"
    );
}

#[test]
fn histogram_snapshots_stay_consistent_under_concurrent_records() {
    let h = Histogram::new();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(WRITERS + 1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let h = h.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    h.record((i << (w % 20)) | 1);
                }
            })
        })
        .collect();

    // A racing scraper: every snapshot must be internally consistent —
    // the count equals its own bucket sum, percentiles are monotone,
    // and successive counts never go backwards. (The pre-snapshot code
    // read live buckets per percentile call, so p50 > p95 was possible
    // under exactly this race.)
    let scraper = {
        let h = h.clone();
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let (mut last_count, mut snapshots) = (0u64, 0u64);
            loop {
                let s = h.snapshot();
                assert_eq!(s.count, s.buckets.iter().sum::<u64>());
                assert!(s.count >= last_count, "count went backwards");
                last_count = s.count;
                let (p50, p95, p99) = (s.percentile(0.50), s.percentile(0.95), s.percentile(0.99));
                assert!(p50 <= p95 && p95 <= p99, "non-monotone: {p50} {p95} {p99}");
                assert!(p99 <= s.max.max(p99));
                snapshots += 1;
                if stop.load(Ordering::Relaxed) {
                    return snapshots;
                }
            }
        })
    };

    for t in writers {
        t.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = scraper.join().expect("scraper");
    assert!(snapshots > 0, "scraper checked nothing");
    assert_eq!(h.snapshot().count, (WRITERS as u64) * PER_WRITER);
}
