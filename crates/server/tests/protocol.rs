//! Property tests for the wire protocol: arbitrary payloads survive
//! framing, arbitrary TCP fragmentation reassembles, every message of
//! the binary grammar round-trips, and every malformed byte stream
//! yields a typed error — never a panic.

use numa_server::protocol::{
    caps, decode_request, decode_response, encode_frame, encode_frame_flags, encode_request,
    encode_response, frame_len, read_frame, FrameDecoder, FrameError, ProfileEntry, RecvError,
    ReportFormat, Request, Response, WireError, HEADER_LEN, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Arbitrary payload bytes (0–1528 bytes, every byte value reachable).
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u64>(), 0..192)
        .prop_map(|words| words.iter().flat_map(|w| w.to_le_bytes()).collect())
}

/// Arbitrary short text built from arbitrary u64s (printable-ish but
/// including multi-byte UTF-8).
fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u64>(), 0..12).prop_map(|words| {
        words
            .iter()
            .filter_map(|w| char::from_u32((w % 0x2_0000) as u32))
            .collect()
    })
}

proptest! {
    #[test]
    fn single_frame_round_trips(payload in payload_strategy(), version in 0u16..64) {
        let bytes = encode_frame(version, &payload).unwrap();
        let mut decoder = FrameDecoder::new(payload.len().max(1));
        decoder.push(&bytes);
        let frame = decoder.next_frame().expect("valid frame").expect("complete");
        prop_assert_eq!(frame.version, version);
        prop_assert_eq!(frame.flags, 0);
        prop_assert_eq!(frame.payload, payload);
        // Nothing left over.
        prop_assert!(decoder.next_frame().expect("empty tail").is_none());
        prop_assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn capability_flags_round_trip(payload in payload_strategy(), flags in any::<u64>()) {
        // ANY flags word — known capability bits, unknown future bits,
        // all of them — must survive framing; policy about unknown bits
        // belongs to the daemon, not the codec.
        let flags = flags as u16;
        let bytes = encode_frame_flags(PROTOCOL_VERSION, flags, &payload).unwrap();
        let mut decoder = FrameDecoder::new(payload.len().max(1));
        decoder.push(&bytes);
        let frame = decoder.next_frame().expect("valid frame").expect("complete");
        prop_assert_eq!(frame.flags, flags);
        prop_assert_eq!(frame.payload, payload);
    }

    #[test]
    fn chunked_streams_reassemble(
        payloads in prop::collection::vec(payload_strategy(), 1..5),
        chunk in 1usize..23,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(PROTOCOL_VERSION, p).unwrap());
        }
        // Feed the concatenated stream in fixed-size slivers; frame
        // boundaries land anywhere relative to chunk boundaries.
        let mut decoder = FrameDecoder::new(1 << 20);
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                got.push(frame.payload);
            }
        }
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn oversized_frames_are_typed_errors(extra in 1usize..4096, max in 8usize..256) {
        let payload = vec![0xabu8; max + extra];
        let bytes = encode_frame(PROTOCOL_VERSION, &payload).unwrap();
        let mut decoder = FrameDecoder::new(max);
        // Push only the header: the cap must trip before any payload
        // is buffered.
        decoder.push(&bytes[..HEADER_LEN]);
        let err = decoder.next_frame().expect_err("over the cap");
        prop_assert_eq!(err, FrameError::Oversized { len: max + extra, max });
        // The decoder stays poisoned: more bytes never un-error it.
        decoder.push(&bytes[HEADER_LEN..]);
        prop_assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn truncated_frames_never_complete(payload in payload_strategy(), keep_permille in 0u64..1000) {
        let bytes = encode_frame(PROTOCOL_VERSION, &payload).unwrap();
        let keep = (bytes.len() as u64 * keep_permille / 1000) as usize;
        if keep < bytes.len() {
            let mut decoder = FrameDecoder::new(1 << 20);
            decoder.push(&bytes[..keep]);
            // An incomplete frame is "need more bytes", not an error and
            // not a frame.
            prop_assert!(decoder.next_frame().expect("prefix is valid").is_none());
            // The blocking reader surfaces the same prefix as a typed
            // truncation once EOF arrives (or a clean EOF at offset 0).
            let mut reader = std::io::Cursor::new(bytes[..keep].to_vec());
            match read_frame(&mut reader, 1 << 20) {
                Ok(None) => prop_assert_eq!(keep, 0),
                Err(RecvError::TruncatedEof { got }) => prop_assert_eq!(got, keep),
                other => prop_assert!(false, "unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_magic_is_rejected(payload in payload_strategy(), first in 0u64..0xffff_ffff) {
        let mut bytes = encode_frame(PROTOCOL_VERSION, &payload).unwrap();
        let magic = (first as u32).to_be_bytes();
        if magic != *b"HPCD" {
            bytes[..4].copy_from_slice(&magic);
            let mut decoder = FrameDecoder::new(1 << 20);
            decoder.push(&bytes);
            prop_assert_eq!(
                decoder.next_frame().expect_err("bad magic"),
                FrameError::BadMagic(magic)
            );
        }
    }

    #[test]
    fn requests_round_trip_in_binary(label in text_strategy(), body in text_strategy(), n in 0usize..10_000) {
        let requests = [
            Request::Ping,
            Request::List,
            Request::Resolve { reference: label.clone() },
            Request::Aggregate,
            Request::Top { n },
            Request::Report { profile: label.clone(), format: ReportFormat::Json },
            Request::CodeView { profile: label.clone(), min_share_permille: (n % 1000) as u16 },
            Request::AddressView { profile: label.clone(), var: body.clone() },
            Request::Diff { before: label.clone(), after: body.clone() },
            Request::ClearCache,
            Request::Shutdown,
            Request::OpenSession { label: label.clone() },
            Request::SealSession { session: n as u64 },
            Request::AbortSession { session: n as u64 },
            // The two profile-bearing requests carry their codec bytes
            // as the rest of the payload.
            Request::IngestBinary { label: label.clone(), bytes: body.clone().into_bytes() },
            Request::AppendChunkBinary { session: n as u64, seq: n as u64, bytes: body.clone().into_bytes() },
        ];
        for req in &requests {
            let decoded = decode_request(&encode_request(req)).expect("round-trip");
            prop_assert_eq!(&decoded, req);
        }
        // Only session ops rely on capability bits.
        for req in &requests {
            let expected = match req {
                Request::OpenSession { .. } | Request::SealSession { .. }
                | Request::AbortSession { .. }
                | Request::AppendChunkBinary { .. } => caps::STREAMING,
                _ => 0,
            };
            prop_assert_eq!(req.required_caps(), expected);
        }
    }

    #[test]
    fn responses_round_trip_in_binary(text in text_strategy(), added in any::<bool>()) {
        let responses = [
            Response::Pong,
            Response::Ingested { id: text.clone(), added },
            Response::Text(text.clone()),
            Response::CacheCleared,
            Response::ShuttingDown,
            Response::Error(WireError::UnknownProfile { reference: text.clone() }),
            Response::Error(WireError::AmbiguousReference {
                reference: text.clone(),
                candidates: vec![text.clone(), text.clone()],
            }),
            Response::Error(WireError::Malformed { detail: text.clone() }),
            Response::Error(WireError::EmptyStore),
            Response::SessionOpened {
                session: added as u64,
                lease_ms: 30_000,
                max_chunk_bytes: 4 << 20,
                max_session_bytes: 64 << 20,
            },
            Response::ChunkAppended { session: 7, seq: added as u64, open_bytes: 1024 },
            Response::SessionSealed { id: text.clone(), added, chunks: 5 },
            Response::SessionAborted { session: 7 },
            Response::Error(WireError::Unsupported { feature: caps::STREAMING, supported: caps::SUPPORTED }),
            Response::Error(WireError::UnknownSession { session: 7 }),
            Response::Error(WireError::BadChunkSequence { session: 7, got: 3, expected: 1 }),
            Response::Error(WireError::ChunkTooLarge { session: 7, len: 9000, max: 4096 }),
            Response::Error(WireError::SessionBufferFull { session: 7, bytes: 9000, max: 4096 }),
            Response::Error(WireError::Busy { detail: text.clone() }),
            Response::Error(WireError::ChunkParse { session: 7, seq: 2, message: text.clone() }),
            Response::Error(WireError::SessionIncomplete { session: 7, detail: text.clone() }),
        ];
        for resp in &responses {
            let decoded = decode_response(&encode_response(resp)).expect("round-trip");
            prop_assert_eq!(&decoded, resp);
        }
    }
}

#[test]
fn flags_word_is_accepted_where_reserved_was_rejected() {
    // The header word at offsets 6..8 used to be required-zero; it is
    // the capability flags word now, and the decoder must surface any
    // value rather than poison the stream (unknown bits are the
    // daemon's policy decision, answered with a typed error).
    let mut bytes = encode_frame(PROTOCOL_VERSION, b"x").unwrap();
    bytes[6] = 0x12;
    bytes[7] = 0x34;
    let mut decoder = FrameDecoder::new(64);
    decoder.push(&bytes);
    let frame = decoder.next_frame().unwrap().expect("complete frame");
    assert_eq!(frame.flags, 0x1234);
    assert_eq!(frame.payload, b"x");
}

#[test]
fn capability_set_is_coherent() {
    // STREAMING and METRICS are implemented, and render() names known
    // bits.
    assert_eq!(caps::SUPPORTED, caps::STREAMING | caps::METRICS);
    assert_ne!(caps::STREAMING, caps::METRICS);
    assert_eq!(caps::render(caps::SUPPORTED), "0x0005 (streaming, metrics)");
    assert!(caps::render(0).contains("none"));
    assert!(caps::render(0x8000).contains("unknown"));
    // Bit 1 is retired, never reused: it is an unknown bit.
    assert_eq!(caps::SUPPORTED & (1 << 1), 0);
    assert!(caps::render(1 << 1).contains("unknown"));
}

#[test]
fn truncated_binary_requests_are_typed_malformed_errors() {
    let full = encode_request(&Request::IngestBinary {
        label: "run".to_string(),
        bytes: vec![1, 2, 3],
    });
    // Every proper prefix of the message's head (tag, label length,
    // label) decodes to a typed error, never a panic; the codec body
    // itself is validated at execute time, not decode time.
    let header_len = 1 + 4 + "run".len();
    assert_eq!(full.len(), header_len + 3);
    for cut in 0..header_len {
        let err = decode_request(&full[..cut]).unwrap_err();
        assert!(
            matches!(err, WireError::Malformed { .. }),
            "cut={cut} {err:?}"
        );
    }
    // An unknown tag is typed, too.
    let mut bad = full.clone();
    bad[0] = 0xEE;
    let err = decode_request(&bad).unwrap_err();
    assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
}

#[test]
fn non_utf8_payload_is_a_typed_malformed_error() {
    let err = decode_request(&[0xff, 0xfe, 0x00]).unwrap_err();
    assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
    // A string field that is not UTF-8 is typed, and says so.
    let mut resolve = encode_request(&Request::Resolve {
        reference: "ab".to_string(),
    });
    resolve[5] = 0xff;
    match decode_request(&resolve).unwrap_err() {
        WireError::Malformed { detail } => assert!(detail.contains("UTF-8"), "{detail}"),
        other => panic!("{other:?}"),
    }
    let err = decode_request(b"{\"not\": \"a request\"}").unwrap_err();
    assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
    // JSON of any request — the retired JSON twins of the payload ops
    // included — opens with an unknown tag.
    for retired in [
        r#"{"Ingest":{"label":"run","json":"{}"}}"#,
        r#"{"AppendChunk":{"session":1,"seq":0,"chunk":"{}"}}"#,
    ] {
        let err = decode_request(retired.as_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "{err:?}");
    }
}

#[test]
fn frame_len_rejects_payloads_past_u32() {
    // The wire length field is a u32; encoding anything larger must be
    // a typed error, never a silently truncated header. Checked via the
    // length helper so the test does not allocate 4 GiB.
    assert_eq!(frame_len(0).unwrap(), 0);
    assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
    assert_eq!(
        frame_len(u32::MAX as usize + 1).unwrap_err(),
        FrameError::Oversized {
            len: u32::MAX as usize + 1,
            max: u32::MAX as usize,
        }
    );
}

/// An in-memory peer that hands out at most `step` bytes per `read`
/// (and, when asked, an `Interrupted` before each), counting what it
/// has given away.
struct Dribble<'a> {
    bytes: &'a [u8],
    given: usize,
    step: usize,
    interrupt: bool,
    interrupted: bool,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.interrupt && !self.interrupted {
            self.interrupted = true;
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.interrupted = false;
        let n = buf.len().min(self.step).min(self.bytes.len() - self.given);
        buf[..n].copy_from_slice(&self.bytes[self.given..self.given + n]);
        self.given += n;
        Ok(n)
    }
}

/// What one `read_frame` call returned, in comparable form.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    CleanEof,
    Truncated(usize),
    Frame { flags: u16, payload: Vec<u8> },
    Oversized { len: usize, max: usize },
    BadMagic([u8; 4]),
}

fn outcome(r: &mut impl std::io::Read, max_frame: usize) -> Outcome {
    match read_frame(r, max_frame) {
        Ok(None) => Outcome::CleanEof,
        Ok(Some(f)) => {
            assert_eq!(f.version, PROTOCOL_VERSION);
            Outcome::Frame {
                flags: f.flags,
                payload: f.payload,
            }
        }
        Err(RecvError::TruncatedEof { got }) => Outcome::Truncated(got),
        Err(RecvError::Frame(FrameError::Oversized { len, max })) => {
            Outcome::Oversized { len, max }
        }
        Err(RecvError::Frame(FrameError::BadMagic(m))) => Outcome::BadMagic(m),
        Err(RecvError::Io(e)) => panic!("unexpected transport error {e}"),
    }
}

#[test]
fn read_frame_results_table() {
    const MAX: usize = 64;
    let frame = encode_frame_flags(PROTOCOL_VERSION, caps::STREAMING, b"0123456789").unwrap();
    let empty = encode_frame(PROTOCOL_VERSION, b"").unwrap();
    let oversized = encode_frame(PROTOCOL_VERSION, &[b'x'; MAX + 1]).unwrap();
    let mut bad_magic = frame.clone();
    bad_magic[..4].copy_from_slice(b"GET ");
    let two = [frame.clone(), empty.clone()].concat();
    let whole = Outcome::Frame {
        flags: caps::STREAMING,
        payload: b"0123456789".to_vec(),
    };
    let no_payload = Outcome::Frame {
        flags: 0,
        payload: Vec::new(),
    };
    let over = Outcome::Oversized {
        len: MAX + 1,
        max: MAX,
    };

    // (the whole stream, what one call returns, how many bytes it took)
    let mut rows: Vec<(&[u8], Outcome, usize)> = vec![(&[], Outcome::CleanEof, 0)];
    for cut in 1..frame.len() {
        rows.push((&frame[..cut], Outcome::Truncated(cut), cut));
    }
    rows.push((&frame, whole.clone(), frame.len()));
    rows.push((&empty, no_payload.clone(), HEADER_LEN));
    // Never a byte past the frame: what follows it stays unread.
    rows.push((&two, whole.clone(), frame.len()));
    // A structural error is decided by the header alone, before a
    // payload byte is read — whether or not the payload ever arrives.
    rows.push((&oversized, over.clone(), HEADER_LEN));
    rows.push((&oversized[..HEADER_LEN], over, HEADER_LEN));
    rows.push((&bad_magic, Outcome::BadMagic(*b"GET "), HEADER_LEN));

    for (bytes, want, consumed) in &rows {
        // One byte at a time, with and without an `Interrupted` before
        // every read, in threes, and all at once.
        for (step, interrupt) in [(1, false), (1, true), (3, true), (usize::MAX, false)] {
            let mut peer = Dribble {
                bytes,
                given: 0,
                step,
                interrupt,
                interrupted: false,
            };
            assert_eq!(&outcome(&mut peer, MAX), want, "step {step}");
            assert_eq!(peer.given, *consumed, "{want:?} at step {step}");
        }
    }

    // The pipelined pair, read to the end: two frames, then a clean EOF.
    let mut peer = std::io::Cursor::new(two);
    assert_eq!(outcome(&mut peer, MAX), whole);
    assert_eq!(outcome(&mut peer, MAX), no_payload);
    assert_eq!(outcome(&mut peer, MAX), Outcome::CleanEof);
}

#[test]
fn read_frame_surfaces_a_timeout_mid_frame() {
    // Header delivered, then the transport's read timeout fires: the
    // error is the timeout, not a truncation and not a hang.
    struct ThenTimesOut(std::io::Cursor<Vec<u8>>);
    impl std::io::Read for ThenTimesOut {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(std::io::ErrorKind::WouldBlock.into()),
                n => Ok(n),
            }
        }
    }
    let bytes = encode_frame(PROTOCOL_VERSION, b"payload").unwrap();
    for keep in [0, 5, HEADER_LEN, HEADER_LEN + 3] {
        let mut peer = ThenTimesOut(std::io::Cursor::new(bytes[..keep].to_vec()));
        let err = read_frame(&mut peer, 64).expect_err("timed out");
        assert!(err.is_timeout(), "keep {keep}: {err:?}");
    }
}

/// Strings full of what a text encoding would have to escape or
/// re-encode: each control byte, `"`, `\`, `/`, DEL, 2–4-byte UTF-8 and
/// long clean runs, in seeded mixes.
fn kernel_strings() -> Vec<String> {
    let mut out = vec![
        String::new(),
        (0u8..0x20).map(char::from).collect(),
        "\"\\/\u{7f}".to_string(),
        "é ß → 温 😀 \u{10ffff}".to_string(),
        "a clean run with no escapes at all ".repeat(64),
        "line one\nline two\n\ttabbed \"quoted\" back\\slash\r\n".repeat(16),
    ];
    let atoms = [
        "\u{0}",
        "\u{1}",
        "\u{8}",
        "\t",
        "\n",
        "\u{c}",
        "\r",
        "\u{1f}",
        "\"",
        "\\",
        "/",
        "\u{7f}",
        "é",
        "→",
        "😀",
        "plain ascii run, long enough to be copied as one piece; ",
        "x",
    ];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..200 {
        let mut s = String::new();
        for _ in 0..1 + state % 24 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            s.push_str(atoms[(state % atoms.len() as u64) as usize]);
        }
        out.push(s);
    }
    out
}

#[test]
fn text_responses_round_trip_through_the_string_kernels() {
    for s in kernel_strings() {
        let payload = encode_response(&Response::Text(s.clone()));
        assert_eq!(
            &payload[1..],
            s.as_bytes(),
            "the text travels as its own bytes"
        );
        assert_eq!(
            decode_response(&payload).expect("decode"),
            Response::Text(s)
        );
    }
}

#[test]
fn text_response_payload_is_pinned_byte_for_byte() {
    let resp =
        Response::Text("cross-run aggregate: 2 run(s)\n\t\"z\" 50% → C:\\x/y\u{1}é\r".into());
    // Tag 4, then the UTF-8 bytes as they are: no length, no escapes.
    let want: &[u8] =
        b"\x04cross-run aggregate: 2 run(s)\n\t\"z\" 50% \xe2\x86\x92 C:\\x/y\x01\xc3\xa9\r";
    assert_eq!(encode_response(&resp), want);
    assert_eq!(decode_response(want).unwrap(), resp);
}

// ---------------------------------------------------------------------------
// The binary grammar, over every variant
// ---------------------------------------------------------------------------

/// Generated field values, enough to build one message of every variant.
#[derive(Clone, Debug)]
struct Draw {
    a: String,
    b: String,
    n: u64,
    m: u64,
    bytes: Vec<u8>,
    list: Vec<String>,
}

fn draw_strategy() -> impl Strategy<Value = Draw> {
    (
        text_strategy(),
        text_strategy(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..24)
            .prop_map(|w| w.iter().flat_map(|w| w.to_le_bytes()).collect()),
        prop::collection::vec(text_strategy(), 0..40),
    )
        .prop_map(|(a, b, n, m, bytes, list)| Draw {
            a,
            b,
            n,
            m,
            bytes,
            list,
        })
}

fn every_request(d: &Draw) -> Vec<Request> {
    let format = [ReportFormat::Text, ReportFormat::Json][(d.n & 1) as usize];
    vec![
        Request::Ping,
        Request::List,
        Request::Resolve {
            reference: d.a.clone(),
        },
        Request::Aggregate,
        Request::Top { n: d.n as usize },
        Request::Report {
            profile: d.a.clone(),
            format,
        },
        Request::CodeView {
            profile: d.b.clone(),
            min_share_permille: d.m as u16,
        },
        Request::AddressView {
            profile: d.a.clone(),
            var: d.b.clone(),
        },
        Request::Diff {
            before: d.a.clone(),
            after: d.b.clone(),
        },
        Request::Metrics,
        Request::ClearCache,
        Request::Shutdown,
        Request::OpenSession { label: d.a.clone() },
        Request::SealSession { session: d.n },
        Request::AbortSession { session: d.m },
        Request::IngestBinary {
            label: d.a.clone(),
            bytes: d.bytes.clone(),
        },
        Request::AppendChunkBinary {
            session: d.n,
            seq: d.m,
            bytes: d.bytes.clone(),
        },
    ]
}

fn every_wire_error(d: &Draw) -> Vec<WireError> {
    vec![
        WireError::Malformed {
            detail: d.a.clone(),
        },
        WireError::Oversized {
            len: d.n as usize,
            max: d.m as usize,
        },
        WireError::UnsupportedVersion {
            got: d.n as u16,
            supported: PROTOCOL_VERSION,
        },
        WireError::UnknownProfile {
            reference: d.a.clone(),
        },
        WireError::AmbiguousReference {
            reference: d.b.clone(),
            candidates: d.list.clone(),
        },
        WireError::UnknownVariable { name: d.b.clone() },
        WireError::EmptyStore,
        WireError::ProfileParse {
            label: d.a.clone(),
            message: d.b.clone(),
        },
        WireError::Internal {
            detail: d.b.clone(),
        },
        WireError::Unsupported {
            feature: d.n as u16,
            supported: caps::SUPPORTED,
        },
        WireError::UnknownSession { session: d.n },
        WireError::BadChunkSequence {
            session: d.n,
            got: d.m,
            expected: d.n ^ d.m,
        },
        WireError::ChunkTooLarge {
            session: d.m,
            len: d.n,
            max: 4096,
        },
        WireError::SessionBufferFull {
            session: d.n,
            bytes: d.m,
            max: u64::MAX,
        },
        WireError::Busy {
            detail: d.a.clone(),
        },
        WireError::ChunkParse {
            session: d.n,
            seq: d.m,
            message: d.a.clone(),
        },
        WireError::SessionIncomplete {
            session: d.m,
            detail: d.b.clone(),
        },
        WireError::NotDurable {
            detail: d.a.clone(),
        },
    ]
}

fn every_response(d: &Draw) -> Vec<Response> {
    let mut out = vec![
        Response::Pong,
        Response::Ingested {
            id: d.a.clone(),
            added: d.n & 1 == 1,
        },
        Response::Profiles(
            d.list
                .iter()
                .map(|label| ProfileEntry {
                    id: d.a.clone(),
                    label: label.clone(),
                    threads: d.n as usize,
                    codec_bytes: d.m as usize,
                })
                .collect(),
        ),
        Response::Resolved {
            id: d.a.clone(),
            label: d.b.clone(),
        },
        Response::Text(d.list.concat()),
        Response::CacheCleared,
        Response::ShuttingDown,
        Response::SessionOpened {
            session: d.n,
            lease_ms: d.m,
            max_chunk_bytes: 4 << 20,
            max_session_bytes: 64 << 20,
        },
        Response::ChunkAppended {
            session: d.n,
            seq: d.m,
            open_bytes: d.n ^ d.m,
        },
        Response::SessionSealed {
            id: d.b.clone(),
            added: d.m & 1 == 1,
            chunks: d.n,
        },
        Response::SessionAborted { session: d.m },
    ];
    out.extend(every_wire_error(d).into_iter().map(Response::Error));
    out
}

/// Length of a message's trailing blob — the rest of the payload, which
/// any prefix past the head still spells (shorter) — or `None` for a
/// message without one.
fn request_blob(req: &Request) -> Option<usize> {
    match req {
        Request::IngestBinary { bytes, .. } | Request::AppendChunkBinary { bytes, .. } => {
            Some(bytes.len())
        }
        _ => None,
    }
}

fn response_blob(resp: &Response) -> Option<usize> {
    match resp {
        Response::Text(text) => Some(text.len()),
        _ => None,
    }
}

/// The tags a decoder knows: every byte whose one-byte payload is not
/// refused as an unknown tag. `prefix` is what comes before the tag.
fn known_tags<T>(prefix: &[u8], decode: impl Fn(&[u8]) -> Result<T, WireError>) -> Vec<u8> {
    (0..=255u8)
        .filter(|&tag| {
            let payload = [prefix, &[tag]].concat();
            !matches!(decode(&payload), Err(WireError::Malformed { detail }) if detail.contains("unknown"))
        })
        .collect()
}

/// Every strict prefix and every single-byte flip of `bytes` decodes to
/// a typed `Malformed` or to a message that re-encodes to exactly those
/// bytes; a prefix shorter than the head (everything before the blob)
/// is always `Malformed`.
fn check_corruptions<T: std::fmt::Debug>(
    bytes: &[u8],
    blob: Option<usize>,
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let head = bytes.len() - blob.unwrap_or(0);
    let mut altered = bytes.to_vec();
    for i in 0..bytes.len() {
        match decode(&bytes[..i]) {
            Err(WireError::Malformed { .. }) => {}
            Ok(m) => assert!(
                i >= head && encode(&m) == bytes[..i],
                "prefix {i} of {bytes:?} decoded to {m:?}"
            ),
            Err(e) => panic!("prefix {i}: untyped {e:?}"),
        }
        altered[i] ^= 0xFF;
        match decode(&altered) {
            Err(WireError::Malformed { .. }) => {}
            Ok(m) => assert_eq!(encode(&m), altered, "flip at {i} decoded to {m:?}"),
            Err(e) => panic!("flip at {i}: untyped {e:?}"),
        }
        altered[i] ^= 0xFF;
    }
    // A byte past the last field: a blob absorbs it, anything else is
    // left over.
    altered.push(0);
    match decode(&altered) {
        Ok(m) if blob.is_some() => assert_eq!(encode(&m), altered),
        Err(WireError::Malformed { detail }) if blob.is_none() => {
            assert!(detail.contains("left over"), "{detail}")
        }
        other => panic!("one trailing byte after {bytes:?}: {other:?}"),
    }
}

proptest! {
    #[test]
    fn every_variant_round_trips(d in draw_strategy()) {
        let requests = every_request(&d);
        for req in &requests {
            prop_assert_eq!(&decode_request(&encode_request(req)).expect("request"), req);
        }
        let responses = every_response(&d);
        for resp in &responses {
            prop_assert_eq!(&decode_response(&encode_response(resp)).expect("response"), resp);
        }
        // Every tag the decoders know is drawn above: a variant added to
        // the grammar but not to this test fails here.
        let tags = |payloads: Vec<Vec<u8>>, at: usize| {
            let mut tags: Vec<u8> = payloads.iter().map(|p| p[at]).collect();
            tags.dedup();
            tags
        };
        prop_assert_eq!(
            tags(requests.iter().map(encode_request).collect(), 0),
            known_tags(&[], decode_request)
        );
        prop_assert_eq!(
            tags(responses.iter().map(encode_response).collect(), 0),
            known_tags(&[], decode_response)
        );
        let errors: Vec<Vec<u8>> = every_wire_error(&d)
            .into_iter()
            .map(|e| encode_response(&Response::Error(e)))
            .collect();
        let error_tag = errors[0][0];
        prop_assert_eq!(tags(errors, 1), known_tags(&[error_tag], decode_response));
    }

    #[test]
    fn prefixes_flips_and_trailing_bytes_are_typed(d in draw_strategy()) {
        // Every byte is cut and flipped, so keep the lists short here;
        // long ones round-trip above.
        let d = Draw { list: d.list.into_iter().take(3).collect(), ..d };
        for req in every_request(&d) {
            check_corruptions(&encode_request(&req), request_blob(&req), decode_request, encode_request);
        }
        for resp in every_response(&d) {
            check_corruptions(&encode_response(&resp), response_blob(&resp), decode_response, encode_response);
        }
    }
}

#[test]
fn unknown_tags_are_malformed_and_named() {
    let cases: [(&[u8], &str); 4] = [
        (&[0xEE], "unknown request tag 0xee"),
        (&[5, 0, 0, 0, 0, 0x07], "unknown report format tag 0x07"),
        (&[0xEE], "unknown response tag 0xee"),
        (&[12, 0x7b], "unknown wire error tag 0x7b"),
    ];
    for (i, (payload, want)) in cases.into_iter().enumerate() {
        let err = if i < 2 {
            decode_request(payload).unwrap_err()
        } else {
            decode_response(payload).unwrap_err()
        };
        match err {
            WireError::Malformed { detail } => assert_eq!(detail, want),
            other => panic!("{payload:?}: {other:?}"),
        }
    }
}

#[test]
fn retired_stats_tags_are_unknown_tags() {
    // Request tags 9 and 10 (the `store-stats` and `server-stats` ops)
    // and response tag 5 (the `server-stats` report) are retired, never
    // reused.
    for (tag, want) in [(9u8, "0x09"), (10, "0x0a")] {
        match decode_request(&[tag]).unwrap_err() {
            WireError::Malformed { detail } => {
                assert_eq!(detail, format!("unknown request tag {want}"))
            }
            other => panic!("request tag {tag}: {other:?}"),
        }
    }
    match decode_response(&[5]).unwrap_err() {
        WireError::Malformed { detail } => assert_eq!(detail, "unknown response tag 0x05"),
        other => panic!("response tag 5: {other:?}"),
    }
}

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Counts the bytes this thread asks the allocator for.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_huge_count_or_length_word_allocates_nothing() {
    // (is a request, the head before a u32::MAX word, what the word is)
    let cases: [(bool, &[u8], &str); 5] = [
        (true, &[2], "Resolve reference length"),
        (true, &[17], "IngestBinary label length"),
        (false, &[1], "Ingested id length"),
        (false, &[2], "Profiles entry count"),
        (
            false,
            &[12, 4, 0, 0, 0, 0],
            "AmbiguousReference candidate count",
        ),
    ];
    for (request, head, word) in cases {
        let mut payload = [head, &u32::MAX.to_be_bytes()].concat();
        payload.resize(16, 0);
        let before = ALLOCATED.with(Cell::get);
        let err = if request {
            decode_request(&payload).map(drop)
        } else {
            decode_response(&payload).map(drop)
        }
        .unwrap_err();
        let allocated = ALLOCATED.with(Cell::get) - before;
        // The error's message is the only allocation: nothing is sized
        // by the word.
        match err {
            WireError::Malformed { detail } => {
                assert!(
                    allocated <= 2 * detail.len().max(64),
                    "{word}: {allocated} B"
                );
            }
            other => panic!("{word}: {other:?}"),
        }
    }
}
