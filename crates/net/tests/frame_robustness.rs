//! Protocol robustness (ISSUE 4 satellite): the frame decoder must
//! survive arbitrary hostile bytes — truncated, corrupted, oversized —
//! and always answer with a *typed* [`FrameError`]: never a panic, never
//! a read past the input, never unbounded allocation from a lying length
//! field. Case counts honour `PROPTEST_CASES` like every property suite
//! in the workspace.

use chronorank_core::{AppendRecord, TopK};
use chronorank_net::frame::{
    crc32, decode_append_batch, encode_append_batch, HEADER_LEN, MAX_PAYLOAD,
};
use chronorank_net::{
    Decoder, ErrCode, ErrorBody, Frame, FrameError, OpCode, TopKRequest, TopKResponse, TraceContext,
};
use chronorank_serve::{Route, ServeQuery};
use proptest::prelude::*;

const OPS: [OpCode; 13] = [
    OpCode::Ping,
    OpCode::TopK,
    OpCode::AppendBatch,
    OpCode::Checkpoint,
    OpCode::Stats,
    OpCode::Trace,
    OpCode::Pong,
    OpCode::TopKOk,
    OpCode::AppendOk,
    OpCode::CheckpointOk,
    OpCode::StatsOk,
    OpCode::TraceOk,
    OpCode::Error,
];

fn arb_frame() -> impl Strategy<Value = Frame> {
    (0usize..OPS.len(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(op, id, payload)| Frame::new(OPS[op], id, payload))
}

proptest! {
    /// Well-formed frames always round-trip, regardless of content.
    #[test]
    fn valid_frames_roundtrip(frame in arb_frame()) {
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes).expect("valid frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// Truncating a valid frame anywhere yields `Truncated` with an
    /// honest byte count — never a panic, never an over-read.
    #[test]
    fn truncation_is_always_typed(frame in arb_frame(), cut in 0.0f64..1.0) {
        let bytes = frame.encode();
        let keep = (bytes.len() as f64 * cut) as usize; // strictly < len
        match Frame::decode(&bytes[..keep]) {
            Err(FrameError::Truncated { needed, have }) => {
                prop_assert_eq!(have, keep);
                prop_assert!(needed > keep);
                prop_assert!(needed <= bytes.len());
            }
            other => return Err(TestCaseError::fail(format!(
                "truncated to {keep}/{} bytes must be Truncated, got {other:?}",
                bytes.len()
            ))),
        }
    }

    /// Flipping any single byte of a valid frame either still decodes
    /// (the request id region has no redundancy by design) or fails with
    /// a typed error — never a panic.
    #[test]
    fn single_byte_corruption_never_panics(
        frame in arb_frame(),
        at in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = frame.encode();
        let i = (bytes.len() as f64 * at) as usize % bytes.len();
        bytes[i] ^= flip;
        // A typed Err is exactly what robustness demands; id / opcode /
        // payload-with-matching-crc corruption can still parse, and then
        // everything returned must stay in bounds.
        if let Ok((f, used)) = Frame::decode(&bytes) {
            prop_assert!(used <= bytes.len() && f.payload.len() <= used);
        }
    }

    /// A length field pointing past [`MAX_PAYLOAD`] is rejected up front
    /// (no allocation-by-lie), and a large-but-legal length over missing
    /// bytes reports `Truncated` instead of reading off the end.
    #[test]
    fn oversized_lengths_are_rejected_before_any_read(
        id in any::<u64>(),
        declared in (MAX_PAYLOAD as u64 + 1..u32::MAX as u64),
    ) {
        let mut bytes = Frame::new(OpCode::Ping, id, vec![]).encode();
        bytes[12..16].copy_from_slice(&(declared as u32).to_le_bytes());
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { len: declared as u32, max: MAX_PAYLOAD })
        );
        // Legal length, absent payload: typed truncation, not an over-read.
        bytes[12..16].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(FrameError::Truncated { needed, have }) => {
                prop_assert_eq!(needed, HEADER_LEN + MAX_PAYLOAD as usize);
                prop_assert_eq!(have, bytes.len());
            }
            other => return Err(TestCaseError::fail(format!("expected Truncated, got {other:?}"))),
        }
    }

    /// Pure byte soup: the streaming decoder yields frames until it waits
    /// for more bytes or reports one typed error, and every input byte is
    /// accounted for — inside a returned frame or still pending.
    #[test]
    fn arbitrary_bytes_never_panic(soup in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut decoder = Decoder::new();
        decoder.feed(&soup);
        let mut parsed = 0;
        while let Ok(Some(f)) = decoder.next_frame() {
            parsed += HEADER_LEN + f.payload.len();
        }
        prop_assert_eq!(parsed + decoder.pending(), soup.len());
    }

    /// The streaming decoder under adversarial chunking: valid frames
    /// interleaved with a corrupted one. Every frame before the
    /// corruption is recovered intact; the corruption itself surfaces as
    /// one typed error, after which the stream is dead.
    #[test]
    fn streaming_decoder_recovers_prefix_then_reports(
        frames in proptest::collection::vec(arb_frame(), 1..6),
        chunk in 1usize..64,
        corrupt_payload in 0.0f64..1.0,
    ) {
        let mut bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        // Corrupt one payload byte of the LAST frame (if it has one) so
        // its CRC check must fire after every earlier frame decoded.
        let last = frames.last().expect("non-empty");
        let expect_err = !last.payload.is_empty();
        if expect_err {
            let start = bytes.len() - last.payload.len();
            let i = start + (last.payload.len() as f64 * corrupt_payload) as usize % last.payload.len().max(1);
            bytes[i] ^= 0x55;
        }
        let mut decoder = Decoder::new();
        let mut got = Vec::new();
        let mut err = None;
        'outer: for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            loop {
                match decoder.next_frame() {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => break,
                    Err(e) => { err = Some(e); break 'outer; }
                }
            }
        }
        prop_assert_eq!(&got[..], &frames[..got.len()], "recovered prefix must be intact");
        if expect_err {
            prop_assert_eq!(got.len(), frames.len() - 1);
            prop_assert!(matches!(err, Some(FrameError::BadCrc { .. })));
        } else {
            prop_assert_eq!(got.len(), frames.len());
            prop_assert!(err.is_none());
        }
    }

    /// The CRC actually covers every payload byte: any single-bit payload
    /// flip (with the header left alone) is detected.
    #[test]
    fn crc_detects_any_payload_flip(
        frame in arb_frame().prop_filter("needs payload", |f| !f.payload.is_empty()),
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = frame.encode();
        let i = HEADER_LEN + (frame.payload.len() as f64 * at) as usize % frame.payload.len();
        bytes[i] ^= 1 << bit;
        let want = crc32(&frame.payload);
        match Frame::decode(&bytes) {
            Err(FrameError::BadCrc { want: w, .. }) => prop_assert_eq!(w, want),
            other => return Err(TestCaseError::fail(format!("flip must be caught, got {other:?}"))),
        }
    }

    /// Encode side (ISSUE 6 satellite): every typed body whose fields fit
    /// their wire widths encodes, and decoding the bytes gives back the
    /// exact body — queries, answers (bit-identical scores), append
    /// batches and error bodies alike.
    #[test]
    fn encoded_bodies_roundtrip(
        t1 in -1.0e6f64..1.0e6,
        span in 1.0e-3f64..1.0e6,
        k in 0usize..=(1 << 20),
        tag in 0u8..3,
        eps in 1.0e-9f64..8.0,
        route_pick in any::<u8>(),
        eps_used in prop_oneof![Just(-1.0f64), 0.0f64..1.0],
        appends in any::<u64>(),
        entries in proptest::collection::vec((any::<u32>(), -1.0e6f64..1.0e6), 0..50),
        recs in proptest::collection::vec(
            (any::<u32>(), -1.0e6f64..1.0e6, -1.0e6f64..1.0e6),
            0..50,
        ),
        code in 1u8..=4,
        msg in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        // TOPK request, over all three tolerance tags.
        let q = match tag {
            0 => ServeQuery::exact(t1, t1 + span, k),
            1 => ServeQuery::approx(t1, t1 + span, k, eps),
            _ => ServeQuery::approx_tight(t1, t1 + span, k, eps),
        };
        let bytes = TopKRequest(q).encode().expect("in-range k encodes");
        prop_assert_eq!(TopKRequest::decode(&bytes).unwrap(), (TopKRequest(q), None));

        // TOPK response: re-encoding the decoded body must give the same
        // bytes (scores cross as exact bits).
        let mut ranked = entries;
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let resp = TopKResponse {
            topk: TopK::from_ranked(ranked),
            route: Route::ALL[route_pick as usize % Route::ALL.len()],
            eps_used: if eps_used < 0.0 { None } else { Some(eps_used) },
            appends_applied: appends,
        };
        let bytes = resp.encode().expect("in-range entry count encodes");
        let back = TopKResponse::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode().unwrap(), bytes);

        // Append batch.
        let recs: Vec<AppendRecord> =
            recs.into_iter().map(|(object, t, v)| AppendRecord { object, t, v }).collect();
        let bytes = encode_append_batch(&recs, None).expect("in-range record count encodes");
        prop_assert_eq!(decode_append_batch(&bytes).unwrap(), (recs, None));

        // Error body (arbitrary printable-ASCII message).
        const CODES: [ErrCode; 4] =
            [ErrCode::Busy, ErrCode::Unsupported, ErrCode::Engine, ErrCode::BadRequest];
        let err = ErrorBody {
            code: CODES[code as usize - 1],
            message: msg.into_iter().map(|b| (b % 94 + 32) as char).collect(),
        };
        let bytes = err.encode().expect("in-range message length encodes");
        prop_assert_eq!(ErrorBody::decode(&bytes).unwrap(), err);
    }
}

proptest! {
    /// Trace-context tail (ISSUE 8 satellite): any query with any nonzero
    /// trace id round-trips through the traced encode/decode pair, the
    /// traced bytes are exactly legacy-bytes + 16-byte tail, and a
    /// context-free `encode_with(None)` stays bit-identical to the
    /// pre-extension encoding old peers expect.
    #[test]
    fn trace_context_roundtrips_and_preserves_legacy_bytes(
        t1 in -1.0e6f64..1.0e6,
        span in 1.0e-3f64..1.0e6,
        k in 0u32..=(1 << 20),
        trace_id in 1u64..=u64::MAX,
        parent_span in any::<u64>(),
    ) {
        let q = ServeQuery::exact(t1, t1 + span, k as usize);
        let ctx = TraceContext { trace_id, parent_span };

        let legacy = TopKRequest(q).encode().unwrap();
        let none = TopKRequest(q).encode_with(None).unwrap();
        prop_assert_eq!(&none, &legacy, "context-free encoding must not drift");

        let traced = TopKRequest(q).encode_with(Some(ctx)).unwrap();
        prop_assert_eq!(&traced[..legacy.len()], &legacy[..], "tail must be strictly additive");
        prop_assert_eq!(traced.len(), legacy.len() + TraceContext::WIRE_LEN);

        let (back, got) = TopKRequest::decode(&traced).unwrap();
        prop_assert_eq!(back.0, q);
        prop_assert_eq!(got, Some(ctx));
        // And the untraced bytes report no context.
        prop_assert_eq!(TopKRequest::decode(&legacy).unwrap().1, None);
    }

    /// Truncating a traced TOPK payload anywhere inside the tail (or one
    /// past it) is a typed `BadPayload` — the tail never panics and never
    /// leaks a half-parsed context. A zeroed trace id is likewise typed
    /// corruption.
    #[test]
    fn trace_context_truncation_and_corruption_are_typed(
        t1 in -1.0e6f64..1.0e6,
        span in 1.0e-3f64..1.0e6,
        k in 0u32..100_000,
        trace_id in 1u64..=u64::MAX,
        parent_span in any::<u64>(),
        cut in 0.0f64..1.0,
        extend in 1usize..32,
    ) {
        let q = ServeQuery::exact(t1, t1 + span, k as usize);
        let ctx = TraceContext { trace_id, parent_span };
        let traced = TopKRequest(q).encode_with(Some(ctx)).unwrap();
        let base = traced.len() - TraceContext::WIRE_LEN;

        // Every cut strictly inside the tail region (30..=44 bytes kept).
        let keep = base + 1 + (cut * (TraceContext::WIRE_LEN - 1) as f64) as usize;
        prop_assert!(matches!(
            TopKRequest::decode(&traced[..keep]),
            Err(FrameError::BadPayload(_))
        ));

        // Oversized: extra bytes past the tail are refused, not ignored.
        let mut longer = traced.clone();
        longer.extend(std::iter::repeat_n(0xAB, extend));
        prop_assert!(matches!(
            TopKRequest::decode(&longer),
            Err(FrameError::BadPayload(_))
        ));

        // Zeroed trace id: the absent-sentinel on the wire is corruption.
        let mut zeroed = traced;
        zeroed[base..base + 8].fill(0);
        prop_assert!(matches!(
            TopKRequest::decode(&zeroed),
            Err(FrameError::BadPayload(_))
        ));
    }

    /// The append-batch tail obeys the same contract: strictly additive,
    /// unambiguous against the 20-byte record stride, and a typed refusal
    /// on a truncated tail. A context-free encoding is the pre-trace
    /// layout: a count and 20 bytes per record, nothing after.
    #[test]
    fn append_batch_trace_tail_roundtrips(
        recs in proptest::collection::vec(
            (any::<u32>(), -1.0e6f64..1.0e6, -1.0e6f64..1.0e6),
            0..50,
        ),
        trace_id in 1u64..=u64::MAX,
        parent_span in any::<u64>(),
        cut in 1usize..TraceContext::WIRE_LEN,
    ) {
        let recs: Vec<AppendRecord> =
            recs.into_iter().map(|(object, t, v)| AppendRecord { object, t, v }).collect();
        let ctx = TraceContext { trace_id, parent_span };

        let legacy = encode_append_batch(&recs, None).unwrap();
        prop_assert_eq!(legacy.len(), 4 + 20 * recs.len());

        let traced = encode_append_batch(&recs, Some(ctx)).unwrap();
        prop_assert_eq!(&traced[..legacy.len()], &legacy[..]);
        prop_assert_eq!(traced.len(), legacy.len() + TraceContext::WIRE_LEN);

        let (back, got) = decode_append_batch(&traced).unwrap();
        prop_assert_eq!(&back, &recs);
        prop_assert_eq!(got, Some(ctx));
        prop_assert_eq!(decode_append_batch(&legacy).unwrap(), (recs, None));

        // Truncating inside the tail is typed, never a panic: the 16-byte
        // width can't be mistaken for records (16 is not a multiple of 20).
        let keep = legacy.len() + cut;
        prop_assert!(decode_append_batch(&traced[..keep]).is_err());
    }
}

/// The regression itself: `k as u32` used to *wrap*, so `k = 2³² + 3`
/// crossed the wire as a perfectly valid-looking query for `k = 3` — the
/// client silently got the wrong answer. Now it is a typed refusal.
#[test]
#[cfg(target_pointer_width = "64")]
fn oversized_k_is_refused_not_wrapped() {
    let k = (1usize << 32) + 3;
    let err = TopKRequest(ServeQuery::exact(0.0, 1.0, k)).encode().unwrap_err();
    assert_eq!(
        err,
        FrameError::FieldOverflow { field: "k", value: k as u64, max: u32::MAX as u64 }
    );
    // And the boundary value itself still encodes.
    let ok = TopKRequest(ServeQuery::exact(0.0, 1.0, u32::MAX as usize)).encode();
    assert!(ok.is_ok(), "u32::MAX is the largest encodable k");
}

/// `eps_used` is outside input like any request field: the wire carries
/// either the `-1.0` "exact route" sentinel or a finite ε ≥ 0. Anything
/// else used to decode as `None` (any other negative, −∞) or pass through
/// as `Some(_)` (NaN, +∞); now it is a typed refusal.
#[test]
fn a_response_with_a_non_finite_or_stray_negative_eps_is_refused() {
    let resp = |eps_used| TopKResponse {
        topk: TopK::from_ranked(vec![(3, 2.0), (1, 1.0)]),
        route: Route::Appx2,
        eps_used,
        appends_applied: 7,
    };
    for eps in [None, Some(0.0), Some(0.25), Some(f64::MAX)] {
        let bytes = resp(eps).encode().unwrap();
        assert_eq!(TopKResponse::decode(&bytes).unwrap(), resp(eps), "{eps:?} must round-trip");
    }
    let mut bytes = resp(None).encode().unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0, -0.5, -f64::MIN_POSITIVE] {
        bytes[1..9].copy_from_slice(&bad.to_bits().to_le_bytes());
        assert!(
            matches!(TopKResponse::decode(&bytes), Err(FrameError::BadPayload(_))),
            "eps_used = {bad} must be refused"
        );
    }
}

/// Error code 5 once meant "shutting down"; no server sends it, and it is
/// reserved, so an error body carrying it is refused like any unknown code.
#[test]
fn an_error_body_with_the_reserved_code_is_refused() {
    let mut bytes =
        ErrorBody { code: ErrCode::BadRequest, message: "bye".into() }.encode().unwrap();
    bytes[0] = 5;
    assert_eq!(ErrorBody::decode(&bytes), Err(FrameError::BadPayload("unknown error code")));
}
