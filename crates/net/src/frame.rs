//! The wire format: length-prefixed, CRC'd binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//!      0     2  magic            0x43 0x52 ("CR")
//!      2     1  version          PROTOCOL_VERSION (1)
//!      3     1  opcode           see [`OpCode`]
//!      4     8  request id       u64 LE, echoed verbatim in the response
//!     12     4  payload length   u32 LE, at most [`MAX_PAYLOAD`]
//!     16     4  payload CRC-32   IEEE 802.3, over the payload bytes only
//!     20     …  payload          opcode-specific, fixed-width LE fields
//! ```
//!
//! The decoder is defensive by construction: it validates magic, version,
//! opcode, length bound and CRC **before** surfacing a frame, returns a
//! typed [`FrameError`] for every malformed input (it never panics), and
//! never reads past the bytes it was handed — a declared-but-absent
//! payload is [`FrameError::Truncated`], not an out-of-bounds access.
//! The encoders hold the symmetric line: a host-side value too wide for
//! its fixed wire field (a `k` or a count past `u32::MAX`) is a typed
//! [`FrameError::FieldOverflow`], never a silent `as u32` truncation
//! that would put a *different, valid-looking* request on the wire.
//! Scores and timestamps cross the wire as `f64::to_bits` so answers are
//! **bit-identical** end to end (`tests/net_agreement.rs` holds the server
//! to that).

use chronorank_core::{AppendRecord, TopK};
use chronorank_serve::{Route, ServeQuery};

/// Protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Frame magic ("CR").
pub const MAGIC: [u8; 2] = *b"CR";

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 20;

/// Hard upper bound on one frame's payload. Anything larger is rejected
/// as [`FrameError::Oversized`] before any allocation happens, so a
/// corrupt or hostile length field cannot balloon server memory.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// Payload checksum: the workspace's shared CRC-32 (IEEE 802.3) from the
/// storage layer — one implementation guards both the WAL and the wire.
pub fn crc32(data: &[u8]) -> u32 {
    chronorank_storage::crc32(0, data)
}

/// Every operation the protocol knows, requests and responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Liveness probe; the payload is echoed back in [`OpCode::Pong`].
    Ping = 0x01,
    /// One top-k query ([`TopKRequest`] payload).
    TopK = 0x02,
    /// One batch of right-edge appends (live backend only).
    AppendBatch = 0x03,
    /// Snapshot + WAL truncation (live backend only).
    Checkpoint = 0x04,
    /// Server counters snapshot ([`StatsBody`] payload in the response).
    Stats = 0x05,
    /// Telemetry scrape: the whole process metric registry as text
    /// exposition (empty request payload).
    Metrics = 0x06,
    /// Tracing/health scrape: drains the server's span sink and reports
    /// SLO burn-rate status as structured JSON (empty request payload).
    Trace = 0x07,
    /// Response to [`OpCode::Ping`].
    Pong = 0x81,
    /// Successful top-k answer ([`TopKResponse`] payload).
    TopKOk = 0x82,
    /// Successful append batch ([`AppendOk`] payload).
    AppendOk = 0x83,
    /// Successful checkpoint (empty payload).
    CheckpointOk = 0x84,
    /// Stats snapshot ([`StatsBody`] payload).
    StatsOk = 0x85,
    /// Metrics scrape answer: the payload is the Prometheus-style text
    /// exposition, raw UTF-8 (`chronorank_obs::validate_exposition`
    /// checks its shape client-side).
    MetricsOk = 0x86,
    /// Trace scrape answer: the payload is a JSON object with the
    /// server's SLO status and drained span trees, raw UTF-8.
    TraceOk = 0x87,
    /// Typed failure ([`ErrorBody`] payload).
    Error = 0xEE,
}

impl OpCode {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => OpCode::Ping,
            0x02 => OpCode::TopK,
            0x03 => OpCode::AppendBatch,
            0x04 => OpCode::Checkpoint,
            0x05 => OpCode::Stats,
            0x06 => OpCode::Metrics,
            0x07 => OpCode::Trace,
            0x81 => OpCode::Pong,
            0x82 => OpCode::TopKOk,
            0x83 => OpCode::AppendOk,
            0x84 => OpCode::CheckpointOk,
            0x85 => OpCode::StatsOk,
            0x86 => OpCode::MetricsOk,
            0x87 => OpCode::TraceOk,
            0xEE => OpCode::Error,
            _ => return None,
        })
    }
}

/// Typed decode failures. Every way a byte stream can be malformed maps
/// to exactly one variant; the decoder never panics and never over-reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input ends before the declared frame does. `needed` is the
    /// total frame length implied so far — a streaming reader waits for
    /// more bytes, a closed connection treats this as corruption.
    Truncated {
        /// Total bytes the frame needs (header + payload).
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    UnknownOp(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared length.
        len: u32,
        /// The bound it violates.
        max: u32,
    },
    /// Payload CRC mismatch (torn or corrupted frame).
    BadCrc {
        /// CRC declared in the header.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// The frame parsed but its payload does not decode for its opcode.
    BadPayload(&'static str),
    /// An encode-side value does not fit its fixed-width wire field.
    /// Casting it anyway would *silently truncate* — e.g. `k = 2³² + 3`
    /// used to cross the wire as `k = 3` — so the encoders refuse instead.
    FieldOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The value that does not fit.
        value: u64,
        /// Largest value the wire field can carry.
        max: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownOp(o) => write!(f, "unknown opcode {o:#04x}"),
            FrameError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::BadCrc { want, got } => {
                write!(f, "payload crc mismatch: header says {want:#010x}, computed {got:#010x}")
            }
            FrameError::BadPayload(what) => write!(f, "undecodable payload: {what}"),
            FrameError::FieldOverflow { field, value, max } => {
                write!(f, "{field} = {value} does not fit its wire field (max {max})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One parsed frame: opcode, request id, raw payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the frame asks for / answers.
    pub opcode: OpCode,
    /// Client-chosen id echoed back by the server, so pipelined responses
    /// can be matched to their requests.
    pub request_id: u64,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a frame.
    pub fn new(opcode: OpCode, request_id: u64, payload: Vec<u8>) -> Self {
        Self { opcode, request_id, payload }
    }

    /// Serialize header + payload into wire bytes.
    ///
    /// Panics when the payload exceeds [`MAX_PAYLOAD`] — encoding such a
    /// frame anyway would truncate the length field and desynchronize the
    /// stream for every frame after it, which is strictly worse than
    /// failing loudly. [`crate::NetClient`] guards its sends with a typed
    /// error before ever reaching this, and server responses are bounded
    /// by construction (`k ≤ 2^20` caps TOPK bodies well under the limit).
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.payload.len() <= MAX_PAYLOAD as usize, "frame payload exceeds MAX_PAYLOAD");
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.opcode as u8);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode one frame from the front of `buf`. Returns the frame and
    /// the number of bytes it consumed. Validates everything (magic,
    /// version, opcode, length bound, CRC) and reads only within `buf`.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated { needed: HEADER_LEN, have: buf.len() });
        }
        if buf[..2] != MAGIC {
            return Err(FrameError::BadMagic([buf[0], buf[1]]));
        }
        if buf[2] != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(buf[2]));
        }
        let opcode = OpCode::from_u8(buf[3]).ok_or(FrameError::UnknownOp(buf[3]))?;
        let request_id = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len, max: MAX_PAYLOAD });
        }
        let want = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Err(FrameError::Truncated { needed: total, have: buf.len() });
        }
        let payload = &buf[HEADER_LEN..total];
        let got = crc32(payload);
        if got != want {
            return Err(FrameError::BadCrc { want, got });
        }
        Ok((Frame { opcode, request_id, payload: payload.to_vec() }, total))
    }

    /// Decode every frame in `buf`, failing on the first malformed one.
    /// Trailing partial data is [`FrameError::Truncated`]. This is the
    /// closed-input view (what a connection sees at EOF); the streaming
    /// [`Decoder`] treats `Truncated` as "wait for more bytes" instead.
    pub fn decode_all(mut buf: &[u8]) -> Result<Vec<Frame>, FrameError> {
        let mut frames = Vec::new();
        while !buf.is_empty() {
            let (frame, used) = Frame::decode(buf)?;
            frames.push(frame);
            buf = &buf[used..];
        }
        Ok(frames)
    }
}

/// Incremental frame extraction over an arbitrary chunking of the byte
/// stream (sockets deliver whatever they please). Feed bytes in, take
/// complete frames out; [`FrameError::Truncated`] is handled internally
/// as "not yet", every other error is fatal for the stream.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    consumed: usize,
}

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Drop the already-consumed prefix before growing.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame, `Ok(None)` when more bytes are
    /// needed, `Err` when the stream is corrupt (unrecoverable: framing
    /// is lost, the connection must close).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match Frame::decode(&self.buf[self.consumed..]) {
            Ok((frame, used)) => {
                self.consumed += used;
                Ok(Some(frame))
            }
            Err(FrameError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bytes buffered but not yet consumed by a returned frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

// ---------------------------------------------------------------------------
// Payload bodies
// ---------------------------------------------------------------------------

fn take<const N: usize>(buf: &[u8], at: usize, what: &'static str) -> Result<[u8; N], FrameError> {
    buf.get(at..at + N).and_then(|s| s.try_into().ok()).ok_or(FrameError::BadPayload(what))
}

fn f64_at(buf: &[u8], at: usize, what: &'static str) -> Result<f64, FrameError> {
    Ok(f64::from_bits(u64::from_le_bytes(take::<8>(buf, at, what)?)))
}

/// Fit a host-side count into a u32 wire field, or say exactly why not.
fn fit_u32(field: &'static str, value: usize) -> Result<u32, FrameError> {
    u32::try_from(value).map_err(|_| FrameError::FieldOverflow {
        field,
        value: value as u64,
        max: u32::MAX as u64,
    })
}

/// Optional trace-context extension carried at the **tail** of TOPK and
/// APPEND_BATCH request payloads: 16 fixed bytes (`trace_id` u64 LE,
/// `parent_span` u64 LE).
///
/// The extension is strictly additive. A context-free request encodes
/// **bit-identically** to the pre-extension wire format (the robustness
/// proptests hold that line), and an old server that checks payload
/// length exactly rejects — never misparses — a traced request. The
/// tail position is unambiguous for both ops: a TOPK payload is 29 or
/// 29+16 bytes, and an append batch's record section is a multiple of
/// `AppendRecord::ENCODED_LEN` (20), which 16 is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The end-to-end trace this request belongs to (never 0 on the wire;
    /// 0 is the "absent" sentinel).
    pub trace_id: u64,
    /// The client-side span that issued the request; `0` means the
    /// client traced nothing locally and the server span becomes a root.
    pub parent_span: u64,
}

impl TraceContext {
    /// Wire width of the extension tail.
    pub const WIRE_LEN: usize = 16;

    /// Serialize as the 16-byte tail.
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Parse a 16-byte tail. A zero trace id is rejected — no conforming
    /// encoder produces one, so it marks corruption, not a trace.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() != Self::WIRE_LEN {
            return Err(FrameError::BadPayload("trace context must be 16 bytes"));
        }
        let trace_id = u64::from_le_bytes(take::<8>(buf, 0, "trace id")?);
        let parent_span = u64::from_le_bytes(take::<8>(buf, 8, "parent span")?);
        if trace_id == 0 {
            return Err(FrameError::BadPayload("trace context with zero trace id"));
        }
        Ok(Self { trace_id, parent_span })
    }
}

/// [`OpCode::TopK`] request payload: the full [`ServeQuery`] in 29 fixed
/// bytes (`t1`, `t2` as f64 bits; `k` u32; tolerance tag; `eps` f64 bits),
/// optionally followed by a 16-byte [`TraceContext`] tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKRequest(pub ServeQuery);

impl TopKRequest {
    const LEN: usize = 29;

    /// Serialize. Refuses (typed) a `k` that does not fit the u32 wire
    /// field — `k as u32` would wrap and silently query for the wrong `k`.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        self.encode_with(None)
    }

    /// Serialize, optionally appending a [`TraceContext`] tail. With
    /// `None` the output is byte-identical to [`TopKRequest::encode`].
    pub fn encode_with(&self, ctx: Option<TraceContext>) -> Result<Vec<u8>, FrameError> {
        let q = self.0;
        let mut out = Vec::with_capacity(Self::LEN + ctx.map_or(0, |_| TraceContext::WIRE_LEN));
        out.extend_from_slice(&q.t1.to_bits().to_le_bytes());
        out.extend_from_slice(&q.t2.to_bits().to_le_bytes());
        out.extend_from_slice(&fit_u32("k", q.k)?.to_le_bytes());
        let (tag, eps) = match q.tolerance {
            None => (0u8, 0.0),
            Some(t) if !t.tight_ranks => (1, t.eps),
            Some(t) => (2, t.eps),
        };
        out.push(tag);
        out.extend_from_slice(&eps.to_bits().to_le_bytes());
        if let Some(ctx) = ctx {
            out.extend_from_slice(&ctx.encode());
        }
        Ok(out)
    }

    /// Parse and validate: finite interval with `t1 < t2`, finite
    /// non-negative `eps`, bounded `k`. The server trusts a decoded query
    /// enough to hand it to the engine, so garbage is rejected here.
    /// Rejects payloads carrying a trace-context tail — use
    /// [`TopKRequest::decode_traced`] to accept both shapes.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() != Self::LEN {
            return Err(FrameError::BadPayload("topk request must be 29 bytes"));
        }
        Ok(Self::decode_traced(buf)?.0)
    }

    /// Parse either payload shape: 29 bytes (no context) or 29 + 16
    /// bytes (context tail). Anything else — a truncated or padded tail
    /// included — is a typed [`FrameError::BadPayload`].
    pub fn decode_traced(buf: &[u8]) -> Result<(Self, Option<TraceContext>), FrameError> {
        let ctx = match buf.len() {
            Self::LEN => None,
            n if n == Self::LEN + TraceContext::WIRE_LEN => {
                Some(TraceContext::decode(&buf[Self::LEN..])?)
            }
            _ => {
                return Err(FrameError::BadPayload(
                    "topk request must be 29 bytes, or 45 with a trace context",
                ))
            }
        };
        let t1 = f64_at(buf, 0, "t1")?;
        let t2 = f64_at(buf, 8, "t2")?;
        let k = u32::from_le_bytes(take::<4>(buf, 16, "k")?) as usize;
        let tag = buf[20];
        let eps = f64_at(buf, 21, "eps")?;
        if !t1.is_finite() || !t2.is_finite() || t1 >= t2 {
            return Err(FrameError::BadPayload("interval must be finite with t1 < t2"));
        }
        if k > (1 << 20) {
            return Err(FrameError::BadPayload("k exceeds the 2^20 bound"));
        }
        let q = match tag {
            0 => ServeQuery::exact(t1, t2, k),
            1 | 2 => {
                if !eps.is_finite() || eps < 0.0 {
                    return Err(FrameError::BadPayload("eps must be finite and non-negative"));
                }
                if tag == 1 {
                    ServeQuery::approx(t1, t2, k, eps)
                } else {
                    ServeQuery::approx_tight(t1, t2, k, eps)
                }
            }
            _ => return Err(FrameError::BadPayload("unknown tolerance tag")),
        };
        Ok((Self(q), ctx))
    }
}

/// [`OpCode::TopKOk`] payload: the answer plus the freshness facts a
/// client needs to assert what it was served — the route the planner
/// actually took, the achieved ε of that route (`None` for exact routes),
/// and how many appends the backend had applied when it answered.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResponse {
    /// The merged answer (scores cross the wire as exact bits).
    pub topk: TopK,
    /// The route the planner chose for this query.
    pub route: Route,
    /// Achieved ε of the serving index on that route, restated against
    /// the live mass on a live backend; `None` on exact routes.
    pub eps_used: Option<f64>,
    /// Appends the backend had durably applied when it answered (always 0
    /// on a read-only serve backend).
    pub appends_applied: u64,
}

impl TopKResponse {
    /// Serialize. Refuses (typed) an entry count that does not fit the
    /// u32 wire field, rather than truncating it against the payload.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let entries = self.topk.entries();
        let count = fit_u32("entry count", entries.len())?;
        let mut out = Vec::with_capacity(21 + 12 * entries.len());
        out.push(self.route.idx() as u8);
        out.extend_from_slice(&self.eps_used.unwrap_or(-1.0).to_bits().to_le_bytes());
        out.extend_from_slice(&self.appends_applied.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        for &(id, score) in entries {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&score.to_bits().to_le_bytes());
        }
        Ok(out)
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 21 {
            return Err(FrameError::BadPayload("topk response shorter than its fixed head"));
        }
        let route = *Route::ALL
            .get(buf[0] as usize)
            .ok_or(FrameError::BadPayload("route byte out of range"))?;
        let eps = f64_at(buf, 1, "eps_used")?;
        if eps != -1.0 && !(eps.is_finite() && eps >= 0.0) {
            return Err(FrameError::BadPayload("eps_used must be -1 or finite and ≥ 0"));
        }
        let eps_used = (eps >= 0.0).then_some(eps);
        let appends_applied = u64::from_le_bytes(take::<8>(buf, 9, "appends_applied")?);
        let count = u32::from_le_bytes(take::<4>(buf, 17, "entry count")?) as usize;
        if buf.len() != 21 + 12 * count {
            return Err(FrameError::BadPayload("entry count disagrees with payload length"));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = 21 + 12 * i;
            let id = u32::from_le_bytes(take::<4>(buf, at, "entry id")?);
            entries.push((id, f64_at(buf, at + 4, "entry score")?));
        }
        Ok(Self { topk: TopK::from_ranked(entries), route, eps_used, appends_applied })
    }
}

/// Encode an [`OpCode::AppendBatch`] request payload. Refuses (typed) a
/// record count that does not fit the u32 wire field — truncating it
/// would make the count disagree with the payload and mis-split records.
pub fn encode_append_batch(recs: &[AppendRecord]) -> Result<Vec<u8>, FrameError> {
    encode_append_batch_traced(recs, None)
}

/// Encode an [`OpCode::AppendBatch`] request payload, optionally with a
/// [`TraceContext`] tail after the records. With `None` the output is
/// byte-identical to [`encode_append_batch`].
pub fn encode_append_batch_traced(
    recs: &[AppendRecord],
    ctx: Option<TraceContext>,
) -> Result<Vec<u8>, FrameError> {
    let count = fit_u32("append count", recs.len())?;
    let tail = ctx.map_or(0, |_| TraceContext::WIRE_LEN);
    let mut out = Vec::with_capacity(4 + AppendRecord::ENCODED_LEN * recs.len() + tail);
    out.extend_from_slice(&count.to_le_bytes());
    for rec in recs {
        out.extend_from_slice(&rec.encode());
    }
    if let Some(ctx) = ctx {
        out.extend_from_slice(&ctx.encode());
    }
    Ok(out)
}

/// Decode an [`OpCode::AppendBatch`] request payload. Rejects payloads
/// carrying a trace-context tail — use [`decode_append_batch_traced`]
/// to accept both shapes.
pub fn decode_append_batch(buf: &[u8]) -> Result<Vec<AppendRecord>, FrameError> {
    match decode_append_batch_traced(buf)? {
        (recs, None) => Ok(recs),
        (_, Some(_)) => Err(FrameError::BadPayload("append count disagrees with payload length")),
    }
}

/// Decode an [`OpCode::AppendBatch`] request payload in either shape:
/// `4 + 20·count` bytes (no context) or the same plus a 16-byte
/// [`TraceContext`] tail. The tail length is not a multiple of a record,
/// so the two shapes can never be confused.
pub fn decode_append_batch_traced(
    buf: &[u8],
) -> Result<(Vec<AppendRecord>, Option<TraceContext>), FrameError> {
    let count = u32::from_le_bytes(take::<4>(buf, 0, "append count")?) as usize;
    // Checked arithmetic: on a 32-bit usize a hostile count could wrap
    // `4 + LEN * count` into agreeing with the buffer length.
    let need = count
        .checked_mul(AppendRecord::ENCODED_LEN)
        .and_then(|n| n.checked_add(4))
        .ok_or(FrameError::BadPayload("append count overflows"))?;
    let ctx = if buf.len() == need {
        None
    } else if need.checked_add(TraceContext::WIRE_LEN) == Some(buf.len()) {
        Some(TraceContext::decode(&buf[need..])?)
    } else {
        return Err(FrameError::BadPayload("append count disagrees with payload length"));
    };
    let recs = buf[4..need]
        .chunks_exact(AppendRecord::ENCODED_LEN)
        .map(|chunk| {
            AppendRecord::decode(chunk).ok_or(FrameError::BadPayload("undecodable append record"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((recs, ctx))
}

/// [`OpCode::AppendOk`] payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOk {
    /// Records this batch added.
    pub accepted: u64,
    /// Backend-lifetime total of applied appends after this batch.
    pub total_appends: u64,
}

impl AppendOk {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.accepted.to_le_bytes());
        out.extend_from_slice(&self.total_appends.to_le_bytes());
        out
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() != 16 {
            return Err(FrameError::BadPayload("append-ok must be 16 bytes"));
        }
        Ok(Self {
            accepted: u64::from_le_bytes(take::<8>(buf, 0, "accepted")?),
            total_appends: u64::from_le_bytes(take::<8>(buf, 8, "total_appends")?),
        })
    }
}

/// [`OpCode::StatsOk`] payload: the server's counters, fixed width.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsBody {
    /// 0 = read-only serve backend, 1 = live ingest backend.
    pub live_backend: u8,
    /// Engine worker (shard) count.
    pub workers: u32,
    /// Queries the backend has answered (lifetime).
    pub queries: u64,
    /// Appends the backend has applied (lifetime).
    pub appends: u64,
    /// Frames the server has accepted for execution.
    pub frames_in: u64,
    /// Response frames the server has produced.
    pub frames_out: u64,
    /// BUSY refusals issued: frames bounced by admission control plus
    /// connections turned away at the connection cap.
    pub busy_rejections: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Start of the served data's time domain (what a remote client needs
    /// to form meaningful query intervals).
    pub t_min: f64,
    /// End of the served data's time domain (grows with live appends).
    pub t_max: f64,
}

impl StatsBody {
    const LEN: usize = 69;

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN);
        out.push(self.live_backend);
        out.extend_from_slice(&self.workers.to_le_bytes());
        for v in [
            self.queries,
            self.appends,
            self.frames_in,
            self.frames_out,
            self.busy_rejections,
            self.connections,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.t_min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.t_max.to_bits().to_le_bytes());
        out
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() != Self::LEN {
            return Err(FrameError::BadPayload("stats body must be 69 bytes"));
        }
        let at = |i: usize| -> Result<u64, FrameError> {
            Ok(u64::from_le_bytes(take::<8>(buf, 5 + 8 * i, "stats counter")?))
        };
        Ok(Self {
            live_backend: buf[0],
            workers: u32::from_le_bytes(take::<4>(buf, 1, "workers")?),
            queries: at(0)?,
            appends: at(1)?,
            frames_in: at(2)?,
            frames_out: at(3)?,
            busy_rejections: at(4)?,
            connections: at(5)?,
            t_min: f64_at(buf, 53, "t_min")?,
            t_max: f64_at(buf, 61, "t_max")?,
        })
    }
}

/// Error classes a server can answer with (the wire-level `errno`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// Admission control refused the frame: too many in flight. The
    /// request was **not** executed; retrying later is safe.
    Busy = 1,
    /// The backend cannot perform this op (e.g. APPEND_BATCH against a
    /// read-only serve backend).
    Unsupported = 2,
    /// The engine executed and failed (message carries the engine error).
    Engine = 3,
    /// The frame or its payload was malformed.
    BadRequest = 4,
    /// The server is shutting down.
    Shutdown = 5,
}

impl ErrCode {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrCode::Busy,
            2 => ErrCode::Unsupported,
            3 => ErrCode::Engine,
            4 => ErrCode::BadRequest,
            5 => ErrCode::Shutdown,
            _ => return None,
        })
    }
}

/// [`OpCode::Error`] payload: a typed code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// What class of failure this is.
    pub code: ErrCode,
    /// Diagnostic detail.
    pub message: String,
}

impl ErrorBody {
    /// Serialize. Refuses (typed) a message that does not fit the u32
    /// length field instead of truncating the length against the bytes.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let msg = self.message.as_bytes();
        let len = fit_u32("message length", msg.len())?;
        let mut out = Vec::with_capacity(5 + msg.len());
        out.push(self.code as u8);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(msg);
        Ok(out)
    }

    /// Parse.
    pub fn decode(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < 5 {
            return Err(FrameError::BadPayload("error body shorter than its fixed head"));
        }
        let code = ErrCode::from_u8(buf[0]).ok_or(FrameError::BadPayload("unknown error code"))?;
        let len = u32::from_le_bytes(take::<4>(buf, 1, "message length")?) as usize;
        if buf.len() != 5 + len {
            return Err(FrameError::BadPayload("message length disagrees with payload"));
        }
        let message = std::str::from_utf8(&buf[5..])
            .map_err(|_| FrameError::BadPayload("message is not utf-8"))?
            .to_string();
        Ok(Self { code, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_serve::Tolerance;

    #[test]
    fn frame_roundtrip_all_opcodes() {
        for (i, op) in
            [OpCode::Ping, OpCode::TopK, OpCode::Stats, OpCode::Error].into_iter().enumerate()
        {
            let frame = Frame::new(op, 1000 + i as u64, vec![i as u8; 3 * i]);
            let bytes = frame.encode();
            let (back, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn decode_rejects_each_header_corruption() {
        let bytes = Frame::new(OpCode::Ping, 7, b"hello".to_vec()).encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(Frame::decode(&bad), Err(FrameError::BadMagic(_))));
        let mut bad = bytes.clone();
        bad[2] = 9;
        assert_eq!(Frame::decode(&bad), Err(FrameError::BadVersion(9)));
        let mut bad = bytes.clone();
        bad[3] = 0x7F;
        assert_eq!(Frame::decode(&bad), Err(FrameError::UnknownOp(0x7F)));
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(Frame::decode(&bad), Err(FrameError::Oversized { .. })));
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(matches!(Frame::decode(&bad), Err(FrameError::BadCrc { .. })));
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn streaming_decoder_handles_byte_at_a_time_delivery() {
        let frames = [
            Frame::new(
                OpCode::TopK,
                1,
                TopKRequest(ServeQuery::exact(0.0, 1.0, 5)).encode().unwrap(),
            ),
            Frame::new(OpCode::Ping, 2, Vec::new()),
        ];
        let bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut decoder = Decoder::new();
        let mut out = Vec::new();
        for b in bytes {
            decoder.feed(&[b]);
            while let Some(f) = decoder.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn topk_request_roundtrips_and_validates() {
        for q in [
            ServeQuery::exact(-3.5, 10.25, 7),
            ServeQuery::approx(0.0, 100.0, 3, 0.05),
            ServeQuery::approx_tight(1.0, 2.0, 1, 0.2),
        ] {
            let back = TopKRequest::decode(&TopKRequest(q).encode().unwrap()).unwrap();
            assert_eq!(back.0, q);
        }
        let bad = TopKRequest(ServeQuery::exact(5.0, 4.0, 2)).encode().unwrap();
        assert!(TopKRequest::decode(&bad).is_err(), "t1 >= t2 must be rejected");
        let bad = TopKRequest(ServeQuery {
            t1: 0.0,
            t2: 1.0,
            k: 2,
            tolerance: Some(Tolerance { eps: f64::NAN, tight_ranks: false }),
        })
        .encode()
        .unwrap();
        assert!(TopKRequest::decode(&bad).is_err(), "NaN eps must be rejected");
    }

    #[test]
    fn topk_response_is_bit_exact() {
        let resp = TopKResponse {
            topk: TopK::from_ranked(vec![(4, 1.0 + f64::EPSILON), (2, -0.0), (9, -3.25)]),
            route: Route::Appx2Plus,
            eps_used: Some(0.017),
            appends_applied: 99,
        };
        let back = TopKResponse::decode(&resp.encode().unwrap()).unwrap();
        assert_eq!(back.route, Route::Appx2Plus);
        assert_eq!(back.eps_used, Some(0.017));
        assert_eq!(back.appends_applied, 99);
        for (a, b) in resp.topk.entries().iter().zip(back.topk.entries()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn trace_context_roundtrips_and_is_tail_unambiguous() {
        let ctx = TraceContext { trace_id: 0xdead_beef_cafe_f00d, parent_span: 42 };
        assert_eq!(TraceContext::decode(&ctx.encode()).unwrap(), ctx);
        // TOPK both shapes.
        let q = ServeQuery::approx(0.0, 10.0, 4, 0.1);
        let plain = TopKRequest(q).encode().unwrap();
        let traced = TopKRequest(q).encode_with(Some(ctx)).unwrap();
        assert_eq!(plain.len(), 29);
        assert_eq!(traced.len(), 45);
        assert_eq!(&traced[..29], &plain[..], "context is strictly a tail");
        assert_eq!(TopKRequest::decode_traced(&plain).unwrap(), (TopKRequest(q), None));
        assert_eq!(TopKRequest::decode_traced(&traced).unwrap(), (TopKRequest(q), Some(ctx)));
        // Context-free encoding is bit-identical through both paths.
        assert_eq!(TopKRequest(q).encode_with(None).unwrap(), plain);
        // Append batch both shapes.
        let recs = vec![AppendRecord { object: 1, t: 2.0, v: 3.0 }];
        let plain = encode_append_batch(&recs).unwrap();
        let traced = encode_append_batch_traced(&recs, Some(ctx)).unwrap();
        assert_eq!(&traced[..plain.len()], &plain[..]);
        assert_eq!(decode_append_batch_traced(&plain).unwrap(), (recs.clone(), None));
        assert_eq!(decode_append_batch_traced(&traced).unwrap(), (recs, Some(ctx)));
    }

    #[test]
    fn trace_context_corruption_is_typed() {
        let ctx = TraceContext { trace_id: 7, parent_span: 9 };
        let traced = TopKRequest(ServeQuery::exact(0.0, 1.0, 2)).encode_with(Some(ctx)).unwrap();
        // Truncated tail (30..44 bytes): typed BadPayload, never a panic.
        for cut in 30..45 {
            assert!(
                matches!(
                    TopKRequest::decode_traced(&traced[..cut]),
                    Err(FrameError::BadPayload(_))
                ),
                "cut={cut}"
            );
        }
        // Oversized: extra byte after the tail.
        let mut fat = traced.clone();
        fat.push(0);
        assert!(matches!(TopKRequest::decode_traced(&fat), Err(FrameError::BadPayload(_))));
        // Zero trace id marks corruption.
        let mut zeroed = traced.clone();
        zeroed[29..37].fill(0);
        assert!(matches!(TopKRequest::decode_traced(&zeroed), Err(FrameError::BadPayload(_))));
        // The strict decoders reject traced payloads outright.
        assert!(TopKRequest::decode(&traced).is_err());
        let batch = encode_append_batch_traced(&[], Some(ctx)).unwrap();
        assert!(decode_append_batch(&batch).is_err());
    }

    #[test]
    fn append_batch_and_small_bodies_roundtrip() {
        let recs = vec![
            AppendRecord { object: 3, t: 10.5, v: -2.25 },
            AppendRecord { object: 0, t: 11.0, v: 0.0 },
        ];
        assert_eq!(decode_append_batch(&encode_append_batch(&recs).unwrap()).unwrap(), recs);
        let ok = AppendOk { accepted: 2, total_appends: 77 };
        assert_eq!(AppendOk::decode(&ok.encode()).unwrap(), ok);
        let stats = StatsBody { live_backend: 1, workers: 4, queries: 10, ..Default::default() };
        assert_eq!(StatsBody::decode(&stats.encode()).unwrap(), stats);
        let err = ErrorBody { code: ErrCode::Busy, message: "too many in flight".into() };
        assert_eq!(ErrorBody::decode(&err.encode().unwrap()).unwrap(), err);
    }
}
