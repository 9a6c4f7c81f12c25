//! The blocking client: one TCP connection, synchronous calls, and a
//! closed-loop pipelining driver.
//!
//! Two API levels:
//!
//! * **synchronous** — [`NetClient::topk`], [`NetClient::append_batch`],
//!   [`NetClient::checkpoint`], [`NetClient::stats`], [`NetClient::ping`]:
//!   one request, one response, errors mapped to [`NetError`];
//! * **pipelined** — [`NetClient::send_topk`] / [`NetClient::recv`] let a
//!   caller keep many requests in flight on one connection, and
//!   [`NetClient::pipeline_topk`] packages the standard closed-loop
//!   window: at most `depth` outstanding requests, each response
//!   immediately refilled, per-request latencies recorded, and typed BUSY
//!   pushback retried transparently (counted in
//!   [`PipelineOutcome::busy_retries`], so callers can see overload
//!   instead of silently absorbing it).
//!
//! ## The two BUSYs
//!
//! The server pushes back with `ErrCode::Busy` in two distinct
//! situations, and the client keeps their accounting apart:
//!
//! * **admission** — the `max_in_flight` bound refused one *request*; the
//!   response echoes that request's id, the connection stays healthy, and
//!   retrying (what `pipeline_topk` does, counting
//!   [`PipelineOutcome::busy_retries`]) is safe;
//! * **connection cap** — the acceptor refused the whole *connection*
//!   with one goodbye frame carrying request id `0`, then closed it.
//!   Nothing sent on this connection was (or will be) executed; the
//!   client surfaces [`NetError::Refused`] instead of retrying, because
//!   re-sending on a closed connection can only produce IO errors.
//!
//! The server answers one connection's requests in the order they
//! arrived. Ids are still matched explicitly, which is what makes
//! BUSY-retry (a new id for the same query) unambiguous.

use crate::frame::{
    encode_append_batch, AppendOk, Decoder, ErrCode, ErrorBody, Frame, FrameError, OpCode,
    StatsBody, TopKRequest, TopKResponse, TraceContext, MAX_PAYLOAD,
};
use chronorank_core::AppendRecord;
use chronorank_obs::{AttrValue, SpanSink, TraceId};
use chronorank_serve::ServeQuery;
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, or EOF mid-frame).
    Io(std::io::Error),
    /// The byte stream violated the frame protocol.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Remote {
        /// The wire error class.
        code: ErrCode,
        /// The server's diagnostic message.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    Protocol(String),
    /// The server refused the whole connection (connection cap): one BUSY
    /// goodbye with request id 0, then close. Distinct from the per-request
    /// admission BUSY in [`NetError::Remote`] — nothing on this connection
    /// was executed, and retrying must reconnect, not re-send.
    Refused {
        /// The server's refusal message (names the cap).
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Remote { code, message } => write!(f, "server error ({code:?}): {message}"),
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::Refused { message } => write!(f, "connection refused: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

impl NetError {
    /// True when this is the server's typed per-request admission-control
    /// pushback (the request was not executed; re-sending on this same
    /// connection is safe). Connection-cap refusals are NOT busy — see
    /// [`NetError::is_refusal`].
    pub fn is_busy(&self) -> bool {
        matches!(self, NetError::Remote { code: ErrCode::Busy, .. })
    }

    /// True when the server refused the whole connection (connection
    /// cap). Recovery means reconnecting later, not re-sending.
    pub fn is_refusal(&self) -> bool {
        matches!(self, NetError::Refused { .. })
    }
}

/// One matched response, already decoded per opcode.
#[derive(Debug)]
pub enum Response {
    /// Answer to a TOPK request.
    TopK(TopKResponse),
    /// Answer to an APPEND_BATCH request.
    Append(AppendOk),
    /// Answer to a CHECKPOINT request.
    Checkpoint,
    /// Answer to a STATS request.
    Stats(StatsBody),
    /// Answer to a METRICS request: the text exposition of the server's
    /// whole metric registry.
    Metrics(String),
    /// Answer to a TRACE request: structured JSON carrying the server's
    /// SLO burn-rate status and its drained span trees.
    Trace(String),
    /// Answer to a PING (the echoed payload).
    Pong(Vec<u8>),
    /// A typed error frame for this request id.
    Error(ErrorBody),
}

/// Outcome of one [`NetClient::pipeline_topk`] run.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// One answer per input query, input order.
    pub answers: Vec<TopKResponse>,
    /// Per-query wall latency (first submission to final answer — a
    /// BUSY-retried query keeps accumulating), input order.
    pub latencies: Vec<Duration>,
    /// How often the server's **admission control** (`max_in_flight`)
    /// pushed back with a per-request BUSY (each one re-sent under a
    /// fresh id). Connection-cap refusals never appear here — they abort
    /// the run with [`NetError::Refused`] instead, since the server
    /// closes the connection after refusing it.
    pub busy_retries: u64,
    /// Wall time for the whole run.
    pub elapsed: Duration,
}

/// A blocking connection to a [`crate::NetServer`].
pub struct NetClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    decoder: Decoder,
    next_id: u64,
    /// Where client-side spans land. Noop by default: an untraced client
    /// sends byte-identical pre-extension frames and pays nothing.
    sink: SpanSink,
}

impl NetClient {
    /// BUSY refusals tolerated per query in [`NetClient::pipeline_topk`]
    /// before the overload is surfaced as an error (with the capped
    /// linear backoff this is several seconds of sustained pushback).
    const MAX_BUSY_RETRIES: u32 = 100;

    /// Connect.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Self {
            reader: stream,
            writer,
            decoder: Decoder::new(),
            next_id: 1,
            sink: SpanSink::noop(),
        })
    }

    /// Enable client-side tracing: synchronous [`NetClient::topk`] and
    /// [`NetClient::append_batch`] calls originate a fresh trace id, open
    /// a client span in `sink`, and propagate the context to the server
    /// so its spans join the same tree. Pass [`SpanSink::noop`] to turn
    /// tracing back off (frames revert to the context-free encoding).
    pub fn set_span_sink(&mut self, sink: SpanSink) {
        self.sink = sink;
    }

    /// The sink client spans are emitted into (noop unless
    /// [`NetClient::set_span_sink`] was called).
    pub fn span_sink(&self) -> &SpanSink {
        &self.sink
    }

    // --- pipelining primitives -------------------------------------------

    /// Queue one TOPK request; returns its request id. Buffered — call
    /// [`NetClient::flush`] (or any `recv`) before expecting an answer.
    pub fn send_topk(&mut self, q: ServeQuery) -> Result<u64, NetError> {
        self.send_frame(OpCode::TopK, TopKRequest(q).encode()?)
    }

    /// Queue one APPEND_BATCH request; returns its request id.
    fn send_append_batch(&mut self, recs: &[AppendRecord]) -> Result<u64, NetError> {
        self.send_frame(OpCode::AppendBatch, encode_append_batch(recs, None)?)
    }

    /// Push all queued requests onto the wire.
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Receive the next response frame: `(request id, decoded response)`.
    /// Flushes queued requests first, so a send/recv loop cannot deadlock
    /// on its own buffering.
    pub fn recv(&mut self) -> Result<(u64, Response), NetError> {
        self.flush()?;
        let frame = self.read_frame()?;
        let resp = match frame.opcode {
            OpCode::TopKOk => Response::TopK(TopKResponse::decode(&frame.payload)?),
            OpCode::AppendOk => Response::Append(AppendOk::decode(&frame.payload)?),
            OpCode::CheckpointOk => Response::Checkpoint,
            OpCode::StatsOk => Response::Stats(StatsBody::decode(&frame.payload)?),
            OpCode::MetricsOk => Response::Metrics(
                String::from_utf8(frame.payload)
                    .map_err(|_| NetError::Protocol("metrics payload is not utf-8".into()))?,
            ),
            OpCode::TraceOk => Response::Trace(
                String::from_utf8(frame.payload)
                    .map_err(|_| NetError::Protocol("trace payload is not utf-8".into()))?,
            ),
            OpCode::Pong => Response::Pong(frame.payload),
            OpCode::Error => Response::Error(ErrorBody::decode(&frame.payload)?),
            other => return Err(NetError::Protocol(format!("{other:?} is not a response opcode"))),
        };
        Ok((frame.request_id, resp))
    }

    // --- synchronous calls -----------------------------------------------

    /// One top-k query, synchronously. With a span sink set (see
    /// [`NetClient::set_span_sink`]) the call is traced end to end.
    pub fn topk(&mut self, q: ServeQuery) -> Result<TopKResponse, NetError> {
        if !self.sink.is_noop() {
            return self.topk_traced(q).map(|(resp, _)| resp);
        }
        let id = self.send_topk(q)?;
        match self.recv_for(id)? {
            Response::TopK(resp) => Ok(resp),
            other => Err(unexpected("TOPK_OK", &other)),
        }
    }

    /// One **traced** top-k query: originates a fresh [`TraceId`], opens
    /// a `client.topk` span covering the full round trip, and sends the
    /// trace context so the server's `server.request` span (and the
    /// engine + shard spans under it) join the same tree. Returns the
    /// trace id so the caller can correlate with a later
    /// [`NetClient::trace_dump`]. Works with a noop sink too — the local
    /// span is discarded but the context still propagates.
    pub fn topk_traced(&mut self, q: ServeQuery) -> Result<(TopKResponse, TraceId), NetError> {
        let trace = TraceId::next();
        let mut span = self.sink.root(trace, "client.topk");
        let ctx = TraceContext { trace_id: trace.0, parent_span: span.id().0 };
        let id = self.send_frame(OpCode::TopK, TopKRequest(q).encode_with(Some(ctx))?)?;
        let result = self.recv_for(id);
        span.attr("k", AttrValue::U64(q.k as u64));
        span.attr("ok", AttrValue::Bool(matches!(&result, Ok(Response::TopK(_)))));
        span.finish();
        match result? {
            Response::TopK(resp) => Ok((resp, trace)),
            other => Err(unexpected("TOPK_OK", &other)),
        }
    }

    /// One durable append batch, synchronously. With a span sink set the
    /// call is traced like [`NetClient::topk`].
    pub fn append_batch(&mut self, recs: &[AppendRecord]) -> Result<AppendOk, NetError> {
        if self.sink.is_noop() {
            let id = self.send_append_batch(recs)?;
            return match self.recv_for(id)? {
                Response::Append(ok) => Ok(ok),
                other => Err(unexpected("APPEND_OK", &other)),
            };
        }
        let trace = TraceId::next();
        let mut span = self.sink.root(trace, "client.append");
        let ctx = TraceContext { trace_id: trace.0, parent_span: span.id().0 };
        let id = self.send_frame(OpCode::AppendBatch, encode_append_batch(recs, Some(ctx))?)?;
        let result = self.recv_for(id);
        span.attr("records", AttrValue::U64(recs.len() as u64));
        span.attr("ok", AttrValue::Bool(matches!(&result, Ok(Response::Append(_)))));
        span.finish();
        match result? {
            Response::Append(ok) => Ok(ok),
            other => Err(unexpected("APPEND_OK", &other)),
        }
    }

    /// Checkpoint the live backend (snapshot + WAL truncation).
    pub fn checkpoint(&mut self) -> Result<(), NetError> {
        let id = self.send_frame(OpCode::Checkpoint, Vec::new())?;
        match self.recv_for(id)? {
            Response::Checkpoint => Ok(()),
            other => Err(unexpected("CHECKPOINT_OK", &other)),
        }
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<StatsBody, NetError> {
        let id = self.send_frame(OpCode::Stats, Vec::new())?;
        match self.recv_for(id)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("STATS_OK", &other)),
        }
    }

    /// Scrape the server's metric registry as Prometheus-style text
    /// exposition (every tier: serve/live engine, wire counters,
    /// latency summaries).
    pub fn metrics(&mut self) -> Result<String, NetError> {
        let id = self.send_frame(OpCode::Metrics, Vec::new())?;
        match self.recv_for(id)? {
            Response::Metrics(text) => Ok(text),
            other => Err(unexpected("METRICS_OK", &other)),
        }
    }

    /// Scrape the server's tracing/health plane: SLO burn-rate status
    /// per window plus every span the server has collected since the
    /// last dump (the server's sink is drained — spans are reported
    /// exactly once), as one structured JSON object.
    pub fn trace_dump(&mut self) -> Result<String, NetError> {
        let id = self.send_frame(OpCode::Trace, Vec::new())?;
        match self.recv_for(id)? {
            Response::Trace(text) => Ok(text),
            other => Err(unexpected("TRACE_OK", &other)),
        }
    }

    /// Liveness probe; the server echoes `payload`.
    pub fn ping(&mut self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let id = self.send_frame(OpCode::Ping, payload.to_vec())?;
        match self.recv_for(id)? {
            Response::Pong(echo) => Ok(echo),
            other => Err(unexpected("PONG", &other)),
        }
    }

    // --- the closed-loop pipelined driver --------------------------------

    /// Run `queries` closed-loop with at most `depth` requests in flight:
    /// fill the window, then answer-and-refill until done. BUSY pushback
    /// is retried (the same query, a fresh id) with a growing backoff —
    /// never a hot spin — and a query refused more than 100 times
    /// surfaces the BUSY as an error (a server that can admit
    /// nothing should look overloaded, not hang its clients).
    pub fn pipeline_topk(
        &mut self,
        queries: &[ServeQuery],
        depth: usize,
    ) -> Result<PipelineOutcome, NetError> {
        let depth = depth.max(1);
        let t0 = Instant::now();
        let mut answers: Vec<Option<TopKResponse>> = (0..queries.len()).map(|_| None).collect();
        let mut latencies = vec![Duration::ZERO; queries.len()];
        let mut started = vec![t0; queries.len()];
        let mut busy_count = vec![0u32; queries.len()];
        let mut in_flight: HashMap<u64, usize> = HashMap::new();
        let mut busy_retries = 0u64;
        let mut next = 0usize;
        let mut done = 0usize;
        while done < queries.len() {
            while in_flight.len() < depth && next < queries.len() {
                let id = self.send_topk(queries[next])?;
                started[next] = Instant::now();
                in_flight.insert(id, next);
                next += 1;
            }
            let (id, resp) = self.recv()?;
            if id == 0 {
                // Connection-scoped error: a BUSY here is the acceptor's
                // connection-cap goodbye (the socket is already closing) —
                // typed as a refusal so callers never mistake it for
                // retryable admission pushback.
                return Err(match resp {
                    Response::Error(e) if e.code == ErrCode::Busy => {
                        NetError::Refused { message: e.message }
                    }
                    Response::Error(e) => NetError::Remote { code: e.code, message: e.message },
                    _ => NetError::Protocol("non-error frame with request id 0".to_string()),
                });
            }
            let Some(i) = in_flight.remove(&id) else {
                return Err(NetError::Protocol(format!("response for unknown request id {id}")));
            };
            match resp {
                Response::TopK(r) => {
                    latencies[i] = started[i].elapsed();
                    answers[i] = Some(r);
                    done += 1;
                }
                Response::Error(e) if e.code == ErrCode::Busy => {
                    // Typed pushback: the query was not executed. Back off
                    // (linearly growing, capped), then re-send under a
                    // fresh id; its latency clock keeps running.
                    busy_count[i] += 1;
                    if busy_count[i] > Self::MAX_BUSY_RETRIES {
                        return Err(NetError::Remote { code: e.code, message: e.message });
                    }
                    busy_retries += 1;
                    std::thread::sleep(Duration::from_micros(
                        200 * u64::from(busy_count[i].min(50)),
                    ));
                    let id = self.send_topk(queries[i])?;
                    in_flight.insert(id, i);
                }
                Response::Error(e) => {
                    return Err(NetError::Remote { code: e.code, message: e.message })
                }
                other => return Err(unexpected("TOPK_OK", &other)),
            }
        }
        Ok(PipelineOutcome {
            answers: answers.into_iter().map(|a| a.expect("all answered")).collect(),
            latencies,
            busy_retries,
            elapsed: t0.elapsed(),
        })
    }

    // --- internals --------------------------------------------------------

    fn send_frame(&mut self, opcode: OpCode, payload: Vec<u8>) -> Result<u64, NetError> {
        // Refuse oversized payloads with a typed error *before* encoding:
        // pushing one onto the wire would cost the whole connection (the
        // server declares framing lost), not just this request. Callers
        // with bigger batches should chunk them.
        if payload.len() > MAX_PAYLOAD as usize {
            return Err(NetError::Frame(FrameError::Oversized {
                len: payload.len().min(u32::MAX as usize) as u32,
                max: MAX_PAYLOAD,
            }));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&Frame::new(opcode, id, payload).encode())?;
        Ok(id)
    }

    /// Synchronous receive for one specific id (the only outstanding one).
    fn recv_for(&mut self, id: u64) -> Result<Response, NetError> {
        let (got, resp) = self.recv()?;
        if let Response::Error(e) = resp {
            // Request id 0 marks a connection-scoped error (refused
            // connection, lost framing) — surface it whatever we awaited.
            if got == 0 && e.code == ErrCode::Busy {
                return Err(NetError::Refused { message: e.message });
            }
            if got == id || got == 0 {
                return Err(NetError::Remote { code: e.code, message: e.message });
            }
            return Err(NetError::Protocol(format!("error frame for foreign id {got}")));
        }
        if got != id {
            return Err(NetError::Protocol(format!("expected response for id {id}, got {got}")));
        }
        Ok(resp)
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let n = self.reader.read(&mut scratch)?;
            if n == 0 {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    if self.decoder.pending() > 0 {
                        "connection closed mid-frame"
                    } else {
                        "connection closed"
                    },
                )));
            }
            self.decoder.feed(&scratch[..n]);
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    match got {
        Response::Error(e) => NetError::Remote { code: e.code, message: e.message.clone() },
        other => NetError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}
