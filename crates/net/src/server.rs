//! The TCP server: an acceptor, per-connection reader and writer threads
//! over one shared backend, and explicit admission control.
//!
//! ## Threading model
//!
//! The chronorank engines are `Send + Sync` (the whole index stack is),
//! so one backend is **shared**: every connection's reader calls the same
//! `Arc`'d engine directly. Both engines answer a TOPK through the same
//! call — `execute` on a window of one, `&self`, which runs on the
//! engine's own `chronorank-serve` worker pool either way — and hand back
//! the [`Answer`] the response encodes. A read-only [`ServeEngine`] is
//! shared as is, so connections genuinely overlap. A live
//! [`IngestEngine`] sits behind an `RwLock`: queries overlap as readers,
//! while appends and checkpoints serialize as writers (there is exactly
//! one WAL; an append is applied to its shards before the write lock is
//! released).
//!
//! A server runs `1 + 2·connections` threads:
//!
//! * an **acceptor** thread owns the listener, enforces the connection
//!   cap (over-limit connections are answered with one typed BUSY frame
//!   and closed), and spawns a reader + writer thread per connection;
//! * each **reader** drains its socket through the streaming
//!   [`Decoder`](crate::frame::Decoder), answers PING inline, and runs
//!   engine ops itself — but only after passing **admission control**: a
//!   global in-flight counter bounded by [`NetConfig::max_in_flight`]. At
//!   the bound the reader answers a typed [`ErrCode::Busy`] error instead
//!   of running the op, so overload degrades into explicit,
//!   client-visible pushback;
//! * each **writer** owns the socket's write half behind a `BufWriter`,
//!   flushing whenever its queue momentarily drains (adaptive batching:
//!   pipelined bursts coalesce into few syscalls, single requests flush
//!   immediately).
//!
//! One connection's requests run one at a time, in arrival order, so its
//! replies leave in request order. The reader hands each reply to its
//! writer through a queue of `REPLY_QUEUE_FRAMES` frames; a client that
//! sends without reading fills it, its reader blocks and stops reading
//! the socket, and TCP pushes back on the client.
//!
//! Shutdown is clean and total: the stop flag is raised, the acceptor is
//! woken with a loopback connection, every live socket is shut down, and
//! every thread — acceptor, readers, writers — is joined before
//! [`NetServer::shutdown`] returns.

use crate::frame::{
    AppendOk, Decoder, ErrCode, ErrorBody, Frame, FrameError, OpCode, StatsBody, TopKRequest,
    TopKResponse, MAX_PAYLOAD,
};
use chronorank_core::{AppendRecord, TemporalSet};
use chronorank_live::{IngestEngine, LiveConfig};
use chronorank_obs::{
    elapsed_us, spans_json, ActiveSpan, AttrValue, Counter, Histogram, Registry, SloObjective,
    SloTracker, SpanId, SpanSink, TraceId,
};
use chronorank_serve::{Answer, ServeConfig, ServeEngine, ServeQuery};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Reply frames a connection's reader (the queue's only producer) may
/// queue ahead of its writer.
const REPLY_QUEUE_FRAMES: usize = 16;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Admission-control bound: engine frames accepted but not yet
    /// answered, across all connections. At the bound, further frames are
    /// refused with a typed BUSY error. `0` refuses everything — useful
    /// for testing client overload handling.
    pub max_in_flight: usize,
    /// Connection cap; over-limit connections receive one BUSY frame and
    /// are closed.
    pub max_connections: usize,
    /// The latency/error objective the server's SLO burn-rate tracker
    /// measures TOPK serving against. Burn rates surface as registry
    /// gauges (METRICS) and through the TRACE wire op.
    pub slo: SloObjective,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_in_flight: 256,
            max_connections: 64,
            slo: SloObjective::default(),
        }
    }
}

/// What a [`NetServer`] fronts: the read-only serving engine or the
/// WAL-backed live ingest engine.
// One `Backend` per server, behind an `Arc`: its size is paid once.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// Read path only: TOPK / STATS / PING (appends answer `Unsupported`).
    /// Queried concurrently through `&self` by every connection's reader.
    Serve(ServeEngine),
    /// Read + write paths: everything, including APPEND_BATCH and
    /// CHECKPOINT. Queries take the read lock (overlapping); appends and
    /// checkpoints take the write lock (serialized — one WAL).
    Live(RwLock<IngestEngine>),
}

impl From<ServeEngine> for Backend {
    fn from(e: ServeEngine) -> Self {
        Backend::Serve(e)
    }
}

impl From<IngestEngine> for Backend {
    fn from(e: IngestEngine) -> Self {
        Backend::Live(RwLock::new(e))
    }
}

impl Backend {
    /// Answer one TOPK: a window of one through the backend's `execute`,
    /// whose [`Answer`] becomes the response at one site. With a `span`
    /// context the engine joins the distributed trace: its execution and
    /// every shard probe are emitted into `sink` under the server span. The live append prefix is read under the same read
    /// lock that answered.
    fn topk(
        &self,
        q: ServeQuery,
        span: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<TopKResponse, (ErrCode, String)> {
        let (answers, appends_applied) = match self {
            Backend::Serve(e) => (e.execute(&[q], span, sink).map_err(|e| e.to_string()), 0),
            Backend::Live(lock) => {
                let e = lock.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                (e.execute(&[q], span, sink).map_err(|e| e.to_string()), e.appends())
            }
        };
        let mut answers = answers.map_err(|message| (ErrCode::Engine, message))?;
        let Answer { topk, route, eps_used } = answers.pop().expect("one answer per query");
        Ok(TopKResponse { topk, route, eps_used, appends_applied })
    }

    /// Apply one wire APPEND_BATCH: records are WAL-group-committed by
    /// the live engine and land in the owning shards' columnar tails
    /// (one shared offset table + `t`/`v` column pushes per record —
    /// the same arrays the batch rescoring kernels later stream). The
    /// engine refuses a batch with a bad record whole, before its first
    /// WAL byte, so an error reply means no record of the batch landed
    /// (short of a failing log device) and the client may retry its good
    /// records.
    fn append(&self, recs: &[AppendRecord]) -> Result<AppendOk, (ErrCode, String)> {
        match self {
            Backend::Serve(_) => Err((
                ErrCode::Unsupported,
                "APPEND_BATCH requires a live backend; this server is read-only".to_string(),
            )),
            Backend::Live(lock) => {
                let mut e = lock.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                let before = e.appends();
                e.append_batch(recs).map_err(|err| (ErrCode::Engine, err.to_string()))?;
                // Saturating: the lifetime counter is monotone today, but a
                // raw subtraction here would turn any future counter reset
                // (recovery, truncation) into a u64 wrap on the wire.
                Ok(AppendOk {
                    accepted: e.appends().saturating_sub(before),
                    total_appends: e.appends(),
                })
            }
        }
    }

    fn checkpoint(&self) -> Result<(), (ErrCode, String)> {
        match self {
            Backend::Serve(_) => Err((
                ErrCode::Unsupported,
                "CHECKPOINT requires a live backend; this server is read-only".to_string(),
            )),
            Backend::Live(lock) => lock
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .checkpoint()
                .map_err(|err| (ErrCode::Engine, err.to_string())),
        }
    }

    fn stats(&self, shared: &Shared) -> StatsBody {
        let (live_backend, workers, queries, appends, (t_min, t_max)) = match self {
            Backend::Serve(e) => {
                let r = e.report();
                (0, r.workers as u32, r.queries, 0, e.domain())
            }
            Backend::Live(lock) => {
                let e = lock.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                let r = e.report();
                (1, r.workers as u32, r.queries, r.appends, e.domain())
            }
        };
        StatsBody {
            live_backend,
            workers,
            queries,
            appends,
            frames_in: shared.frames_in.load(Ordering::Relaxed),
            frames_out: shared.frames_out.load(Ordering::Relaxed),
            busy_rejections: shared.busy_rejections.load(Ordering::Relaxed),
            connections: shared.connections.load(Ordering::Relaxed),
            t_min,
            t_max,
        }
    }
}

/// Failures starting or running a [`NetServer`].
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, local_addr, …).
    Io(std::io::Error),
    /// The backend builder closure failed.
    Backend(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Backend(e) => write!(f, "backend build failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

enum EngineOp {
    TopK(ServeQuery),
    Append(Vec<AppendRecord>),
    Checkpoint,
    Stats,
    Metrics,
    Trace,
}

/// One encoded frame queued for a connection's writer. `releases_slot`
/// marks responses to *admitted* engine ops: their admission-control slot
/// is released only once the writer has actually put the bytes on the
/// wire (or the connection died), so `max_in_flight` counts replies not
/// yet delivered as well as ops still running.
struct OutFrame {
    bytes: Vec<u8>,
    releases_slot: bool,
}

impl OutFrame {
    fn inline(frame: &Frame) -> Self {
        Self { bytes: frame.encode(), releases_slot: false }
    }

    fn engine(frame: &Frame) -> Self {
        Self { bytes: frame.encode(), releases_slot: true }
    }
}

/// Cross-thread server state: the stop flag, admission counter, and the
/// observability counters STATS reports.
struct Shared {
    stop: AtomicBool,
    in_flight: AtomicUsize,
    max_in_flight: usize,
    active_conns: AtomicUsize,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    busy_rejections: AtomicU64,
    connections: AtomicU64,
    obs: NetObs,
    /// Where traced requests' span trees land (the TRACE op drains it).
    sink: SpanSink,
    /// TOPK burn-rate tracking against [`NetConfig::slo`]; BUSY refusals
    /// burn budget as errors.
    slo: SloTracker,
}

/// Network-tier metric handles, resolved once at server start against the
/// process [`Registry::global`]. The STATS wire op keeps reading the raw
/// atomics in [`Shared`]; a METRICS scrape mirrors them into gauges so
/// one exposition carries every tier.
struct NetObs {
    /// Time to extract one complete frame from the stream, µs.
    decode_us: Histogram,
    /// Time to serialize one engine response frame, µs.
    encode_us: Histogram,
    /// Frames bounced by admission control (`max_in_flight`).
    admission_busy: Counter,
    /// Whole connections turned away at the connection cap.
    refused_connections: Counter,
}

impl NetObs {
    fn attach(registry: &Registry) -> Self {
        Self {
            decode_us: registry.histogram(
                "chronorank_net_frame_decode_us",
                "time extracting one complete frame from the byte stream, microseconds",
            ),
            encode_us: registry.histogram(
                "chronorank_net_frame_encode_us",
                "time serializing one engine response frame, microseconds",
            ),
            admission_busy: registry.counter(
                "chronorank_net_admission_busy_total",
                "frames refused with BUSY by admission control (max_in_flight)",
            ),
            refused_connections: registry.counter(
                "chronorank_net_refused_connections_total",
                "connections refused at the connection cap",
            ),
        }
    }
}

impl Shared {
    /// Mirror the wire counters into registry gauges (METRICS scrape).
    fn sync_obs(&self, registry: &Registry) {
        let g = |name: &str, help: &str, v: u64| registry.gauge(name, help).set_u64(v);
        g(
            "chronorank_net_frames_in",
            "request frames accepted",
            self.frames_in.load(Ordering::Relaxed),
        );
        g(
            "chronorank_net_frames_out",
            "response frames written",
            self.frames_out.load(Ordering::Relaxed),
        );
        g(
            "chronorank_net_busy_rejections",
            "BUSY refusals (admission + connection cap)",
            self.busy_rejections.load(Ordering::Relaxed),
        );
        g(
            "chronorank_net_connections",
            "connections accepted (lifetime)",
            self.connections.load(Ordering::Relaxed),
        );
        g(
            "chronorank_net_active_connections",
            "connections currently open",
            self.active_conns.load(Ordering::SeqCst) as u64,
        );
        g(
            "chronorank_net_in_flight",
            "engine frames admitted but not yet answered",
            self.in_flight.load(Ordering::SeqCst) as u64,
        );
    }
}

/// A running wire-protocol server. Dropping it shuts it down cleanly
/// (prefer calling [`NetServer::shutdown`] to observe join completion).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<ConnRegistry>>,
}

#[derive(Default)]
struct ConnRegistry {
    streams: Vec<TcpStream>,
    handles: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `config.addr` and serve the backend produced by `build`.
    ///
    /// The backend is built once and shared behind an `Arc` by every
    /// connection's reader (the engines are `Send + Sync`); a build
    /// failure is reported here, not deferred.
    pub fn start<F>(config: NetConfig, build: F) -> Result<Self, ServerError>
    where
        F: FnOnce() -> Result<Backend, String>,
    {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            max_in_flight: config.max_in_flight,
            active_conns: AtomicUsize::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            obs: NetObs::attach(Registry::global()),
            sink: SpanSink::global().clone(),
            slo: SloTracker::new(config.slo),
        });
        let backend = Arc::new(build().map_err(ServerError::Backend)?);
        let conns: Arc<Mutex<ConnRegistry>> = Arc::default();
        let acceptor_shared = Arc::clone(&shared);
        let acceptor_conns = Arc::clone(&conns);
        let max_connections = config.max_connections;
        let acceptor = std::thread::Builder::new()
            .name("chronorank-net-accept".to_string())
            .spawn(move || {
                acceptor_main(
                    &listener,
                    &backend,
                    &acceptor_shared,
                    &acceptor_conns,
                    max_connections,
                );
            })
            .map_err(ServerError::Io)?;
        Ok(Self { addr, shared, acceptor: Some(acceptor), conns })
    }

    /// [`NetServer::start`] over a read-only [`ServeEngine`] built from
    /// `set`.
    pub fn start_serve(
        set: TemporalSet,
        engine: ServeConfig,
        net: NetConfig,
    ) -> Result<Self, ServerError> {
        Self::start(net, move || {
            ServeEngine::new(&set, engine).map(Backend::from).map_err(|e| e.to_string())
        })
    }

    /// [`NetServer::start`] over a live [`IngestEngine`] seeded with
    /// `seed` (WAL recovery per `engine.wal_dir`).
    pub fn start_live(
        seed: TemporalSet,
        engine: LiveConfig,
        net: NetConfig,
    ) -> Result<Self, ServerError> {
        Self::start(net, move || {
            IngestEngine::new(&seed, engine).map(Backend::from).map_err(|e| e.to_string())
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every connection, and join every thread the
    /// server spawned.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() so the acceptor sees the flag. A bind
        // to an unspecified address (0.0.0.0 / ::) is not connectable as
        // such on every platform — wake it via loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect(wake).ok();
        if let Some(h) = self.acceptor.take() {
            h.join().ok();
        }
        let (streams, handles) = {
            let mut reg = self.conns.lock().expect("registry lock");
            (std::mem::take(&mut reg.streams), std::mem::take(&mut reg.handles))
        };
        for s in streams {
            s.shutdown(Shutdown::Both).ok();
        }
        for h in handles {
            h.join().ok();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Run one admitted engine op against the backend, on the reader thread
/// that decoded it, and encode the reply. `span` is the open
/// `server.request` span when the request carried trace context; it is
/// finished once the response frame is built.
fn answer(
    backend: &Backend,
    shared: &Shared,
    id: u64,
    op: EngineOp,
    span: Option<ActiveSpan>,
    admitted_at: Instant,
) -> OutFrame {
    let span_ctx = span.as_ref().map(|s| (s.trace(), s.id()));
    let is_topk = matches!(op, EngineOp::TopK(_));
    let frame = match op {
        EngineOp::TopK(q) => match backend
            .topk(q, span_ctx, &shared.sink)
            .and_then(|resp| resp.encode().map_err(|e| (ErrCode::Engine, e.to_string())))
        {
            Ok(body) => Frame::new(OpCode::TopKOk, id, body),
            Err(e) => error_frame(id, e.0, e.1),
        },
        EngineOp::Append(recs) => match backend.append(&recs) {
            Ok(ok) => Frame::new(OpCode::AppendOk, id, ok.encode()),
            Err(e) => error_frame(id, e.0, e.1),
        },
        EngineOp::Checkpoint => match backend.checkpoint() {
            Ok(()) => Frame::new(OpCode::CheckpointOk, id, Vec::new()),
            Err(e) => error_frame(id, e.0, e.1),
        },
        EngineOp::Stats => Frame::new(OpCode::StatsOk, id, backend.stats(shared).encode()),
        EngineOp::Metrics => match render_metrics(backend, shared) {
            Ok(text) => Frame::new(OpCode::MetricsOk, id, text.into_bytes()),
            Err(e) => error_frame(id, e.0, e.1),
        },
        EngineOp::Trace => match render_trace(shared) {
            Ok(text) => Frame::new(OpCode::TraceOk, id, text.into_bytes()),
            Err(e) => error_frame(id, e.0, e.1),
        },
    };
    let failed = frame.opcode == OpCode::Error;
    // TOPK is the serving path the SLO objective covers: one latency
    // sample per answered query, measured from admission, with engine
    // failures burning as errors.
    if is_topk {
        shared.slo.observe(elapsed_us(admitted_at), failed);
    }
    if let Some(mut span) = span {
        span.attr("ok", AttrValue::Bool(!failed));
        span.finish();
    }
    let t_enc = Instant::now();
    let out = OutFrame::engine(&frame);
    shared.obs.encode_us.record(elapsed_us(t_enc));
    out
}

/// Answer one METRICS scrape: pull every backend's counters into the
/// process registry (serve/live gauges, wire-tier gauges), then render
/// the whole registry as text exposition.
fn render_metrics(backend: &Backend, shared: &Shared) -> Result<String, (ErrCode, String)> {
    let registry = Registry::global();
    match backend {
        Backend::Serve(e) => e.sync_obs(),
        Backend::Live(lock) => {
            lock.read().unwrap_or_else(std::sync::PoisonError::into_inner).sync_obs()
        }
    }
    shared.sync_obs(registry);
    shared.slo.sync_gauges(registry);
    let text = registry.render();
    if text.len() > MAX_PAYLOAD as usize {
        return Err((ErrCode::Engine, "metric exposition exceeds the frame payload bound".into()));
    }
    Ok(text)
}

/// Answer one TRACE scrape: SLO burn-rate status plus the span sink's
/// contents, drained (take-and-clear — a span is reported exactly once)
/// and rendered as one structured JSON object.
fn render_trace(shared: &Shared) -> Result<String, (ErrCode, String)> {
    let spans = shared.sink.drain();
    let text = format!(
        "{{\"slo\":{},\"spans\":{},\"spans_dropped\":{}}}",
        shared.slo.status().to_json(),
        spans_json(&spans),
        shared.sink.dropped(),
    );
    if text.len() > MAX_PAYLOAD as usize {
        return Err((ErrCode::Engine, "trace dump exceeds the frame payload bound".into()));
    }
    Ok(text)
}

fn error_frame(request_id: u64, code: ErrCode, message: String) -> Frame {
    // A message too large for the wire's u32 length field (or the frame
    // payload bound) degrades to a short placeholder — the client still
    // gets the typed code, which is the part that drives its behavior.
    let body = ErrorBody { code, message }
        .encode()
        .ok()
        .filter(|b| b.len() <= MAX_PAYLOAD as usize)
        .unwrap_or_else(|| {
            ErrorBody { code, message: "(error message too large for one frame)".into() }
                .encode()
                .expect("short message always encodes")
        });
    Frame::new(OpCode::Error, request_id, body)
}

fn acceptor_main(
    listener: &TcpListener,
    backend: &Arc<Backend>,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<ConnRegistry>>,
    max_connections: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Transient accept failures (fd exhaustion, aborted
                // handshakes) must not kill the acceptor: back off briefly
                // and retry until told to stop.
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if shared.active_conns.load(Ordering::SeqCst) >= max_connections {
            // One best-effort typed refusal, then close: the client learns
            // *why*, instead of seeing an unexplained reset.
            let mut stream = stream;
            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            shared.obs.refused_connections.inc();
            let refusal = error_frame(
                0,
                ErrCode::Busy,
                format!("connection limit ({max_connections}) reached"),
            );
            if stream.write_all(&refusal.encode()).is_ok() {
                // FIN first, then briefly drain whatever the client already
                // sent: closing with unread inbound bytes turns into an RST
                // on many stacks, which would destroy the refusal in flight.
                stream.shutdown(Shutdown::Write).ok();
                stream.set_read_timeout(Some(std::time::Duration::from_millis(250))).ok();
                let mut sink = [0u8; 1024];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            }
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        shared.connections.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).ok();
        spawn_connection(stream, Arc::clone(backend), Arc::clone(shared), conns);
    }
}

fn spawn_connection(
    stream: TcpStream,
    backend: Arc<Backend>,
    shared: Arc<Shared>,
    conns: &Arc<Mutex<ConnRegistry>>,
) {
    let (Ok(write_half), Ok(registry_handle)) = (stream.try_clone(), stream.try_clone()) else {
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let (out_tx, out_rx) = sync_channel::<OutFrame>(REPLY_QUEUE_FRAMES);
    let writer_shared = Arc::clone(&shared);
    let Ok(writer) = std::thread::Builder::new()
        .name("chronorank-net-write".to_string())
        .spawn(move || writer_main(write_half, &out_rx, &writer_shared))
    else {
        // Roll back the acceptor's reservation: the decrement below lives
        // in the reader closure, which will never run.
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let reader_shared = Arc::clone(&shared);
    let reader =
        std::thread::Builder::new().name("chronorank-net-read".to_string()).spawn(move || {
            reader_main(stream, &backend, &out_tx, &reader_shared);
            reader_shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    if reader.is_err() {
        // The dropped closure never ran; undo its side of the accounting.
        // Dropping it also hung up out_tx, so the writer exits on its own.
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
    let mut reg = conns.lock().expect("registry lock");
    // Reap finished connections so long-lived servers don't accumulate
    // dead handles or stale stream clones.
    reg.handles.retain(|h| !h.is_finished());
    reg.streams.retain(|s| s.peer_addr().is_ok());
    reg.streams.push(registry_handle);
    reg.handles.push(writer);
    reg.handles.extend(reader);
}

fn writer_main(stream: TcpStream, frames: &Receiver<OutFrame>, shared: &Shared) {
    let mut out = std::io::BufWriter::new(stream);
    loop {
        let frame = match frames.try_recv() {
            Ok(f) => f,
            Err(TryRecvError::Empty) => {
                // Queue drained: flush the batch, then block for more.
                if out.flush().is_err() {
                    break;
                }
                match frames.recv() {
                    Ok(f) => f,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let wrote = out.write_all(&frame.bytes).is_ok();
        // The slot opens only now, after the response actually left (or
        // irrecoverably failed).
        if frame.releases_slot {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        if !wrote {
            break;
        }
        shared.frames_out.fetch_add(1, Ordering::Relaxed);
    }
    // The writer owns the connection's end of life: flush the goodbye and
    // actively close the socket — the registry may still hold a clone, so
    // dropping the fd alone would leave the peer waiting — then drain
    // until the reader has hung up (it may be blocked on a full queue),
    // releasing the admission slots of any responses that never made it.
    out.flush().ok();
    if let Ok(stream) = out.into_inner() {
        stream.shutdown(Shutdown::Both).ok();
    }
    while let Ok(frame) = frames.recv() {
        if frame.releases_slot {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn reader_main(
    mut stream: TcpStream,
    backend: &Backend,
    out_tx: &SyncSender<OutFrame>,
    shared: &Shared,
) {
    let mut decoder = Decoder::new();
    let mut scratch = [0u8; 16 * 1024];
    'conn: loop {
        let n = match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        decoder.feed(&scratch[..n]);
        loop {
            let t_dec = Instant::now();
            let frame = match decoder.next_frame() {
                Ok(Some(f)) => {
                    shared.obs.decode_us.record(elapsed_us(t_dec));
                    f
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing is lost; one typed goodbye, then close.
                    let goodbye = error_frame(0, ErrCode::BadRequest, e.to_string());
                    out_tx.send(OutFrame::inline(&goodbye)).ok();
                    break 'conn;
                }
            };
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            if !dispatch(frame, backend, out_tx, shared) {
                break 'conn;
            }
        }
    }
    // Stop reading only; the writer still owes the peer any buffered
    // responses (including the typed goodbye above) and closes the
    // socket itself once the reader has hung up.
    stream.shutdown(Shutdown::Read).ok();
}

/// Handle one decoded frame: answer it, or refuse it, and queue the reply
/// for the writer. Returns `false` when the connection must close (the
/// writer is gone).
fn dispatch(
    frame: Frame,
    backend: &Backend,
    out_tx: &SyncSender<OutFrame>,
    shared: &Shared,
) -> bool {
    let id = frame.request_id;
    let (op, ctx) = match frame.opcode {
        OpCode::Ping => {
            let pong = Frame::new(OpCode::Pong, id, frame.payload);
            return out_tx.send(OutFrame::inline(&pong)).is_ok();
        }
        OpCode::TopK => match TopKRequest::decode_traced(&frame.payload) {
            Ok((req, ctx)) => (EngineOp::TopK(req.0), ctx),
            Err(e) => return send_bad_request(out_tx, id, &e),
        },
        OpCode::AppendBatch => match crate::frame::decode_append_batch_traced(&frame.payload) {
            Ok((recs, ctx)) => (EngineOp::Append(recs), ctx),
            Err(e) => return send_bad_request(out_tx, id, &e),
        },
        OpCode::Checkpoint => (EngineOp::Checkpoint, None),
        OpCode::Stats => (EngineOp::Stats, None),
        OpCode::Metrics => (EngineOp::Metrics, None),
        OpCode::Trace => (EngineOp::Trace, None),
        // A response opcode arriving at the server is a confused client.
        other => {
            let msg = format!("{other:?} is not a request opcode");
            return out_tx
                .send(OutFrame::inline(&error_frame(id, ErrCode::BadRequest, msg)))
                .is_ok();
        }
    };
    // Admission control: reserve an in-flight slot or answer BUSY now.
    let admitted = shared
        .in_flight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            (cur < shared.max_in_flight).then_some(cur + 1)
        })
        .is_ok();
    if !admitted {
        shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
        shared.obs.admission_busy.inc();
        // A refused TOPK is a failed request from the client's point of
        // view: it burns SLO error budget even though no latency accrued.
        if matches!(op, EngineOp::TopK(_)) {
            shared.slo.observe(0, true);
        }
        let msg = format!("{} frames in flight (limit)", shared.max_in_flight);
        return out_tx.send(OutFrame::inline(&error_frame(id, ErrCode::Busy, msg))).is_ok();
    }
    // The request joins its originating trace here: the server span's
    // parent is the *client's* span, so the cross-process tree is joined
    // by construction. It stays open until the reply is built.
    let admitted_at = Instant::now();
    let span = ctx.map(|ctx| {
        let mut span =
            shared.sink.child(TraceId(ctx.trace_id), SpanId(ctx.parent_span), "server.request");
        span.attr(
            "op",
            AttrValue::Sym(match &op {
                EngineOp::TopK(_) => "topk",
                EngineOp::Append(_) => "append",
                _ => "other",
            }),
        );
        span
    });
    let out = answer(backend, shared, id, op, span, admitted_at);
    // The writer releases the admission slot once the bytes reach the
    // wire; if the connection is already gone, release it here.
    if out_tx.send(out).is_err() {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    true
}

fn send_bad_request(out_tx: &SyncSender<OutFrame>, id: u64, e: &FrameError) -> bool {
    out_tx.send(OutFrame::inline(&error_frame(id, ErrCode::BadRequest, e.to_string()))).is_ok()
}
