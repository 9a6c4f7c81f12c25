//! The TCP server: an acceptor and one thread per connection over one
//! shared backend, with explicit admission control.
//!
//! ## Threading model
//!
//! The chronorank engines are `Send + Sync` (the whole index stack is),
//! so one backend is **shared**: every connection thread calls the same
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
//! A server runs `1 + connections` threads:
//!
//! * an **acceptor** thread owns the listener, enforces the connection
//!   cap (over-limit connections are answered with one typed BUSY frame
//!   and closed), and spawns one thread per connection;
//! * each **connection** thread runs `serve_stream` with its socket as
//!   both the reader and the writer, then shuts the socket down.
//!
//! `serve_stream` is the whole protocol and knows nothing of TCP: it reads
//! a burst, takes every complete frame in it out of the streaming
//! [`Decoder`](crate::frame::Decoder) and answers each in turn: PING
//! inline, engine ops on the shared backend — but only after passing
//! **admission control**, a global count of running engine ops bounded
//! by [`NetConfig::max_in_flight`]. At the bound it answers a typed
//! [`ErrCode::Busy`] error instead of running the op, so overload
//! degrades into explicit, client-visible pushback. An op's slot is
//! released as soon as its reply is built. A frame that breaks the
//! framing (magic, version, opcode, length, CRC) gets one BadRequest
//! goodbye with request id 0 and ends the loop; a frame whose payload does
//! not decode for its opcode — a non-empty payload on CHECKPOINT, STATS,
//! METRICS or TRACE included — gets a BadRequest that echoes its id, and
//! the next frame is answered. The unit tests at the end of this file
//! drive `serve_stream` from scripted byte chunks, one per `read`.
//!
//! The replies go into one `BufWriter` over the writer, flushed before the
//! loop blocks in `read` again: a pipelined burst leaves in few syscalls,
//! a single request at once. One connection's requests run one at a time,
//! in arrival order, so its replies leave in request order. A client that
//! sends without reading fills the kernel's socket buffers; the thread's
//! write then blocks, it stops reading, and TCP pushes back on the client.
//! The server holds no reply queue of its own. A socket write that makes
//! no progress for `WRITE_STALL` (30 s) fails, and a failed write ends the
//! loop without writing again, so such a client releases its thread.
//!
//! Shutdown is clean and total: the stop flag is raised, the acceptor is
//! woken with a loopback connection, every live socket is shut down, and
//! every thread — the acceptor and each connection's — is joined before
//! [`NetServer::shutdown`] returns.

use crate::frame::{
    AppendOk, Decoder, ErrCode, ErrorBody, Frame, OpCode, StatsBody, TopKRequest, TopKResponse,
    MAX_PAYLOAD,
};
use chronorank_core::{AppendRecord, TemporalSet};
use chronorank_live::{IngestEngine, LiveConfig};
use chronorank_obs::json::{self, Json};
use chronorank_obs::{
    elapsed_us, spans_json, ActiveSpan, AttrValue, Counter, Histogram, Registry, SloObjective,
    SloTracker, SpanId, SpanSink, TraceId,
};
use chronorank_serve::{Answer, Engine, ServeConfig, ServeEngine, ServeQuery};
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one socket write may make no progress before the connection
/// is closed: a client that never reads holds its thread this long.
const WRITE_STALL: Duration = Duration::from_secs(30);

/// How many bytes the acceptor reads from a client it refused, after the
/// refusal, before it closes the socket: room for what a client pipelined
/// before it saw the refusal.
const REFUSAL_DRAIN_BYTES: usize = 64 * 1024;

/// How many reads the acceptor makes from a refused client at most. Each
/// waits up to [`REFUSAL_DRAIN_WAIT`], so a client that sends one byte
/// just inside that wait holds the acceptor about 16 s, not the 4.5 h its
/// 64 Ki one-byte reads would take under the byte bound alone.
const REFUSAL_DRAIN_READS: usize = 64;

/// How long one read of a refused client's drain waits for data.
const REFUSAL_DRAIN_WAIT: Duration = Duration::from_millis(250);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Admission-control bound: engine ops running at once, across all
    /// connections. At the bound, further engine frames are refused with
    /// a typed BUSY error. `0` refuses everything — useful for testing
    /// client overload handling.
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
    /// Queried concurrently through `&self` by every connection thread.
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
    /// every shard probe are emitted into `sink` under the server span.
    /// The live append prefix is read under the same read lock that
    /// answered.
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

    /// STATS reads the engine's counters and domain, not a report: no
    /// shard lock is taken.
    fn stats(&self, shared: &Shared) -> StatsBody {
        fn of<S>(e: &Engine<S>) -> (u32, u64, (f64, f64)) {
            (e.workers() as u32, e.counters().queries, e.domain())
        }
        let (live_backend, (workers, queries, (t_min, t_max)), appends) = match self {
            Backend::Serve(e) => (0, of(e), 0),
            Backend::Live(lock) => {
                let e = lock.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                (1, of(&e), e.appends())
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
    fn new(config: &NetConfig) -> Self {
        Self {
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
        }
    }

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
            "engine ops admitted and still running",
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
    /// connection thread (the engines are `Send + Sync`); a build
    /// failure is reported here, not deferred.
    pub fn start<F>(config: NetConfig, build: F) -> Result<Self, ServerError>
    where
        F: FnOnce() -> Result<Backend, String>,
    {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&config));
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

/// Run one admitted engine op against the backend, on the connection
/// thread that decoded it, and encode the reply. `span` is the open
/// `server.request` span when the request carried trace context; it is
/// finished once the response frame is built.
fn answer(
    backend: &Backend,
    shared: &Shared,
    id: u64,
    op: EngineOp,
    span: Option<ActiveSpan>,
    admitted_at: Instant,
) -> Vec<u8> {
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
    let bytes = frame.encode();
    shared.obs.encode_us.record(elapsed_us(t_enc));
    bytes
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
    let text = json::encode(&Json::Obj(vec![
        ("slo".into(), shared.slo.status().to_json()),
        ("spans".into(), spans_json(&spans)),
        ("spans_dropped".into(), Json::Num(shared.sink.dropped() as f64)),
    ]));
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
                stream.set_read_timeout(Some(REFUSAL_DRAIN_WAIT)).ok();
                drain_refused(&stream);
            }
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        shared.connections.fetch_add(1, Ordering::Relaxed);
        spawn_connection(stream, Arc::clone(backend), Arc::clone(shared), conns);
    }
}

/// Read and drop what a refused client sent, until EOF, a read error (the
/// [`REFUSAL_DRAIN_WAIT`] timeout among them), [`REFUSAL_DRAIN_BYTES`] or
/// [`REFUSAL_DRAIN_READS`] reads, whichever comes first. Returns the reads
/// made.
fn drain_refused(mut peer: impl Read) -> usize {
    let mut buf = [0u8; 4096];
    let mut left = REFUSAL_DRAIN_BYTES;
    for reads in 1..=REFUSAL_DRAIN_READS {
        let want = left.min(buf.len());
        match peer.read(&mut buf[..want]) {
            Ok(n) if n > 0 && n < left => left -= n,
            _ => return reads,
        }
    }
    REFUSAL_DRAIN_READS
}

fn spawn_connection(
    stream: TcpStream,
    backend: Arc<Backend>,
    shared: Arc<Shared>,
    conns: &Arc<Mutex<ConnRegistry>>,
) {
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(WRITE_STALL)).ok();
    let Ok(registry_handle) = stream.try_clone() else {
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let conn_shared = Arc::clone(&shared);
    let spawned =
        std::thread::Builder::new().name("chronorank-net-conn".to_string()).spawn(move || {
            serve_stream(&stream, &stream, &backend, &conn_shared);
            // Close actively: the registry holds a clone of the socket, so
            // dropping this thread's handle alone would leave the peer
            // waiting.
            stream.shutdown(Shutdown::Both).ok();
            conn_shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    let Ok(handle) = spawned else {
        // The dropped closure never ran; undo its side of the accounting.
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let mut reg = conns.lock().expect("registry lock");
    // Reap finished connections so long-lived servers don't accumulate
    // dead handles or stale stream clones.
    reg.handles.retain(|h| !h.is_finished());
    reg.streams.retain(|s| s.peer_addr().is_ok());
    reg.streams.push(registry_handle);
    reg.handles.push(handle);
}

/// Serve one connection until the peer hangs up, its framing is lost or a
/// read or write fails. Each burst read from `input` is answered frame by
/// frame into one `BufWriter` over `output`, flushed before the next
/// blocking `read`: when the peer stops reading, a write blocks, and the
/// loop stops reading too. After a failed write nothing more is written —
/// the replies still buffered are dropped, not retried.
fn serve_stream<R: Read, W: Write>(mut input: R, output: W, backend: &Backend, shared: &Shared) {
    let mut out = BufWriter::new(output);
    let mut decoder = Decoder::new();
    let mut scratch = [0u8; 16 * 1024];
    'conn: while out.flush().is_ok() {
        let n = match input.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        decoder.feed(&scratch[..n]);
        loop {
            let t_dec = Instant::now();
            let (reply, goodbye) = match decoder.next_frame() {
                Ok(Some(frame)) => {
                    shared.obs.decode_us.record(elapsed_us(t_dec));
                    shared.frames_in.fetch_add(1, Ordering::Relaxed);
                    (dispatch(frame, backend, shared), false)
                }
                Ok(None) => break,
                // Framing is lost; one typed goodbye, then close.
                Err(e) => (error_frame(0, ErrCode::BadRequest, e.to_string()).encode(), true),
            };
            if out.write_all(&reply).is_err() {
                break 'conn;
            }
            shared.frames_out.fetch_add(1, Ordering::Relaxed);
            if goodbye {
                out.flush().ok();
                break 'conn;
            }
        }
    }
    // `BufWriter`'s drop would write what it holds once more.
    drop(out.into_parts());
}

/// Answer one decoded frame, or refuse it, and return the encoded reply.
fn dispatch(frame: Frame, backend: &Backend, shared: &Shared) -> Vec<u8> {
    let id = frame.request_id;
    let bad_request = |message: String| error_frame(id, ErrCode::BadRequest, message).encode();
    let (op, ctx) = match frame.opcode {
        OpCode::Ping => return Frame::new(OpCode::Pong, id, frame.payload).encode(),
        OpCode::TopK => match TopKRequest::decode(&frame.payload) {
            Ok((req, ctx)) => (EngineOp::TopK(req.0), ctx),
            Err(e) => return bad_request(e.to_string()),
        },
        OpCode::AppendBatch => match crate::frame::decode_append_batch(&frame.payload) {
            Ok((recs, ctx)) => (EngineOp::Append(recs), ctx),
            Err(e) => return bad_request(e.to_string()),
        },
        // A body-less op carrying a body is refused, not ignored.
        op @ (OpCode::Checkpoint | OpCode::Stats | OpCode::Metrics | OpCode::Trace)
            if !frame.payload.is_empty() =>
        {
            return bad_request(format!("{op:?} takes an empty payload"));
        }
        OpCode::Checkpoint => (EngineOp::Checkpoint, None),
        OpCode::Stats => (EngineOp::Stats, None),
        OpCode::Metrics => (EngineOp::Metrics, None),
        OpCode::Trace => (EngineOp::Trace, None),
        // A response opcode arriving at the server is a confused client.
        other => return bad_request(format!("{other:?} is not a request opcode")),
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
        return error_frame(id, ErrCode::Busy, msg).encode();
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
    let reply = answer(backend, shared, id, op, span, admitted_at);
    // The op has finished running; its slot opens before the reply is
    // written, so admission counts running ops, not undelivered replies.
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_append_batch, TraceContext};
    use chronorank_curve::PiecewiseLinear;
    use std::collections::VecDeque;
    use std::io::{self, ErrorKind};

    fn tiny_set(objects: usize) -> TemporalSet {
        let curves: Vec<_> = (0..objects)
            .map(|i| {
                PiecewiseLinear::from_points(&[
                    (0.0, i as f64),
                    (50.0, (objects - i) as f64),
                    (100.0, i as f64 + 1.0),
                ])
                .unwrap()
            })
            .collect();
        TemporalSet::from_curves(curves).unwrap()
    }

    fn serve_backend(objects: usize) -> Backend {
        let config = ServeConfig { workers: 2, ..Default::default() };
        ServeEngine::new(&tiny_set(objects), config).unwrap().into()
    }

    fn live_backend() -> Backend {
        let config = LiveConfig { workers: 2, ..Default::default() };
        IngestEngine::new(&tiny_set(8), config).unwrap().into()
    }

    /// The peer's bytes: one scripted chunk per `read`, then end of stream.
    struct Script {
        chunks: VecDeque<Vec<u8>>,
    }

    impl Script {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            Self { chunks: chunks.into() }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.chunks.front_mut() else { return Ok(0) };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            Ok(n)
        }
    }

    /// A peer that stops reading: it takes `budget` bytes, then every
    /// write would block, as a socket write past its timeout does.
    struct Stalled {
        budget: usize,
        accepted: usize,
        refused: usize,
    }

    impl Write for Stalled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.accepted == self.budget {
                self.refused += 1;
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.budget - self.accepted);
            self.accepted += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Run the loop over `script` and decode everything it wrote.
    fn serve(backend: &Backend, shared: &Shared, script: &mut Script) -> Vec<Frame> {
        let mut written = Vec::new();
        serve_stream(&mut *script, &mut written, backend, shared);
        let mut decoder = Decoder::new();
        decoder.feed(&written);
        let replies: Vec<_> = std::iter::from_fn(|| decoder.next_frame().unwrap()).collect();
        assert_eq!(decoder.pending(), 0, "the loop writes whole frames");
        replies
    }

    fn frame(op: OpCode, id: u64, payload: &[u8]) -> Vec<u8> {
        Frame::new(op, id, payload.to_vec()).encode()
    }

    fn topk(id: u64, q: ServeQuery) -> Vec<u8> {
        frame(OpCode::TopK, id, &TopKRequest(q).encode().unwrap())
    }

    fn append(id: u64, recs: &[AppendRecord]) -> Vec<u8> {
        frame(OpCode::AppendBatch, id, &encode_append_batch(recs, None).unwrap())
    }

    /// A reply's opcode, echoed id and, for an error, its code.
    fn verdict(reply: &Frame) -> (OpCode, u64, Option<ErrCode>) {
        let code = (reply.opcode == OpCode::Error)
            .then(|| ErrorBody::decode(&reply.payload).expect("a typed error body").code);
        (reply.opcode, reply.request_id, code)
    }

    fn error_code(reply: &Frame) -> ErrCode {
        verdict(reply).2.unwrap_or_else(|| panic!("expected an error, got {:?}", reply.opcode))
    }

    fn text(reply: &Frame) -> &str {
        std::str::from_utf8(&reply.payload).unwrap()
    }

    #[test]
    fn a_refused_client_is_drained_for_a_bounded_number_of_reads() {
        // A drip client: one byte per read, far more reads than the bound.
        let mut drip = Script::new(vec![vec![7]; 10 * REFUSAL_DRAIN_READS]);
        assert_eq!(drain_refused(&mut drip), REFUSAL_DRAIN_READS);
        assert_eq!(drip.chunks.len(), 9 * REFUSAL_DRAIN_READS, "no read past the bound");
        // A fast sender stops at the byte bound, in fewer reads.
        let mut flood = Script::new(vec![vec![7; 4096]; 32]);
        assert_eq!(drain_refused(&mut flood), REFUSAL_DRAIN_BYTES / 4096);
        assert_eq!(flood.chunks.len(), 32 - REFUSAL_DRAIN_BYTES / 4096);
        // A client that closes is read to its EOF and no further.
        let mut brief = Script::new(vec![vec![7; 10]; 3]);
        assert_eq!(drain_refused(&mut brief), 4);
    }

    #[test]
    fn ping_stats_and_query_roundtrip() {
        let (backend, shared) = (serve_backend(12), Shared::new(&NetConfig::default()));
        // One pipelined burst: all three frames arrive in one read.
        let burst = [
            frame(OpCode::Ping, 1, b"echo me"),
            topk(2, ServeQuery::exact(10.0, 90.0, 4)),
            frame(OpCode::Stats, 3, &[]),
        ]
        .concat();
        let replies = serve(&backend, &shared, &mut Script::new(vec![burst]));
        assert_eq!(replies.iter().map(|r| r.request_id).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(replies[0].opcode, OpCode::Pong);
        assert_eq!(replies[0].payload, b"echo me");
        let answer = TopKResponse::decode(&replies[1].payload).unwrap();
        assert_eq!(answer.topk.len(), 4);
        assert_eq!(answer.appends_applied, 0, "read-only backend never applies appends");
        let stats = StatsBody::decode(&replies[2].payload).unwrap();
        assert_eq!((stats.live_backend, stats.workers, stats.queries), (0, 2, 1));
        assert_eq!((stats.frames_in, stats.frames_out), (3, 2));
        assert_eq!(stats.connections, 0, "the acceptor counts connections, not the loop");
    }

    #[test]
    fn serve_backend_refuses_writes_with_typed_unsupported() {
        let (backend, shared) = (serve_backend(8), Shared::new(&NetConfig::default()));
        let rec = AppendRecord { object: 0, t: 200.0, v: 1.0 };
        let script = vec![
            append(1, &[rec]),
            frame(OpCode::Checkpoint, 2, &[]),
            frame(OpCode::Ping, 3, b"still here"),
        ];
        let replies = serve(&backend, &shared, &mut Script::new(script));
        assert_eq!(error_code(&replies[0]), ErrCode::Unsupported);
        assert_eq!(error_code(&replies[1]), ErrCode::Unsupported);
        // The connection survives a typed refusal.
        assert_eq!(verdict(&replies[2]), (OpCode::Pong, 3, None));
    }

    #[test]
    fn live_backend_appends_and_checkpoints() {
        let (backend, shared) = (live_backend(), Shared::new(&NetConfig::default()));
        let batch: Vec<AppendRecord> =
            (0..8).map(|i| AppendRecord { object: i, t: 150.0, v: 100.0 + i as f64 }).collect();
        // A rejected append (non-monotone time) is a typed engine error, and
        // it refuses its whole batch: none of the records ahead of it may
        // land, and a retry of those is accepted.
        let bad = AppendRecord { object: 0, t: 10.0, v: 1.0 };
        let good = [1, 2].map(|object| AppendRecord { object, t: 160.0, v: 1.0 });
        let script = vec![
            append(1, &batch),
            topk(2, ServeQuery::exact(120.0, 150.0, 3)),
            frame(OpCode::Checkpoint, 3, &[]),
            append(4, &[good[0], bad, good[1]]),
            frame(OpCode::Stats, 5, &[]),
            append(6, &good),
        ];
        let replies = serve(&backend, &shared, &mut Script::new(script));
        let ok = AppendOk::decode(&replies[0].payload).unwrap();
        assert_eq!((ok.accepted, ok.total_appends), (8, 8));
        let answer = TopKResponse::decode(&replies[1].payload).unwrap();
        assert_eq!(answer.appends_applied, 8, "the answer must report the applied appends");
        assert_eq!(verdict(&replies[2]), (OpCode::CheckpointOk, 3, None));
        assert_eq!(error_code(&replies[3]), ErrCode::Engine);
        assert_eq!(StatsBody::decode(&replies[4].payload).unwrap().appends, 8);
        assert_eq!(AppendOk::decode(&replies[5].payload).unwrap().total_appends, 10);
    }

    #[test]
    fn admission_control_answers_busy_instead_of_queueing() {
        // max_in_flight = 0: every engine frame bounces with BUSY while the
        // engine-free PING path keeps working. STATS is an engine op too.
        let backend = serve_backend(8);
        let shared = Shared::new(&NetConfig { max_in_flight: 0, ..Default::default() });
        let script = vec![
            topk(1, ServeQuery::exact(10.0, 90.0, 2)),
            frame(OpCode::Ping, 2, b"ok"),
            frame(OpCode::Stats, 3, &[]),
        ];
        let replies = serve(&backend, &shared, &mut Script::new(script));
        let got: Vec<_> = replies.iter().map(verdict).collect();
        assert_eq!(
            got,
            [
                (OpCode::Error, 1, Some(ErrCode::Busy)),
                (OpCode::Pong, 2, None),
                (OpCode::Error, 3, Some(ErrCode::Busy)),
            ]
        );
        assert_eq!(shared.busy_rejections.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn metrics_scrape_returns_valid_exposition_with_serve_families() {
        let (backend, shared) = (serve_backend(12), Shared::new(&NetConfig::default()));
        let script = vec![
            topk(1, ServeQuery::exact(10.0, 90.0, 4)),
            topk(2, ServeQuery::approx(10.0, 90.0, 4, 0.05)),
            frame(OpCode::Metrics, 3, &[]),
        ];
        let replies = serve(&backend, &shared, &mut Script::new(script));
        assert_eq!(verdict(&replies[2]), (OpCode::MetricsOk, 3, None));
        let text = text(&replies[2]);
        let families = chronorank_obs::validate_exposition(text)
            .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
        for family in [
            "chronorank_serve_route_latency_us",
            "chronorank_serve_route_total",
            "chronorank_serve_queries",
            "chronorank_serve_workers",
            "chronorank_net_frames_in",
            "chronorank_net_frame_decode_us",
            "chronorank_net_frame_encode_us",
        ] {
            assert!(families.contains(family), "missing family {family} in:\n{text}");
        }
    }

    #[test]
    fn metrics_scrape_covers_the_live_tier() {
        let (backend, shared) = (live_backend(), Shared::new(&NetConfig::default()));
        let batch: Vec<AppendRecord> =
            (0..8).map(|i| AppendRecord { object: i, t: 150.0, v: 100.0 + i as f64 }).collect();
        let script = vec![
            append(1, &batch),
            frame(OpCode::Checkpoint, 2, &[]),
            frame(OpCode::Metrics, 3, &[]),
        ];
        let replies = serve(&backend, &shared, &mut Script::new(script));
        assert_eq!(verdict(&replies[2]), (OpCode::MetricsOk, 3, None));
        let text = text(&replies[2]);
        let families = chronorank_obs::validate_exposition(text)
            .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
        for family in [
            "chronorank_live_appends",
            "chronorank_live_batch_size",
            "chronorank_live_wal_fsync_us",
            "chronorank_live_checkpoint_us",
            "chronorank_live_recovery_us",
        ] {
            assert!(families.contains(family), "missing family {family} in:\n{text}");
        }
        // The gauges mirror the engine's own counters.
        assert!(text.contains("chronorank_live_appends 8"), "got:\n{text}");
        assert!(text.contains("chronorank_live_checkpoints 1"), "got:\n{text}");
    }

    /// Every request opcode, valid and malformed in every way its frame or
    /// payload can be, each split into two reads at every byte boundary
    /// and followed by a PING. Lost framing gets one BadRequest goodbye
    /// with id 0 and the PING is never read; a refused payload gets a
    /// BadRequest echoing its id and the PING is answered.
    #[test]
    fn every_malformed_frame_gets_its_defined_reply() {
        use OpCode::*;
        const ID: u64 = 7;
        let (backend, shared) = (serve_backend(8), Shared::new(&NetConfig::default()));
        let q = TopKRequest(ServeQuery::exact(10.0, 90.0, 3)).encode().unwrap();
        let rec = AppendRecord { object: 0, t: 200.0, v: 1.0 };
        let batch = encode_append_batch(&[rec], None).unwrap();
        let patched = |base: &[u8], at: usize, bytes: &[u8]| {
            let mut p = base.to_vec();
            p[at..at + bytes.len()].copy_from_slice(bytes);
            p
        };
        let short = |p: &[u8]| p[..p.len() - 1].to_vec();
        let long = |p: &[u8]| [p, &[0]].concat();
        // A trace context whose trace id is 0, the "absent" sentinel.
        let zero_tail = |p: &[u8]| [p, &[0; TraceContext::WIRE_LEN]].concat();
        // A body-less op refuses any payload byte.
        let body = || vec![("body", vec![0])];
        // (request, its response opcode, the reply to a valid frame, a valid
        // payload, payloads its decoder must refuse)
        let rows = [
            (Ping, Pong, (Pong, None), b"hi".to_vec(), vec![]),
            (
                TopK,
                TopKOk,
                (TopKOk, None),
                q.clone(),
                vec![
                    ("short", short(&q)),
                    ("long", long(&q)),
                    ("zero trace id", zero_tail(&q)),
                    ("t1 = t2", patched(&q, 8, &10f64.to_bits().to_le_bytes())),
                    ("NaN t1", patched(&q, 0, &f64::NAN.to_bits().to_le_bytes())),
                    ("k past 2^20", patched(&q, 16, &((1u32 << 20) + 1).to_le_bytes())),
                    ("tolerance tag", patched(&q, 20, &[3])),
                ],
            ),
            (
                AppendBatch,
                AppendOk,
                (Error, Some(ErrCode::Unsupported)),
                batch.clone(),
                vec![
                    ("short", short(&batch)),
                    ("long", long(&batch)),
                    ("zero trace id", zero_tail(&batch)),
                    ("count 2", patched(&batch, 0, &2u32.to_le_bytes())),
                ],
            ),
            (Checkpoint, CheckpointOk, (Error, Some(ErrCode::Unsupported)), vec![], body()),
            (Stats, StatsOk, (StatsOk, None), vec![], body()),
            (Metrics, MetricsOk, (MetricsOk, None), vec![], body()),
            (Trace, TraceOk, (TraceOk, None), vec![], body()),
        ];
        let ping = frame(Ping, 99, b"next");
        let pong = (Pong, 99, None);
        let bad_request = (Error, ID, Some(ErrCode::BadRequest));
        let goodbye = vec![(Error, 0, Some(ErrCode::BadRequest))];
        let mut cases = Vec::new();
        for (op, response, (valid_op, valid_code), valid, refused) in rows {
            let good = frame(op, ID, &valid);
            cases.push((
                format!("{op:?} valid"),
                good.clone(),
                vec![(valid_op, ID, valid_code), pong],
            ));
            cases.push((
                format!("{op:?} as {response:?}"),
                frame(response, ID, &valid),
                vec![bad_request, pong],
            ));
            for (what, payload) in &refused {
                cases.push((
                    format!("{op:?} payload {what}"),
                    frame(op, ID, payload),
                    vec![bad_request, pong],
                ));
            }
            let oversized = (MAX_PAYLOAD + 1).to_le_bytes();
            for (what, at, bytes) in [
                ("magic", 0, &b"X"[..]),
                ("version", 2, &[9]),
                ("opcode", 3, &[0x7f]),
                ("length", 12, &oversized),
                ("crc", 16, &[good[16] ^ 1]),
            ] {
                cases.push((
                    format!("{op:?} bad {what}"),
                    patched(&good, at, bytes),
                    goodbye.clone(),
                ));
            }
        }
        assert_eq!(cases.len(), 64);
        for (name, bytes, want) in &cases {
            let framing_lost = want == &goodbye;
            for split in 1..bytes.len() {
                let chunks = vec![bytes[..split].to_vec(), bytes[split..].to_vec(), ping.clone()];
                let mut script = Script::new(chunks);
                let got: Vec<_> =
                    serve(&backend, &shared, &mut script).iter().map(verdict).collect();
                assert_eq!(&got, want, "{name}, split at {split}");
                let unread = if framing_lost { Some(&ping) } else { None };
                assert_eq!(script.chunks.back(), unread, "{name}, split at {split}");
            }
        }
    }

    /// A peer that stops reading ends the loop at the first refused write:
    /// nothing more is read and nothing more is written. A stall between
    /// bursts fails the flush before the next read; a stall inside one
    /// fails the write that overflows the reply buffer.
    #[test]
    fn a_stalled_write_ends_the_loop_without_another_read_or_write() {
        let (backend, shared) = (serve_backend(8), Shared::new(&NetConfig::default()));
        let ping = frame(OpCode::Ping, 1, &[0x5a; 1 << 10]);
        for (chunks, budget, unread) in
            [(vec![ping.clone(); 64], 10_000, 54), (vec![ping.repeat(12), ping.clone()], 8_000, 1)]
        {
            let mut script = Script::new(chunks);
            let mut peer = Stalled { budget, accepted: 0, refused: 0 };
            serve_stream(&mut script, &mut peer, &backend, &shared);
            assert_eq!((peer.accepted, peer.refused), (budget, 1));
            assert_eq!(script.chunks.len(), unread);
        }
    }

    /// The write-stall bound is set on every accepted socket before its
    /// connection thread runs (a socket option: the registry's clone of the
    /// socket reads it back).
    #[test]
    fn an_accepted_socket_carries_the_write_stall_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let shared = Arc::new(Shared::new(&NetConfig::default()));
        let conns: Arc<Mutex<ConnRegistry>> = Arc::default();
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        spawn_connection(accepted, Arc::new(serve_backend(8)), Arc::clone(&shared), &conns);
        let ConnRegistry { streams, handles } = std::mem::take(&mut *conns.lock().unwrap());
        assert_eq!(streams[0].write_timeout().unwrap(), Some(WRITE_STALL));
        assert!(streams[0].nodelay().unwrap());
        drop(client); // end of stream: the loop returns
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.active_conns.load(Ordering::SeqCst), 0);
    }
}
