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
//! * each **connection** thread reads a burst from its socket, takes
//!   every complete frame in it out of the streaming
//!   [`Decoder`](crate::frame::Decoder) and answers each in turn: PING
//!   inline, engine ops on the shared backend — but only after passing
//!   **admission control**, a global count of running engine ops bounded
//!   by [`NetConfig::max_in_flight`]. At the bound the thread answers a
//!   typed [`ErrCode::Busy`] error instead of running the op, so overload
//!   degrades into explicit, client-visible pushback. An op's slot is
//!   released as soon as its reply is built.
//!
//! The replies go into one `BufWriter` over the same socket, flushed
//! before the thread blocks in `read` again: a pipelined burst leaves in
//! few syscalls, a single request at once. One connection's requests run
//! one at a time, in arrival order, so its replies leave in request
//! order. A client that sends without reading fills the kernel's socket
//! buffers; the thread's write then blocks, it stops reading, and TCP
//! pushes back on the client. The server holds no reply queue of its own.
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
use chronorank_serve::{Answer, ServeConfig, ServeEngine, ServeQuery};
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

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
    let Ok(registry_handle) = stream.try_clone() else {
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    };
    let conn_shared = Arc::clone(&shared);
    let spawned =
        std::thread::Builder::new().name("chronorank-net-conn".to_string()).spawn(move || {
            connection_main(&stream, &backend, &conn_shared);
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
/// write fails. Each burst read from the socket is answered frame by
/// frame into one `BufWriter`, flushed before the next blocking `read`:
/// when the peer stops reading, the socket buffers fill, a write blocks,
/// and this thread stops reading too.
fn connection_main(stream: &TcpStream, backend: &Backend, shared: &Shared) {
    let (mut input, mut out) = (stream, BufWriter::new(stream));
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
                break 'conn;
            }
        }
    }
    // Flush the goodbye, then close actively: the registry holds a clone
    // of the socket, so dropping this thread's handle alone would leave
    // the peer waiting.
    out.flush().ok();
    stream.shutdown(Shutdown::Both).ok();
}

/// Answer one decoded frame, or refuse it, and return the encoded reply.
fn dispatch(frame: Frame, backend: &Backend, shared: &Shared) -> Vec<u8> {
    let id = frame.request_id;
    let bad_request = |message: String| error_frame(id, ErrCode::BadRequest, message).encode();
    let (op, ctx) = match frame.opcode {
        OpCode::Ping => return Frame::new(OpCode::Pong, id, frame.payload).encode(),
        OpCode::TopK => match TopKRequest::decode_traced(&frame.payload) {
            Ok((req, ctx)) => (EngineOp::TopK(req.0), ctx),
            Err(e) => return bad_request(e.to_string()),
        },
        OpCode::AppendBatch => match crate::frame::decode_append_batch_traced(&frame.payload) {
            Ok((recs, ctx)) => (EngineOp::Append(recs), ctx),
            Err(e) => return bad_request(e.to_string()),
        },
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
