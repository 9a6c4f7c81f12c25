//! Every call the benchmark makes into chronorank lives in this file, so
//! the `use` lists below are the complete set of public names the
//! benchmark pins. The rest of the package sees only the plain types
//! declared here ([`Query`], [`Answer`], counters) and never imports a
//! chronorank crate itself.
//!
//! Library defaults (`ServeConfig::default()`, `LiveConfig::default()`,
//! `NetConfig::default()`, `ApproxConfig::default()`) are taken wherever a
//! workload does not state an override, so a later change that fixes a
//! default shows up as a gain instead of being masked by bench-side tuning.

use crate::trace::SpanRec;
use chronorank_core::{
    b2_streaming, metrics, scan_stats, AggKind, ApproxConfig, ApproxIndex, ApproxVariant,
    B2Construction, Breakpoints, Exact1, Exact3, SharedMethod, StreamStats, TemporalSet, TopK,
    TopKMethod,
};
use chronorank_curve::ColumnarTail;
use chronorank_index::{
    BPlusTree, BulkLoader, ExternalSorter, FenceSpill, IntervalBulkLoader, IntervalTree,
};
use chronorank_live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank_net::{
    Backend, Decoder, Frame, NetClient, NetConfig, NetServer, OpCode, TopKRequest, TopKResponse,
};
use chronorank_obs::{ActiveSpan, SpanSink, TraceId};
use chronorank_serve::{
    build_route_methods_with_handles, merge_ranked as serve_merge_ranked, BuiltRoutes, MethodSet,
    Route, ServeConfig, ServeEngine, ServeQuery,
};
use chronorank_storage::{
    Env, FileDevice, ImageWriter, IoCounter, PagedFile, ScaleBudget, StoreConfig, WriteAheadLog,
};
use chronorank_workloads::{
    AppendStream, AppendStreamConfig, ClosedLoopTraffic, DatasetGenerator, IntervalPattern,
    MemeConfig, MemeGenerator, QueryInterval, QueryWorkload, QueryWorkloadConfig, StockConfig,
    StockGenerator, StreamingGenerator, TempConfig, TempGenerator, TrafficConfig,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

pub use chronorank_bench::json::{self, Json};
/// One appended reading `(object, t, v)`; opaque to the workloads.
pub use chronorank_core::AppendRecord as Tick;

/// The ε every tolerant query in the benchmark offers (BENCH_OBS's value).
pub const EPS_BUDGET: f64 = 0.2;
/// Hot-spot shape shared by every skewed stream.
const ZIPF: IntervalPattern = IntervalPattern::Zipf { hotspots: 8, exponent: 1.0, background: 0.1 };
/// Block size of every store the benchmark configures itself.
const BLOCK: usize = 4096;

/// Route names in `Route::ALL` order, as they appear in metric names.
pub const ROUTES: [&str; 5] = ["exact1", "exact3", "appx1", "appx2", "appx2plus"];

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Plain data crossing the boundary
// ---------------------------------------------------------------------------

/// `top-k(t1, t2)`; `eps: None` demands an exact answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub t1: f64,
    pub t2: f64,
    pub k: usize,
    pub eps: Option<f64>,
}

/// A ranked answer: `(object id, score)`, best first.
pub type Answer = Vec<(u32, f64)>;

impl Query {
    fn serve(&self) -> ServeQuery {
        match self.eps {
            None => ServeQuery::exact(self.t1, self.t2, self.k),
            Some(eps) => ServeQuery::approx(self.t1, self.t2, self.k, eps),
        }
    }
}

fn exact(q: &QueryInterval) -> Query {
    Query { t1: q.t1, t2: q.t2, k: q.k, eps: None }
}

fn answer(top: &TopK) -> Answer {
    top.entries().to_vec()
}

/// Precision@k of `got` against the exact answer `want`.
pub fn precision(want: &Answer, got: &Answer) -> f64 {
    metrics::precision(&TopK::from_ranked(want.clone()), &TopK::from_ranked(got.clone()))
}

// ---------------------------------------------------------------------------
// Datasets and query streams (the only consumers of the seed)
// ---------------------------------------------------------------------------

/// A materialised temporal set.
#[derive(Clone)]
pub struct Dataset(TemporalSet);

impl Dataset {
    /// The Temp-like sensor dataset.
    pub fn temp(objects: usize, avg_segments: usize, seed: u64) -> Self {
        let cfg = TempConfig { objects, avg_segments, seed, ..Default::default() };
        Self(TempGenerator::new(cfg).generate_set())
    }

    pub fn segments(&self) -> u64 {
        self.0.num_segments()
    }

    pub fn domain(&self) -> (f64, f64) {
        (self.0.t_min(), self.0.t_max())
    }

    /// Ground truth by brute force over every object.
    pub fn brute_force(&self, q: &Query) -> Answer {
        answer(&self.0.top_k_bruteforce(q.t1, q.t2, q.k))
    }

    /// Extend one object at its right edge (the live oracle's update).
    pub fn apply(&mut self, tick: &Tick) -> Res<()> {
        self.0.apply(*tick).map_err(err)
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Row-at-a-time rescoring: `Σ_i ∫ g_i` over every window, the scalar
    /// baseline of the columnar kernel.
    pub fn scalar_integrals(&self, windows: &[(f64, f64)]) -> f64 {
        let mut sum = 0.0;
        for &(a, b) in windows {
            for o in self.0.objects() {
                sum += o.curve.integral(a, b);
            }
        }
        sum
    }

    pub fn columnar(&self) -> Columnar {
        Columnar(self.0.to_columnar())
    }
}

/// `count` uniform random exact queries (the paper's query model).
pub fn uniform_queries(
    domain: (f64, f64),
    count: usize,
    span_fraction: f64,
    k: usize,
    seed: u64,
) -> Vec<Query> {
    let cfg = QueryWorkloadConfig { count, span_fraction, k, seed, ..Default::default() };
    QueryWorkload::new(cfg, domain.0, domain.1).generate().iter().map(exact).collect()
}

/// Where the eight hot windows sit is pinned by this seed, not by the
/// run's: what a hot window costs depends on where it falls (old data or
/// the freshly appended edge, a dense or a sparse stretch), and letting
/// the windows move made seeds differ by 15–30 % in `live_wire` and by
/// 10 % in `reads_per_query` — a property of the draw, not of the system.
/// The run's seed still decides the data, the order in which hot spots
/// are hit, and every background window.
const HOTSPOT_SEED: u64 = 7;

/// Moves the hot windows of a generated stream to their pinned
/// positions, rank for rank; background windows pass through.
struct HotspotPin {
    seeded: Vec<QueryInterval>,
    pinned: Vec<QueryInterval>,
}

impl HotspotPin {
    fn new(cfg: QueryWorkloadConfig, domain: (f64, f64), seeded: &[QueryInterval]) -> Self {
        let cfg = QueryWorkloadConfig { seed: HOTSPOT_SEED, ..cfg };
        let pinned = QueryWorkload::new(cfg, domain.0, domain.1).hotspots();
        Self { seeded: seeded.to_vec(), pinned }
    }

    fn apply(&self, q: &QueryInterval) -> Query {
        exact(self.seeded.iter().position(|h| h == q).map_or(q, |rank| &self.pinned[rank]))
    }
}

/// One closed-loop stream per client over shared Zipf hot spots,
/// alternating exact and ε-tolerant queries (the BENCH_OBS / BENCH_NET mix).
pub fn zipf_mixed_streams(
    domain: (f64, f64),
    clients: usize,
    queries_per_client: usize,
    k: usize,
    seed: u64,
) -> Vec<Vec<Query>> {
    let workload =
        QueryWorkloadConfig { span_fraction: 0.2, k, seed, pattern: ZIPF, ..Default::default() };
    let plan = ClosedLoopTraffic::new(
        TrafficConfig { clients, queries_per_client, workload },
        domain.0,
        domain.1,
    );
    let pin = HotspotPin::new(workload, domain, plan.hotspots());
    plan.streams()
        .iter()
        .map(|s| {
            s.iter()
                .enumerate()
                .map(|(i, q)| Query { eps: (i % 2 == 1).then_some(EPS_BUDGET), ..pin.apply(q) })
                .collect()
        })
        .collect()
}

/// Exact hot-spot queries over the full (post-ingest) domain: right-edge
/// windows keep landing on freshly appended data.
pub fn hotspot_queries(domain: (f64, f64), count: usize, k: usize, seed: u64) -> Vec<Query> {
    let cfg = QueryWorkloadConfig { count, span_fraction: 0.15, k, seed, pattern: ZIPF };
    let workload = QueryWorkload::new(cfg, domain.0, domain.1);
    let pin = HotspotPin::new(cfg, domain, &workload.hotspots());
    workload.generate().iter().map(|q| pin.apply(q)).collect()
}

/// A stock-volume dataset split into a base set and a time-ordered
/// append trace.
pub struct AppendTrace(AppendStream);

impl AppendTrace {
    /// `base_days` of history are the bootstrap state, `appended_days`
    /// arrive as ticks.
    pub fn stock(tickers: usize, base_days: usize, appended_days: usize, seed: u64) -> Self {
        let days = base_days + appended_days;
        let generator =
            StockGenerator::new(StockConfig { objects: tickers, days, readings_per_day: 8, seed });
        let cfg = AppendStreamConfig {
            base_fraction: base_days as f64 / days as f64,
            skew: 0.0,
            ..Default::default()
        };
        Self(AppendStream::from_generator(&generator, cfg))
    }

    pub fn base(&self) -> Dataset {
        Dataset(self.0.base_set())
    }

    pub fn full(&self) -> Dataset {
        Dataset(self.0.full_set())
    }

    pub fn ticks(&self) -> &[Tick] {
        self.0.records()
    }
}

// ---------------------------------------------------------------------------
// Tracing: the process-wide span sink is the benchmark's span buffer
// ---------------------------------------------------------------------------

/// A span the benchmark opened around one adapter call.
pub struct OpSpan(ActiveSpan);

/// Open a root span on a fresh trace.
pub fn span_open(name: &'static str) -> OpSpan {
    OpSpan(SpanSink::global().root(TraceId::next(), name))
}

impl OpSpan {
    pub fn finish(self) {
        self.0.finish();
    }
}

/// Take every span collected since the last call. The sink is a bounded
/// ring (512), so traced loops drain it every few dozen operations.
pub fn drain_spans() -> Vec<SpanRec> {
    SpanSink::global()
        .drain()
        .into_iter()
        .map(|s| SpanRec {
            id: s.id.0,
            parent: s.parent.map(|p| p.0),
            trace: s.trace.0,
            name: s.name.to_string(),
            start_us: s.start_us,
            dur_us: s.duration_us,
        })
        .collect()
}

/// Spans the sink overwrote before a drain saw them (should stay 0).
pub fn spans_dropped() -> u64 {
    SpanSink::global().dropped()
}

// ---------------------------------------------------------------------------
// Serve layer
// ---------------------------------------------------------------------------

/// The overrides a workload states; `None` keeps `ServeConfig::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSpec {
    pub workers: usize,
    pub pool_frames: Option<usize>,
    pub cache_entries: Option<usize>,
}

impl EngineSpec {
    fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig { workers: self.workers, ..Default::default() };
        if let Some(frames) = self.pool_frames {
            cfg.store = StoreConfig { block_size: BLOCK, pool_capacity: frames };
        }
        if let Some(entries) = self.cache_entries {
            cfg.cache_capacity = entries;
        }
        cfg
    }
}

/// Cumulative engine counters (`ServeReport`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub reads: u64,
    pub index_bytes: u64,
    pub build_s: f64,
    pub routes: [u64; 5],
}

pub struct Engine(ServeEngine);

impl Engine {
    pub fn build(set: &Dataset, spec: &EngineSpec) -> Res<Self> {
        ServeEngine::new(&set.0, spec.config()).map(Self).map_err(err)
    }

    /// `ServeEngine::query_routed`: the answer and the route index.
    pub fn query(&self, q: &Query) -> Res<(Answer, usize)> {
        self.0.query_routed(q.serve()).map(|(top, route)| (answer(&top), route.idx())).map_err(err)
    }

    /// `ServeEngine::query_spanned` under `span`: the engine and its
    /// shard probes join the benchmark's span tree.
    pub fn query_spanned(&self, q: &Query, span: &OpSpan) -> Res<(Answer, usize)> {
        self.0
            .query_spanned(q.serve(), span.0.trace(), span.0.id(), SpanSink::global())
            .map(|(top, route)| (answer(&top), route.idx()))
            .map_err(err)
    }

    /// `Planner::route` alone.
    pub fn plan(&self, q: &Query) -> usize {
        self.0.planner().route(&q.serve()).idx()
    }

    pub fn counters(&self) -> EngineCounters {
        let r = self.0.report();
        EngineCounters {
            queries: r.queries,
            cache_hits: r.cache_hits,
            cache_lookups: r.cache_lookups,
            reads: r.io.reads,
            index_bytes: r.index_bytes,
            build_s: r.build_secs,
            routes: r.routes.map(|s| s.queries),
        }
    }
}

/// `chronorank_serve::merge_ranked`.
pub fn merge_ranked(lists: &[Answer], k: usize) -> Answer {
    answer(&serve_merge_ranked(lists, k))
}

// ---------------------------------------------------------------------------
// Core layer: one method at a time
// ---------------------------------------------------------------------------

/// One built top-k method behind `TopKMethod`.
pub struct Method(SharedMethod);

impl Method {
    fn of(m: impl TopKMethod + Send + Sync + 'static) -> Self {
        Self(Box::new(m))
    }

    /// A query against whatever the pools hold.
    pub fn top_k(&self, q: &Query) -> Res<Answer> {
        self.0.top_k(q.t1, q.t2, q.k, AggKind::Sum).map(|t| answer(&t)).map_err(err)
    }

    /// The paper's cold measurement: empty pools and a zeroed IO counter
    /// first. Returns the answer and the block reads it cost.
    pub fn cold_top_k(&self, q: &Query) -> Res<(Answer, u64)> {
        self.0.drop_caches().map_err(err)?;
        self.0.reset_io();
        let top = self.top_k(q)?;
        Ok((top, self.0.io_stats().reads))
    }

    pub fn size_bytes(&self) -> u64 {
        self.0.size_bytes()
    }
}

/// All five route methods over one in-memory set, as a serve shard or a
/// live generation builds them (`build_route_methods`), APPX1 included.
pub struct RouteMethods(BuiltRoutes);

impl RouteMethods {
    pub fn build(set: &Dataset) -> Res<Self> {
        let all = MethodSet { exact1: true, appx1: true, appx2: true, appx2_plus: true };
        let store = StoreConfig::default();
        build_route_methods_with_handles(&set.0, all, ApproxConfig::default(), store)
            .map(Self)
            .map_err(err)
    }

    /// Move one route's method out (each route can be taken once).
    pub fn take(&mut self, route: usize) -> Res<Method> {
        self.0.methods[route].take().map(Method).ok_or_else(|| format!("route {route} not built"))
    }

    /// `ImageWriter`: the set as a blob plus the EXACT3 tree page for page
    /// — what a live checkpoint writes per shard.
    pub fn write_image(&self, path: &Path, set: &Dataset) -> Res<()> {
        let mut w = ImageWriter::create(path).map_err(err)?;
        w.add_blob("set", &set.to_bytes()).map_err(err)?;
        w.add_paged("exact3", self.0.exact3.tree_file()).map_err(err)?;
        w.finish(0).map_err(err)
    }
}

/// APPX2+ has no streaming build, so it is built in memory.
pub fn build_appx2plus(set: &Dataset) -> Res<Method> {
    ApproxIndex::build(&set.0, ApproxVariant::APPX2_PLUS, ApproxConfig::default())
        .map(Method::of)
        .map_err(err)
}

/// The Meme-shaped dataset as a stream: never materialised.
pub struct Meme(MemeGenerator);

/// `scan_stats` output.
pub struct ScanStats(StreamStats);

impl ScanStats {
    pub fn segments(&self) -> u64 {
        self.0.num_segments
    }

    pub fn domain(&self) -> (f64, f64) {
        (self.0.t_min, self.0.t_max)
    }

    /// Four `f64` per segment.
    pub fn dataset_bytes(&self) -> u64 {
        self.0.num_segments * 32
    }
}

impl Meme {
    pub fn new(objects: usize, seed: u64) -> Self {
        Self(MemeGenerator::new(MemeConfig { objects, avg_segments: 67, span: 10_000.0, seed }))
    }

    pub fn scan(&self) -> ScanStats {
        ScanStats(scan_stats(self.0.objects()))
    }

    /// Ground truth for `queries` in one streaming pass (same order and
    /// tie rule as `TemporalSet::top_k_bruteforce`).
    pub fn brute_force(&self, queries: &[Query]) -> Vec<Answer> {
        let mut scores: Vec<Answer> = vec![Vec::with_capacity(self.0.num_objects()); queries.len()];
        for o in self.0.objects() {
            for (q, out) in queries.iter().zip(&mut scores) {
                out.push((o.id, o.curve.integral(q.t1, q.t2)));
            }
        }
        for (q, out) in queries.iter().zip(&mut scores) {
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            out.truncate(q.k);
        }
        scores
    }

    /// True score of one object (random access into the generator).
    pub fn score(&self, id: u32, q: &Query) -> f64 {
        self.0.object(id).curve.integral(q.t1, q.t2)
    }
}

/// One memory figure split into pool and sort shares.
#[derive(Clone, Copy)]
pub struct Budget(ScaleBudget);

impl Budget {
    pub fn new(bytes: u64) -> Self {
        Self(ScaleBudget::new(bytes))
    }

    pub fn bytes(&self) -> u64 {
        self.0.total_bytes()
    }

    pub fn holds(&self, stats: &ScanStats) -> bool {
        self.0.holds_dataset(stats.dataset_bytes())
    }
}

pub fn build_exact1_streaming(meme: &Meme, dir: &Path, budget: Budget) -> Res<Method> {
    let env = Env::dir(dir, budget.0.store_config(2)).map_err(err)?;
    Exact1::build_streaming(env, meme.0.objects(), budget.0.sort_bytes())
        .map(Method::of)
        .map_err(err)
}

pub fn build_exact3_streaming(meme: &Meme, dir: &Path, budget: Budget) -> Res<Method> {
    let store = budget.0.store_config(2);
    let env = Env::dir(dir, store).map_err(err)?;
    Exact3::build_streaming(env, store, meme.0.objects(), budget.0.sort_bytes())
        .map(Method::of)
        .map_err(err)
}

/// Streaming BREAKPOINTS2 output.
pub struct StreamedBreakpoints {
    points: Breakpoints,
    pub count: usize,
    pub peak_pending_segments: u64,
}

/// `b2_streaming` at `ε = 1/(r−1)`.
pub fn b2_stream(
    meme: &Meme,
    stats: &ScanStats,
    dir: &Path,
    budget: Budget,
    r: usize,
) -> Res<StreamedBreakpoints> {
    let env = Env::dir(dir, budget.0.store_config(1)).map_err(err)?;
    let eps = 1.0 / (r.max(2) - 1) as f64;
    let out = b2_streaming(
        &env,
        meme.0.objects(),
        &stats.0,
        eps,
        B2Construction::Efficient,
        budget.0.sort_bytes(),
    )
    .map_err(err)?;
    Ok(StreamedBreakpoints {
        count: out.breakpoints.len(),
        peak_pending_segments: out.peak_pending_segments as u64,
        points: out.breakpoints,
    })
}

/// `ApproxIndex::build_streaming` for APPX1 (`variant == 1`) or APPX2.
pub fn build_appx_streaming(
    meme: &Meme,
    dir: &Path,
    budget: Budget,
    variant: u8,
    b2: &StreamedBreakpoints,
    r: usize,
) -> Res<Method> {
    // QUERY1 keeps r+1 files alive (lists, r−1 sub-trees, the top tree).
    let store = budget.0.store_config(r + 1);
    let env = Env::dir(dir, store).map_err(err)?;
    let cfg = ApproxConfig { r: b2.count, store, ..Default::default() };
    let variant = if variant == 1 { ApproxVariant::APPX1 } else { ApproxVariant::APPX2 };
    ApproxIndex::build_streaming(env, meme.0.objects(), variant, cfg, b2.points.clone())
        .map(Method::of)
        .map_err(err)
}

// ---------------------------------------------------------------------------
// Live layer
// ---------------------------------------------------------------------------

/// The overrides `live_wire` states; everything else is `LiveConfig::default()`.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    pub workers: usize,
    pub wal_dir: PathBuf,
}

impl LiveSpec {
    fn config(&self) -> LiveConfig {
        LiveConfig {
            workers: self.workers,
            wal_dir: Some(self.wal_dir.clone()),
            rebuild: RebuildPolicy { mass_factor: 1.5, max_tail_segments: usize::MAX },
            ..Default::default()
        }
    }
}

/// `LiveReport`, flattened.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveCounters {
    pub batches: u64,
    pub queries: u64,
    pub rebuilds: u64,
    pub rebuilds_in_flight: u64,
    pub build_s: f64,
    pub swap_pause_max_us: u64,
    pub queries_during_rebuild: u64,
    pub tail_segments: u64,
    pub cache_invalidations: u64,
    pub wal_writes: u64,
    pub index_reads: u64,
    pub index_bytes: u64,
    pub preloaded_shards: u64,
    /// Segments of the live set (in-process view only).
    pub segments: u64,
}

pub struct Live(IngestEngine);

impl Live {
    /// `IngestEngine::new`: a fresh build on an empty directory, an image
    /// boot after a checkpoint, a WAL replay otherwise.
    pub fn open(base: &Dataset, spec: &LiveSpec) -> Res<Self> {
        IngestEngine::new(&base.0, spec.config()).map(Self).map_err(err)
    }

    pub fn append(&mut self, ticks: &[Tick]) -> Res<()> {
        self.0.append_batch(ticks).map_err(err)
    }

    pub fn query(&self, q: &Query) -> Res<Answer> {
        self.0.query(q.serve()).map(|t| answer(&t)).map_err(err)
    }

    pub fn checkpoint(&mut self) -> Res<()> {
        self.0.checkpoint().map_err(err)
    }

    pub fn counters(&self) -> LiveCounters {
        let r = self.0.report();
        LiveCounters {
            batches: r.batches,
            queries: r.queries,
            rebuilds: r.rebuilds,
            rebuilds_in_flight: r.rebuilds_in_flight,
            build_s: r.build_secs,
            swap_pause_max_us: r.swap_pause.max_us,
            queries_during_rebuild: r.queries_during_rebuild,
            tail_segments: r.tail_segments,
            cache_invalidations: r.cache_invalidations,
            wal_writes: r.wal.wal_writes,
            index_reads: r.index_io.reads,
            index_bytes: r.index_bytes,
            preloaded_shards: r.preloaded_shards,
            segments: self.0.live_set().num_segments(),
        }
    }
}

// ---------------------------------------------------------------------------
// Net layer
// ---------------------------------------------------------------------------

pub struct Server(NetServer);

impl Server {
    /// `NetServer::start_serve` with `NetConfig::default()`.
    pub fn start_serve(set: &Dataset, spec: &EngineSpec) -> Res<Self> {
        NetServer::start_serve(set.0.clone(), spec.config(), NetConfig::default())
            .map(Self)
            .map_err(err)
    }

    /// `NetServer::start` over an engine that already exists (the ladder
    /// moves its W = 2 rung behind the socket).
    pub fn start_engine(engine: Engine) -> Res<Self> {
        NetServer::start(NetConfig::default(), move || Ok(Backend::from(engine.0)))
            .map(Self)
            .map_err(err)
    }

    /// `NetServer::start_live` with `NetConfig::default()`.
    pub fn start_live(base: &Dataset, spec: &LiveSpec) -> Res<Self> {
        NetServer::start_live(base.0.clone(), spec.config(), NetConfig::default())
            .map(Self)
            .map_err(err)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Stops and joins every thread the server spawned.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// One TOPK reply.
#[derive(Debug, Clone)]
pub struct WireAnswer {
    pub answer: Answer,
    /// Ticks the live backend had applied when it answered (0 on serve).
    pub appends_applied: u64,
}

impl WireAnswer {
    fn of(r: TopKResponse) -> Self {
        Self { answer: answer(&r.topk), appends_applied: r.appends_applied }
    }
}

/// `PipelineOutcome`, input order.
pub struct PipelineRun {
    pub answers: Vec<WireAnswer>,
    pub latencies_us: Vec<f64>,
    pub busy_retries: u64,
}

pub struct Client(NetClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Res<Self> {
        NetClient::connect(addr).map(Self).map_err(err)
    }

    /// Send this client's spans (and, through the propagated context,
    /// the server's) into the benchmark's span buffer.
    pub fn trace(&mut self) {
        self.0.set_span_sink(SpanSink::global().clone());
    }

    /// `NetClient::topk` (traced end to end once [`Client::trace`] ran).
    pub fn topk(&mut self, q: &Query) -> Res<WireAnswer> {
        self.0.topk(q.serve()).map(WireAnswer::of).map_err(err)
    }

    /// `NetClient::pipeline_topk`: closed loop, `depth` in flight.
    pub fn pipeline(&mut self, queries: &[Query], depth: usize) -> Res<PipelineRun> {
        let stream: Vec<ServeQuery> = queries.iter().map(Query::serve).collect();
        let out = self.0.pipeline_topk(&stream, depth).map_err(err)?;
        Ok(PipelineRun {
            answers: out.answers.into_iter().map(WireAnswer::of).collect(),
            latencies_us: out.latencies.iter().map(|d| d.as_secs_f64() * 1e6).collect(),
            busy_retries: out.busy_retries,
        })
    }

    /// `NetClient::append_batch`: returns the ticks the server accepted.
    pub fn append(&mut self, ticks: &[Tick]) -> Res<u64> {
        self.0.append_batch(ticks).map(|ok| ok.accepted).map_err(err)
    }

    pub fn checkpoint(&mut self) -> Res<()> {
        self.0.checkpoint().map_err(err)
    }

    pub fn ping(&mut self) -> Res<()> {
        self.0.ping(b"").map(drop).map_err(err)
    }

    /// `NetClient::metrics`: the server's registry as text exposition.
    pub fn metrics(&mut self) -> Res<String> {
        self.0.metrics().map_err(err)
    }

    /// The serve backend's counters, read off a METRICS scrape — the only
    /// view of a server-side engine a client has.
    pub fn engine_counters(&mut self) -> Res<EngineCounters> {
        let m = Scrape::parse(&self.metrics()?);
        let mut routes = [0u64; 5];
        for (slot, route) in routes.iter_mut().zip(Route::ALL) {
            let series = format!("chronorank_serve_route_queries{{route=\"{}\"}}", route.name());
            *slot = m.get(&series)? as u64;
        }
        Ok(EngineCounters {
            queries: m.get("chronorank_serve_queries")? as u64,
            cache_hits: m.get("chronorank_serve_cache_hits")? as u64,
            cache_lookups: m.get("chronorank_serve_cache_lookups")? as u64,
            reads: m.get("chronorank_serve_io_reads")? as u64,
            index_bytes: m.get("chronorank_serve_index_bytes")? as u64,
            build_s: m.get("chronorank_serve_build_us")? / 1e6,
            routes,
        })
    }

    /// The live backend's counters, read off a METRICS scrape. `segments`
    /// is not exported and stays 0; the two histograms are process-wide,
    /// so callers take `build_s` as a difference of two scrapes.
    pub fn live_counters(&mut self) -> Res<LiveCounters> {
        let m = Scrape::parse(&self.metrics()?);
        let g = |name: &str| m.get(&format!("chronorank_live_{name}"));
        Ok(LiveCounters {
            batches: g("batches")? as u64,
            queries: g("queries")? as u64,
            rebuilds: g("rebuilds")? as u64,
            rebuilds_in_flight: g("rebuilds_in_flight")? as u64,
            build_s: g("rebuild_us_sum")? / 1e6,
            swap_pause_max_us: g("swap_pause_us_max")? as u64,
            queries_during_rebuild: g("queries_during_rebuild")? as u64,
            tail_segments: g("tail_segments")? as u64,
            cache_invalidations: g("cache_invalidations")? as u64,
            wal_writes: g("wal_writes")? as u64,
            index_reads: g("index_reads")? as u64,
            index_bytes: g("index_bytes")? as u64,
            preloaded_shards: g("preloaded_shards")? as u64,
            segments: 0,
        })
    }
}

/// A parsed text exposition: `series → value`.
struct Scrape(std::collections::HashMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Self {
        let series = text.lines().filter(|l| !l.starts_with('#')).filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        });
        Self(series.collect())
    }

    fn get(&self, series: &str) -> Res<f64> {
        self.0.get(series).copied().ok_or_else(|| format!("METRICS scrape lacks {series}"))
    }
}

/// The four frames of one TOPK exchange, encoded: what the client and the
/// server each put on the wire.
pub fn encode_exchange(q: &Query, reply: &Answer) -> Res<(Vec<u8>, Vec<u8>)> {
    let req = TopKRequest(q.serve()).encode().map_err(err)?;
    let resp = TopKResponse {
        topk: TopK::from_ranked(reply.clone()),
        route: Route::Exact3,
        eps_used: None,
        appends_applied: 0,
    }
    .encode()
    .map_err(err)?;
    Ok((Frame::new(OpCode::TopK, 1, req).encode(), Frame::new(OpCode::TopKOk, 1, resp).encode()))
}

/// Decode both frames of one TOPK exchange through the streaming
/// `Decoder`; returns the reply's length as a checksum.
pub fn decode_exchange(request: &[u8], reply: &[u8]) -> Res<usize> {
    let mut dec = Decoder::new();
    dec.feed(request);
    let frame = dec.next_frame().map_err(err)?.ok_or("request frame incomplete")?;
    TopKRequest::decode(&frame.payload).map_err(err)?;
    dec.feed(reply);
    let frame = dec.next_frame().map_err(err)?.ok_or("reply frame incomplete")?;
    Ok(TopKResponse::decode(&frame.payload).map_err(err)?.topk.len())
}

// ---------------------------------------------------------------------------
// Curve, storage and index probes
// ---------------------------------------------------------------------------

/// `ColumnarTail`: structure-of-arrays breakpoint columns.
pub struct Columnar(ColumnarTail);

impl Columnar {
    /// `integral_multi` over every object and window; returns a checksum.
    pub fn integral_multi(&self, windows: &[(f64, f64)], out: &mut Vec<f64>) -> f64 {
        let ids: Vec<u32> = (0..self.0.num_objects() as u32).collect();
        self.0.integral_multi(&ids, windows, out);
        out.iter().sum()
    }

    /// `ColumnarTail::append` for one tick.
    pub fn append(&mut self, tick: &Tick) -> Res<()> {
        self.0.append(tick.object as usize, tick.t, tick.v).map(drop).map_err(err)
    }
}

/// A `PagedFile` on a memory device with its own buffer pool.
pub struct Pages(PagedFile);

impl Pages {
    /// `pages` zeroed blocks behind a pool of `frames`.
    pub fn mem(frames: usize, pages: u64) -> Res<Self> {
        let env = Env::mem(StoreConfig { block_size: BLOCK, pool_capacity: frames });
        let file = env.create_file("pages").map_err(err)?;
        file.allocate(pages).map_err(err)?;
        file.flush().map_err(err)?;
        Ok(Self(file))
    }

    pub fn read(&self, page: u64, buf: &mut [u8; BLOCK]) -> Res<()> {
        self.0.read(page, buf).map_err(err)
    }

    /// `(hits, misses)` since creation.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.0.cache_stats()
    }
}

/// A `WriteAheadLog` on a `FileDevice`.
pub struct Wal(WriteAheadLog);

impl Wal {
    pub fn create(path: &Path) -> Res<Self> {
        let device = FileDevice::create(path, BLOCK).map_err(err)?;
        WriteAheadLog::create(Box::new(device), IoCounter::new()).map(Self).map_err(err)
    }

    /// One group commit: append every tick as its own record, then sync.
    pub fn commit(&mut self, ticks: &[Tick]) -> Res<()> {
        for t in ticks {
            self.0.append(&t.encode()).map_err(err)?;
        }
        self.0.sync().map_err(err)
    }
}

fn scratch_file(name: &str) -> Res<PagedFile> {
    Env::mem(StoreConfig::default()).create_file(name).map_err(err)
}

/// A bulk-loaded B+-tree over keys `0..n` (8-byte payloads).
pub struct Btree(BPlusTree);

impl Btree {
    pub fn bulk_load(n: u64) -> Res<Self> {
        let mut loader = BulkLoader::new(scratch_file("btree")?, 8).map_err(err)?;
        for i in 0..n {
            loader.push(i as f64, &i.to_le_bytes()).map_err(err)?;
        }
        loader.finish().map(Self).map_err(err)
    }

    /// One `seek` against empty pools; returns the block reads it cost.
    pub fn cold_seek(&self, key: f64) -> Res<u64> {
        self.0.file().drop_cache().map_err(err)?;
        let io = self.0.file().io();
        io.reset();
        let cursor = self.0.seek(key).map_err(err)?;
        std::hint::black_box(cursor.valid());
        Ok(io.snapshot().reads)
    }
}

/// A bulk-loaded interval tree over `n` unit-spaced intervals of length
/// `len`.
pub struct Itree(IntervalTree);

impl Itree {
    pub fn bulk_load(n: u64, len: f64) -> Res<Self> {
        let mut loader = IntervalBulkLoader::new(scratch_file("itree")?, 8).map_err(err)?;
        for i in 0..n {
            loader.push(i as f64, i as f64 + len, &i.to_le_bytes()).map_err(err)?;
        }
        loader.finish().map(Self).map_err(err)
    }

    /// One stabbing query against empty pools: `(block reads, hits)`.
    pub fn cold_stab(&self, t: f64) -> Res<(u64, u64)> {
        self.0.file().drop_cache().map_err(err)?;
        let io = self.0.file().io();
        io.reset();
        let mut hits = 0u64;
        self.0.stab(t, &mut |_, _, _| hits += 1).map_err(err)?;
        Ok((io.snapshot().reads, hits))
    }
}

/// `ExternalSorter`: push `n` 32-byte records in a scrambled key order
/// under `budget_bytes`, merge them back, and return how many came out
/// in order.
pub fn external_sort(n: u64, budget_bytes: u64) -> Res<u64> {
    let key = |rec: &[u8]| f64::from_le_bytes(rec[..8].try_into().expect("8-byte key"));
    let mut sorter = ExternalSorter::with_byte_budget(scratch_file("sort")?, 32, budget_bytes, key)
        .map_err(err)?;
    let mut rec = [0u8; 32];
    for i in 0..n {
        // A fixed odd multiplier walks the keys in a scattered order.
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
        rec[..8].copy_from_slice(&(k as f64).to_le_bytes());
        sorter.push(&rec).map_err(err)?;
    }
    let mut stream = sorter.finish().map_err(err)?;
    let (mut last, mut ordered) = (f64::NEG_INFINITY, 0u64);
    while stream.next_into(&mut rec).map_err(err)? {
        let k = key(&rec);
        ordered += u64::from(k >= last);
        last = k;
    }
    Ok(ordered)
}

/// `FenceSpill`: push `n` leaf fences under a budget of `budget_entries`,
/// replay them, and return how many went through the scratch file.
pub fn fence_spill(n: u64, budget_entries: usize) -> Res<u64> {
    let mut spill = FenceSpill::budgeted(scratch_file("fences")?, budget_entries).map_err(err)?;
    for i in 0..n {
        spill.push(i as f64, i as f64, i).map_err(err)?;
    }
    let spilled = spill.spilled();
    let mut replay = spill.replay().map_err(err)?;
    let mut seen = 0u64;
    while replay.next().map_err(err)?.is_some() {
        seen += 1;
    }
    if seen != n {
        return Err(format!("fence replay returned {seen} of {n} entries"));
    }
    Ok(spilled)
}
