//! The serving engine: partition, build once, scatter to a worker pool
//! over shared snapshots, gather, merge.

use crate::config::ServeConfig;
use crate::obs::ServeObs;
use crate::panic_message;
use crate::planner::{merge_profiles, Planner, PlannerParams, Route};
use crate::query::ServeQuery;
use crate::report::{RouteStats, ServeReport};
use crate::shard::{Shard, ShardAnswer, ShardProbe};
use chronorank_core::{ObjectId, TemporalObject, TemporalSet, TopK};
use chronorank_obs::{
    elapsed_us, AttrValue, CacheOutcome, FlightRecorder, IoDelta, QueryTrace, Registry, ShardSpan,
    SpanId, SpanSink, TraceId,
};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A worker thread could not be spawned.
    Spawn(String),
    /// A shard failed to build its indexes.
    Build {
        /// Which shard failed.
        shard: usize,
        /// The underlying build error.
        message: String,
    },
    /// A worker failed to answer a query.
    Query(String),
    /// A worker thread died (channel closed).
    WorkerGone,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Spawn(e) => write!(f, "failed to spawn worker: {e}"),
            ServeError::Build { shard, message } => {
                write!(f, "shard {shard} failed to build: {message}")
            }
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::WorkerGone => write!(f, "a worker thread terminated unexpectedly"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What one executed query produced — the one shape both engines return
/// and the wire tier encodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The merged global top-k.
    pub topk: TopK,
    /// The route the planner chose for exactly this execution.
    pub route: Route,
    /// The ε the route achieved, stated against the mass snapshot that
    /// routed the query (`None` on exact routes).
    pub eps_used: Option<f64>,
}

/// Result of [`ServeEngine::run_stream`].
#[derive(Debug)]
pub struct StreamOutcome {
    /// One merged answer per input query, input order.
    pub answers: Vec<TopK>,
    /// Wall time for the whole (pipelined) stream.
    pub elapsed_secs: f64,
}

impl StreamOutcome {
    /// Stream throughput in queries per second.
    pub fn qps(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.answers.len() as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// One unit of pool work: one shard's view of one window
/// ([`ShardProbe::answer_batch`]: probe-identical queries share one index
/// probe). The window is `Arc`-shared across the per-shard tasks.
struct Task {
    shard: Arc<dyn ShardProbe>,
    /// Index of `shard` within the engine (trace attribution).
    shard_idx: usize,
    /// Index of the window within its scatter.
    window_idx: usize,
    window: Arc<[(ServeQuery, Route)]>,
    reply: Sender<TaskReply>,
}

/// One shard's answers to one window. Wall-clock and reads are the
/// *window's* (dedup makes per-query probes fictional inside one).
struct TaskReply {
    window: usize,
    shard: usize,
    /// Per query of the window: the shard-local answer, and `Some(hit)`
    /// when the shard's result cache was consulted.
    results: Vec<(ShardAnswer, Option<bool>)>,
    /// Window wall time (µs) measured on the worker thread.
    elapsed_us: u64,
    /// Block reads the window performed (thread-attributed).
    reads: u64,
}

/// A fixed set of worker threads draining one shared task queue, and the
/// one scatter–gather both engines run on it
/// ([`WorkerPool::scatter_gather`]). Workers hold no state of their own —
/// every task carries the `Arc` of the shard it probes, so any worker can
/// serve any shard at any time.
pub struct WorkerPool {
    task_tx: Option<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
    pub(crate) obs: ServeObs,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one). Route counters, latency
    /// histograms and the slow-query recorder attach to `registry`; a
    /// [`Registry::noop`] leaves only the span tree of a traced query.
    pub fn new(workers: usize, registry: &Registry) -> Result<Self, ServeError> {
        let (task_tx, task_rx) = channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers.max(1) {
            let rx = Arc::clone(&task_rx);
            let handle = std::thread::Builder::new()
                .name(format!("chronorank-serve-{w}"))
                .spawn(move || worker_main(&rx))
                .map_err(|e| ServeError::Spawn(e.to_string()))?;
            handles.push(handle);
        }
        Ok(Self { task_tx: Some(task_tx), handles, obs: ServeObs::attach(registry) })
    }

    /// The one scatter–gather, serve or live: submit every routed window
    /// to every shard up front (one task per (shard, window)), gather the
    /// replies in arrival order, then do each window's bookkeeping —
    /// metrics, the slow-query recorder, and with a `trace` context one
    /// `engine.query` span per query with the window's per-shard probes as
    /// `shard.probe` children (see [`ServeEngine::execute`]). Merged
    /// answers come back in input order, windows concatenated.
    pub fn scatter_gather<S: ShardProbe + 'static>(
        &self,
        shards: &[Arc<S>],
        windows: &[Arc<[(ServeQuery, Route)]>],
        trace: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<Vec<TopK>, ServeError> {
        /// A scattered window awaiting its shards.
        struct Open<'a> {
            /// Index of the window's first query among all scattered.
            first: usize,
            routed: &'a [(ServeQuery, Route)],
            /// One span per shard reply so far.
            spans: Vec<ShardSpan>,
            /// Per query, the shards' cache outcomes folded.
            caches: Vec<CacheOutcome>,
            /// The wall time this window added to its caller's wait: from
            /// the previous window's completion (the scatter's start for
            /// the first) to its own last reply.
            total_us: u64,
        }
        let t0 = Instant::now();
        let w = shards.len();
        let mut gather = Gather::new(w);
        let mut open: Vec<Open> = Vec::with_capacity(windows.len());
        let task_tx = self.task_tx.as_ref().expect("pool sender lives until drop");
        let (reply_tx, reply_rx) = channel();
        for (window_idx, routed) in windows.iter().enumerate() {
            let first = gather.register(routed.iter().map(|(q, _)| q.k));
            routed.iter().for_each(|(_, route)| self.obs.route_decisions[route.idx()].inc());
            if !routed.is_empty() {
                for (shard_idx, shard) in shards.iter().enumerate() {
                    let task = Task {
                        shard: Arc::clone(shard) as Arc<dyn ShardProbe>,
                        shard_idx,
                        window_idx,
                        window: Arc::clone(routed),
                        reply: reply_tx.clone(),
                    };
                    task_tx.send(task).map_err(|_| ServeError::WorkerGone)?;
                }
            }
            open.push(Open {
                first,
                caches: vec![CacheOutcome::Bypass; routed.len()],
                routed,
                spans: Vec::with_capacity(w),
                total_us: 0,
            });
        }
        drop(reply_tx);
        let mut completed_us = 0;
        while gather.owed() > 0 {
            let reply = reply_rx.recv().map_err(|_| ServeError::WorkerGone)?;
            let win = &mut open[reply.window];
            win.spans.push(ShardSpan {
                shard: reply.shard,
                elapsed_us: reply.elapsed_us,
                reads: reply.reads,
                cache_hit: reply.results.iter().all(|(_, cache)| *cache == Some(true)),
            });
            for (j, (result, cache)) in reply.results.into_iter().enumerate() {
                if let Some(hit) = cache {
                    win.caches[j] = win.caches[j].fold(hit);
                    self.obs.shard_cache(hit);
                }
                gather.absorb(win.first + j, reply.shard, result);
            }
            if win.spans.len() == w {
                let now_us = elapsed_us(t0);
                win.total_us = now_us - completed_us;
                completed_us = now_us;
            }
        }
        let tops = gather.finish().map_err(ServeError::Query)?;
        for win in &mut open {
            win.spans.sort_by_key(|s| s.shard);
            let slow = self.obs.recorder.qualifies(win.total_us);
            let reads = win.spans.iter().map(|s| s.reads).sum();
            for ((q, route), cache) in win.routed.iter().zip(&win.caches) {
                self.obs.route_latency_us[route.idx()].record(win.total_us);
                if slow {
                    self.obs.recorder.record(QueryTrace {
                        route: route.name(),
                        t1: q.t1,
                        t2: q.t2,
                        k: q.k,
                        total_us: win.total_us,
                        cache: *cache,
                        io: IoDelta { reads, ..Default::default() },
                        shards: win.spans.clone(),
                    });
                }
                if let (Some((trace, parent)), false) = (trace, sink.is_noop()) {
                    // Every span is emitted from measurements already taken,
                    // against one hoisted clock read — no second clock pair
                    // on the hot path. Probes go first, parented on a
                    // pre-minted id; drain order is by sequence, tree shape
                    // is by parent links.
                    let engine_span = SpanId::next();
                    let end_us = sink.now_us();
                    for s in &win.spans {
                        sink.emit_at(
                            SpanId::next(),
                            trace,
                            Some(engine_span),
                            "shard.probe",
                            end_us,
                            s.elapsed_us,
                            [
                                ("shard", AttrValue::U64(s.shard as u64)),
                                ("reads", AttrValue::U64(s.reads)),
                                ("cache_hit", AttrValue::Bool(s.cache_hit)),
                            ],
                        );
                    }
                    sink.emit_at(
                        engine_span,
                        trace,
                        (parent.0 != 0).then_some(parent),
                        "engine.query",
                        end_us,
                        win.total_us,
                        [
                            ("route", AttrValue::Sym(route.name())),
                            ("k", AttrValue::U64(q.k as u64)),
                            ("cache", AttrValue::Sym(cache.name())),
                            ("shards", AttrValue::U64(w as u64)),
                        ],
                    );
                }
            }
        }
        Ok(tops)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue is the shutdown signal; workers drain and exit.
        self.task_tx.take();
        for handle in self.handles.drain(..) {
            handle.join().ok();
        }
    }
}

/// Thread body of one pool worker. Panic-safe: a panicking probe becomes
/// an `Err` reply, so the gathering caller is never left short.
fn worker_main(task_rx: &Mutex<Receiver<Task>>) {
    loop {
        // Holding the lock while blocked in `recv` is the hand-off: idle
        // siblings queue on the mutex and take the next task in turn.
        let task = {
            let rx = task_rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match rx.recv() {
                Ok(task) => task,
                Err(_) => return, // queue closed: engine is shutting down
            }
        };
        let t0 = Instant::now();
        let reads_before = chronorank_storage::IoCounter::thread_reads();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            task.shard.answer_batch(&task.window)
        }));
        let results = outcome.unwrap_or_else(|payload| {
            let msg = format!("query panicked: {}", panic_message(&*payload));
            task.window.iter().map(|_| (Err(msg.clone()), None)).collect()
        });
        // A dropped receiver means the window's caller is gone; fine.
        task.reply
            .send(TaskReply {
                window: task.window_idx,
                shard: task.shard_idx,
                results,
                elapsed_us: elapsed_us(t0),
                reads: chronorank_storage::IoCounter::thread_reads() - reads_before,
            })
            .ok();
    }
}

/// Coordinator-side counters behind one mutex (locked once per query or
/// stream, off the scatter-gather hot path).
struct Served {
    routes: [RouteStats; 5],
    queries: u64,
    elapsed_secs: f64,
}

/// The sharded, cost-routed serving engine (see crate docs).
///
/// Data is partitioned once into immutable [`Arc`]-published shard
/// snapshots; a pool of worker threads answers every query's per-shard
/// parts in parallel and the shard-local top-k lists are k-way merged
/// into the global answer. All query methods take `&self` — the engine
/// itself is `Send + Sync`, so any number of caller threads (e.g. the
/// network tier's engine workers) can query one engine concurrently.
pub struct ServeEngine {
    shards: Vec<Arc<Shard>>,
    pool: WorkerPool,
    planner: Planner,
    domain: (f64, f64),
    served: Mutex<Served>,
    index_bytes: u64,
    build_secs: f64,
}

impl ServeEngine {
    /// Partition `set` across `config.workers` shards (round-robin by
    /// object id), build every shard's indexes **concurrently on build
    /// threads**, and serve them with a same-sized worker pool.
    pub fn new(set: &TemporalSet, config: ServeConfig) -> Result<Self, ServeError> {
        let t0 = Instant::now();
        let w = config.workers.clamp(1, set.num_objects());
        let parts = partition(set, w);
        let built: Vec<Result<Shard, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|(subset, global_ids)| {
                    let config = &config;
                    scope.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            Shard::build(&subset, global_ids, config)
                        }))
                        .map_err(|p| format!("build panicked: {}", panic_message(&*p)))
                        .and_then(|r| r.map_err(|e| e.to_string()))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("build threads do not panic")).collect()
        });
        let mut shards = Vec::with_capacity(w);
        for (shard, outcome) in built.into_iter().enumerate() {
            match outcome {
                Ok(s) => shards.push(Arc::new(s)),
                Err(message) => return Err(ServeError::Build { shard, message }),
            }
        }
        let facts: Vec<_> = shards.iter().map(|s| s.facts()).collect();
        let t_min = facts.iter().map(|f| f.t_min).fold(f64::INFINITY, f64::min);
        let t_max = facts.iter().map(|f| f.t_max).fold(f64::NEG_INFINITY, f64::max);
        let planner = Planner::new(
            PlannerParams {
                shard_m: facts.iter().map(|f| f.m).max().unwrap_or(0),
                shard_n: facts.iter().map(|f| f.n).max().unwrap_or(0),
                block: config.store.block_size as u64,
                r: config.approx.r as u64,
                span: (t_max - t_min).max(0.0),
            },
            merge_profiles(&shards.iter().map(|s| s.built().profiles()).collect::<Vec<_>>()),
        );
        Ok(Self {
            index_bytes: shards.iter().map(|s| s.built().size_bytes).sum(),
            shards,
            pool: WorkerPool::new(w, Registry::global())?,
            planner,
            domain: (t_min, t_max),
            served: Mutex::new(Served {
                routes: [RouteStats::default(); 5],
                queries: 0,
                elapsed_secs: 0.0,
            }),
            build_secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Re-attach this engine's instrumentation to `registry` — a private
    /// registry for isolated measurements, or [`Registry::noop`] for an
    /// uninstrumented engine. Counters restart at the
    /// new registry's values; the flight recorder is replaced too.
    pub fn set_registry(&mut self, registry: &Registry) {
        self.pool.obs = ServeObs::attach(registry);
    }

    /// The engine's slow-query flight recorder (no-op when attached to a
    /// no-op registry).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.pool.obs.recorder
    }

    /// Re-arm the slow-query trace threshold (µs; `0` traces everything).
    pub fn set_slow_query_threshold_us(&self, us: u64) {
        self.pool.obs.recorder.set_threshold_us(us);
    }

    /// Number of shard partitions.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The served data's time domain `(t_min, t_max)` — what remote
    /// clients need to form meaningful query intervals.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// The planner's routing decision for `q` (without executing it).
    pub fn route_for(&self, q: &ServeQuery) -> Route {
        self.planner.route(q)
    }

    /// The engine's router (its merged worst-case [`MethodProfile`]s are
    /// how serving layers above — the network tier — learn the achieved ε
    /// behind each route they answer on).
    ///
    /// [`MethodProfile`]: chronorank_core::MethodProfile
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Answer one window of queries — the engine's one query body. Every
    /// query is routed on its own ([`Planner::route`]), each shard gets the
    /// window as **one** pool task and answers probe-identical queries
    /// (same [`crate::ProbeKey`]) with one shared probe, and the per-shard
    /// lists are k-way merged per query. Answers are bit-identical to
    /// executing every query in a window of its own (the window agreement
    /// suite pins this): a window buys probe and scatter amortization, not
    /// approximation. `&self`: concurrent callers each gather on a private
    /// reply channel, so answers can never cross.
    ///
    /// With a `trace` context `(trace, parent)` every query gets an
    /// `engine.query` span under `parent` with the window's per-shard
    /// probes as `shard.probe` children, so a wire query's tree reaches
    /// from the remote client into the shards; without one, or with a noop
    /// `sink`, tracing costs a branch. Metrics are per query whatever the
    /// window: `n` queries add `n` route-latency samples (each the
    /// window's wall time — what its caller waited) and `n` served
    /// queries, and a window slow enough for the flight recorder leaves one
    /// [`QueryTrace`] per query carrying the window's per-shard spans.
    /// (In a pipelined stream a window's wall time runs from the previous
    /// window's completion: what it added to the stream's wait.)
    pub fn execute(
        &self,
        window: &[ServeQuery],
        trace: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<Vec<Answer>, ServeError> {
        self.execute_windows(&[window], trace, sink)
    }

    /// Answer one query: a window of one.
    pub fn query(&self, q: ServeQuery) -> Result<TopK, ServeError> {
        self.query_routed(q).map(|(top, _)| top)
    }

    /// [`ServeEngine::query`], also returning the route the planner chose
    /// for exactly this execution: a traced query with the noop sink.
    pub fn query_routed(&self, q: ServeQuery) -> Result<(TopK, Route), ServeError> {
        self.query_spanned(q, TraceId(0), SpanId(0), &SpanSink::noop())
    }

    /// [`ServeEngine::query_routed`] joined into the trace `trace` under
    /// `parent` (see [`ServeEngine::execute`]).
    pub fn query_spanned(
        &self,
        q: ServeQuery,
        trace: TraceId,
        parent: SpanId,
        sink: &SpanSink,
    ) -> Result<(TopK, Route), ServeError> {
        let answers = self.execute(&[q], Some((trace, parent)), sink)?;
        Ok(answers.into_iter().map(|a| (a.topk, a.route)).next().expect("one answer per query"))
    }

    /// Answer a whole query stream, pipelined: windows of one, every
    /// per-shard task queued up front so the pool drains them in parallel
    /// and the wall time measures serving throughput rather than
    /// per-query round trips.
    pub fn run_stream(&self, queries: &[ServeQuery]) -> Result<StreamOutcome, ServeError> {
        let t0 = Instant::now();
        let windows: Vec<&[ServeQuery]> = queries.chunks(1).collect();
        let answers = self.execute_windows(&windows, None, &SpanSink::noop())?;
        Ok(StreamOutcome {
            answers: answers.into_iter().map(|a| a.topk).collect(),
            elapsed_secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Route every window, run them through the pool's one
    /// [`WorkerPool::scatter_gather`], and state each answer's route and
    /// ε. Answers come back in input order, windows concatenated.
    fn execute_windows(
        &self,
        windows: &[&[ServeQuery]],
        trace: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<Vec<Answer>, ServeError> {
        let t0 = Instant::now();
        let routed: Vec<Arc<[(ServeQuery, Route)]>> = windows
            .iter()
            .map(|queries| queries.iter().map(|q| (*q, self.planner.route(q))).collect())
            .collect();
        let tops = self.pool.scatter_gather(&self.shards, &routed, trace, sink)?;
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let answers: Vec<Answer> = tops
            .into_iter()
            .zip(routed.iter().flat_map(|window| window.iter()))
            .map(|(topk, (_, route))| Answer {
                topk,
                route: *route,
                eps_used: self.planner.profile(*route).and_then(|p| p.eps),
            })
            .collect();
        let per_query = elapsed_secs / answers.len().max(1) as f64;
        let mut served = self.served.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for a in &answers {
            served.routes[a.route.idx()].queries += 1;
            served.routes[a.route.idx()].secs += per_query;
        }
        served.queries += answers.len() as u64;
        served.elapsed_secs += elapsed_secs;
        Ok(answers)
    }

    /// Mirror the current [`ServeReport`] into this engine's registry as
    /// gauges, so the wire `METRICS` op is the one scrape point for the
    /// numbers [`ServeEngine::report`] exposes in-process (the report
    /// stays the thin programmatic view). Cold path: registration is
    /// idempotent and only this call touches the registry mutex.
    pub fn sync_obs(&self) {
        let registry = &self.pool.obs.registry;
        if registry.is_noop() {
            return;
        }
        let report = self.report();
        let g = |name: &str, help: &str, v: u64| registry.gauge(name, help).set_u64(v);
        g("chronorank_serve_workers", "serve shard count", report.workers as u64);
        g("chronorank_serve_queries", "queries served so far", report.queries);
        g(
            "chronorank_serve_busy_us",
            "cumulative query wall time, microseconds",
            (report.elapsed_secs * 1e6) as u64,
        );
        g("chronorank_serve_cache_hits", "shard result-cache hits", report.cache_hits);
        g("chronorank_serve_cache_lookups", "shard result-cache lookups", report.cache_lookups);
        g("chronorank_serve_index_bytes", "bytes across all shard indexes", report.index_bytes);
        g(
            "chronorank_serve_build_us",
            "wall time the engine spent building, microseconds",
            (report.build_secs * 1e6) as u64,
        );
        for (stage, us) in report.build_stages.stage_us() {
            registry
                .gauge_with(
                    "chronorank_serve_build_stage_us",
                    "shard build time per stage, summed over shards, microseconds",
                    &[("stage", stage)],
                )
                .set_u64(us);
        }
        g(
            "chronorank_serve_build_b2_sweeps",
            "sweeps the BREAKPOINTS2 count fit ran, summed over shards",
            report.build_stages.b2_sweeps,
        );
        g("chronorank_serve_io_reads", "block reads across all shards", report.io.reads);
        g("chronorank_serve_io_writes", "block writes across all shards", report.io.writes);
        let route_bytes: Vec<_> = self.shards.iter().map(|s| s.built().route_bytes()).collect();
        for route in Route::ALL {
            let stats = report.routes[route.idx()];
            registry
                .gauge_with(
                    "chronorank_serve_route_queries",
                    "queries served per route",
                    &[("route", route.name())],
                )
                .set_u64(stats.queries);
            registry
                .gauge_with(
                    "chronorank_serve_route_busy_us",
                    "cumulative wall time per route, microseconds",
                    &[("route", route.name())],
                )
                .set_u64((stats.secs * 1e6) as u64);
            registry
                .gauge_with(
                    "chronorank_serve_route_index_bytes",
                    "bytes of the files each route reads, summed over shards (a shared file counts for every route using it: EXACT1 is the EXACT3 tree)",
                    &[("route", route.name())],
                )
                .set_u64(route_bytes.iter().map(|b| b[route.idx()]).sum());
        }
    }

    /// A snapshot of everything served so far. Cache and IO counters are
    /// read straight off the shared shards.
    pub fn report(&self) -> ServeReport {
        let served = self.served.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (cache_hits, cache_lookups) = self
            .shards
            .iter()
            .map(|s| s.cache_counters())
            .fold((0, 0), |(h, l), (sh, sl)| (h + sh, l + sl));
        ServeReport {
            workers: self.shards.len(),
            queries: served.queries,
            elapsed_secs: served.elapsed_secs,
            routes: served.routes,
            cache_hits,
            cache_lookups,
            io: self.shards.iter().map(|s| s.built().io_total()).sum(),
            index_bytes: self.index_bytes,
            build_secs: self.build_secs,
            build_stages: self.shards.iter().map(|s| s.built().stages).sum(),
        }
    }
}

/// Round-robin object partition: shard `s` holds every object with
/// `id % w == s`, re-numbered densely (`local = id / w`), with the
/// local → global id map. Public because other sharded layers (the live
/// ingest engine) must partition with *identical* arithmetic — their
/// global↔local id translation assumes exactly this scheme.
pub fn partition(set: &TemporalSet, w: usize) -> Vec<(TemporalSet, Vec<ObjectId>)> {
    let mut objects: Vec<Vec<TemporalObject>> = vec![Vec::new(); w];
    let mut global_ids: Vec<Vec<ObjectId>> = vec![Vec::new(); w];
    for o in set.objects() {
        let s = o.id as usize % w;
        let local = objects[s].len() as ObjectId;
        objects[s].push(TemporalObject { id: local, curve: o.curve.clone() });
        global_ids[s].push(o.id);
    }
    objects
        .into_iter()
        .zip(global_ids)
        .map(|(objs, ids)| {
            let subset =
                TemporalSet::from_objects(objs).expect("w ≤ m guarantees every shard is non-empty");
            (subset, ids)
        })
        .collect()
}

/// Item of the k-way merge heap: best-first (highest score, then smallest
/// id — the same deterministic order every method uses).
struct Best(f64, ObjectId, usize);

impl PartialEq for Best {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Best {}
impl PartialOrd for Best {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Best {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(other.1.cmp(&self.1))
    }
}

/// K-way merge of per-shard ranked lists (each descending score, ties by
/// ascending id) into the global top-`k`. Shards partition the objects, so
/// no deduplication is needed, and the (score, id) order is total, so the
/// result is identical whatever order the lists were gathered in. Public
/// so other sharded layers (the live ingest engine) can gather with
/// identical ordering semantics.
pub fn merge_ranked(lists: &[Vec<(ObjectId, f64)>], k: usize) -> TopK {
    let mut heap = std::collections::BinaryHeap::with_capacity(lists.len());
    let mut cursors = vec![0usize; lists.len()];
    for (s, list) in lists.iter().enumerate() {
        if let Some(&(id, score)) = list.first() {
            heap.push(Best(score, id, s));
        }
    }
    let mut merged = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while merged.len() < k {
        let Some(Best(score, id, s)) = heap.pop() else { break };
        merged.push((id, score));
        cursors[s] += 1;
        if let Some(&(nid, nscore)) = lists[s].get(cursors[s]) {
            heap.push(Best(nscore, nid, s));
        }
    }
    TopK::from_ranked(merged)
}

/// The one gather behind every scatter, serve or live: register each
/// scattered query's `k`, absorb the shards' lists in whatever order they
/// arrive, and a query is merged ([`merge_ranked`]) the moment its `W`-th
/// list lands. Errors are reported deterministically — the one from the
/// lowest `(query, shard)` — and only by [`Gather::finish`], so a caller
/// always drains every reply it is [`Gather::owed`] first.
#[derive(Default)]
pub struct Gather {
    w: usize,
    /// `k` of each registered query.
    ks: Vec<usize>,
    /// Per query, the lists absorbed so far (emptied once merged).
    partial: Vec<Vec<Vec<(ObjectId, f64)>>>,
    answers: Vec<Option<TopK>>,
    owed: usize,
    first_err: Option<((usize, usize), String)>,
}

impl Gather {
    /// A gather over `w` shards with nothing registered yet.
    pub fn new(w: usize) -> Self {
        Self { w, ..Self::default() }
    }

    /// Register one scattered window by its queries' `k`s: they take the
    /// next indexes — the first is returned — and owe one list per shard
    /// each.
    pub fn register(&mut self, ks: impl IntoIterator<Item = usize>) -> usize {
        let first = self.ks.len();
        self.ks.extend(ks);
        self.partial.resize_with(self.ks.len(), || Vec::with_capacity(self.w));
        self.answers.resize_with(self.ks.len(), || None);
        self.owed += (self.ks.len() - first) * self.w;
        first
    }

    /// Shard answers still outstanding across every registered query.
    pub fn owed(&self) -> usize {
        self.owed
    }

    /// Fold in `shard`'s answer to query `query`.
    pub fn absorb(&mut self, query: usize, shard: usize, answer: ShardAnswer) {
        self.owed -= 1;
        match answer {
            Ok(list) => {
                let lists = &mut self.partial[query];
                lists.push(list);
                if lists.len() == self.w {
                    self.answers[query] = Some(merge_ranked(lists, self.ks[query]));
                    *lists = Vec::new();
                }
            }
            Err(e) => {
                if self.first_err.as_ref().is_none_or(|(at, _)| (query, shard) < *at) {
                    self.first_err = Some(((query, shard), e));
                }
            }
        }
    }

    /// Every query's merged answer, registration order — or the error of
    /// the lowest `(query, shard)` that failed. Call once nothing is
    /// [`Gather::owed`].
    pub fn finish(self) -> Result<Vec<TopK>, String> {
        match self.first_err {
            Some((_, e)) => Err(e),
            None => Ok(self
                .answers
                .into_iter()
                .map(|a| a.expect("finish is called once every shard replied"))
                .collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_interleaves_and_breaks_ties_by_id() {
        let lists = vec![
            vec![(0u32, 9.0), (2, 5.0), (4, 1.0)],
            vec![(1u32, 9.0), (3, 5.0)],
            vec![(5u32, 7.0)],
        ];
        let top = merge_ranked(&lists, 4);
        assert_eq!(top.entries(), &[(0, 9.0), (1, 9.0), (5, 7.0), (2, 5.0)]);
    }

    #[test]
    fn merge_handles_short_and_empty_lists() {
        let lists = vec![vec![], vec![(7u32, 3.0)]];
        let top = merge_ranked(&lists, 5);
        assert_eq!(top.entries(), &[(7, 3.0)]);
        assert!(merge_ranked(&[], 3).is_empty());
        assert!(merge_ranked(&lists, 0).is_empty());
    }

    #[test]
    fn merge_equals_flat_sort() {
        // Cross-check the heap merge against the obvious oracle.
        let lists: Vec<Vec<(ObjectId, f64)>> = (0..4)
            .map(|s| {
                let mut l: Vec<(ObjectId, f64)> = (0u32..20)
                    .map(|i| (4 * i + s as u32, ((s * 31 + i as usize * 17) % 23) as f64))
                    .collect();
                l.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                l
            })
            .collect();
        let mut flat: Vec<(ObjectId, f64)> = lists.iter().flatten().copied().collect();
        flat.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        flat.truncate(7);
        assert_eq!(merge_ranked(&lists, 7).entries(), &flat[..]);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mut lists =
            vec![vec![(0u32, 9.0), (4, 1.0)], vec![(1u32, 8.0)], vec![(2u32, 9.0), (5, 0.5)]];
        let want = merge_ranked(&lists, 4);
        lists.reverse();
        assert_eq!(merge_ranked(&lists, 4).entries(), want.entries());
    }
    /// Three shards' lists for one query, and their merge.
    fn three_lists() -> Vec<Vec<(ObjectId, f64)>> {
        vec![vec![(0, 9.0), (3, 1.0)], vec![(1, 8.0), (4, 8.0)], vec![(2, 9.0), (5, 0.5)]]
    }

    #[test]
    fn gather_gives_one_answer_in_every_arrival_order() {
        let lists = three_lists();
        let want = merge_ranked(&lists, 4);
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut gather = Gather::new(3);
            assert_eq!(gather.register([4, 2]), 0);
            assert_eq!((gather.register([]), gather.owed()), (2, 6));
            for shard in order {
                // Two queries' replies interleaved, the second's reversed.
                gather.absorb(0, shard, Ok(lists[shard].clone()));
                gather.absorb(1, 2 - shard, Ok(lists[2 - shard].clone()));
            }
            assert_eq!(gather.owed(), 0);
            let tops = gather.finish().unwrap();
            assert_eq!(tops[0].entries(), want.entries(), "order {order:?}");
            assert_eq!(tops[1].entries(), &want.entries()[..2], "order {order:?}");
        }
    }

    #[test]
    fn gather_reports_the_lowest_query_then_shard_error_whatever_the_order() {
        let failures = [(1, 0, "q1 s0"), (0, 2, "q0 s2"), (0, 1, "q0 s1")];
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut gather = Gather::new(3);
            gather.register([4, 4]);
            for i in order {
                let (query, shard, msg) = failures[i];
                gather.absorb(query, shard, Err(msg.to_string()));
            }
            // The error is held back until every owed reply is drained.
            gather.absorb(0, 0, Ok(vec![(0, 1.0)]));
            gather.absorb(1, 1, Ok(vec![(1, 1.0)]));
            gather.absorb(1, 2, Ok(vec![(2, 1.0)]));
            assert_eq!(gather.owed(), 0);
            assert_eq!(gather.finish().unwrap_err(), "q0 s1", "order {order:?}");
        }
    }

    #[test]
    fn gather_merges_k_zero_to_empty_and_finishes_an_empty_window_without_waiting() {
        // Nothing registered: nothing owed, nothing to wait for.
        let gather = Gather::new(3);
        assert_eq!(gather.owed(), 0);
        assert!(gather.finish().unwrap().is_empty());
        // k = 0 merges to the empty answer whatever the shards list.
        let mut gather = Gather::new(2);
        gather.register([0]);
        gather.absorb(0, 1, Ok(vec![(1, 2.0)]));
        gather.absorb(0, 0, Ok(Vec::new()));
        assert_eq!(gather.owed(), 0);
        assert!(gather.finish().unwrap()[0].is_empty());
    }
}
