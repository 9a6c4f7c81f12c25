//! The engine body both serving engines share: partition, build once,
//! scatter to one worker per shard, gather, merge — and route, count and
//! answer in one [`Engine::execute`].

use crate::config::ServeConfig;
use crate::obs::{ServeObs, ShardGauges};
use crate::panic_message;
use crate::planner::{merge_profiles, Freshness, Planner, PlannerParams, Route};
use crate::query::ServeQuery;
use crate::report::{RouteStats, ServeReport};
use crate::shard::{Shard, ShardAnswer, ShardProbe};
use chronorank_core::{MethodProfile, ObjectId, TemporalObject, TemporalSet, TopK};
use chronorank_obs::{
    elapsed_us, AttrValue, CacheOutcome, FlightRecorder, IoDelta, QueryTrace, Registry, ShardSpan,
    SpanId, SpanSink, TraceId,
};
use std::array::from_fn;
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

/// One unit of pool work: one shard's view of the window
/// ([`ShardProbe::answer_batch`]: probe-identical queries share one index
/// probe). The window is `Arc`-shared across the per-shard jobs; the shard
/// is the one its worker owns.
struct Job {
    window: Arc<[(ServeQuery, Route)]>,
    reply: Sender<JobReply>,
}

/// One shard's answers to the window. Wall-clock and reads are the
/// *window's* (dedup makes per-query probes fictional inside one).
struct JobReply {
    shard: usize,
    /// Per query of the window: the shard's answer in global ids, and
    /// `Some(hit)` when the shard's result cache was consulted.
    results: Vec<(ShardAnswer, Option<bool>)>,
    /// Window wall time (µs) measured on the worker thread.
    elapsed_us: u64,
    /// Block reads the window performed (thread-attributed).
    reads: u64,
}

/// The shards of one engine, one worker thread per shard, and the one
/// scatter–gather both engines run on them ([`WorkerPool::scatter_gather`]).
/// Worker `i` drains a channel of its own and answers only shard `i`'s
/// windows, so no query passes through a lock the workers share. Appends,
/// installs and status reads call a shard directly ([`WorkerPool::shards`]).
pub struct WorkerPool<S> {
    shards: Vec<Arc<S>>,
    /// Worker `i`'s job channel; dropping it is worker `i`'s shutdown.
    jobs: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    pub(crate) obs: ServeObs,
}

impl<S: ShardProbe + 'static> WorkerPool<S> {
    /// Build shard `i` as `build(i, part)` for every part, all at once on
    /// scoped threads (a panic or error becomes [`ServeError::Build`]),
    /// then spawn worker `chronorank-serve-{i}` for each. Route counters,
    /// latency histograms and the slow-query recorder attach to
    /// `registry`; a [`Registry::noop`] leaves only the span tree of a
    /// traced query.
    pub fn boot<P: Send>(
        parts: Vec<P>,
        registry: &Registry,
        build: impl Fn(usize, P) -> Result<S, String> + Sync,
    ) -> Result<Self, ServeError> {
        let build = &build;
        let built: Vec<Result<S, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(i, part)| {
                    scope.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(i, part)))
                            .unwrap_or_else(|p| {
                                Err(format!("build panicked: {}", panic_message(&*p)))
                            })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("build threads do not panic")).collect()
        });
        let shards = built
            .into_iter()
            .enumerate()
            .map(|(shard, outcome)| {
                outcome.map(Arc::new).map_err(|message| ServeError::Build { shard, message })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut pool = Self {
            jobs: Vec::with_capacity(shards.len()),
            handles: Vec::with_capacity(shards.len()),
            shards,
            obs: ServeObs::attach(registry),
        };
        let w = pool.shards.len();
        for (i, shard) in pool.shards.iter().enumerate() {
            let (job_tx, job_rx) = channel();
            let shard = Arc::clone(shard);
            let handle = std::thread::Builder::new()
                .name(format!("chronorank-serve-{i}"))
                .spawn(move || worker_main(i, w, &*shard, job_rx))
                .map_err(|e| ServeError::Spawn(e.to_string()))?;
            pool.jobs.push(job_tx);
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// The shards, in partition order: what appends, installs, status
    /// reads and checkpoints call directly.
    pub fn shards(&self) -> &[Arc<S>] {
        &self.shards
    }

    /// The one scatter–gather, serve or live: send the routed window to
    /// every shard's worker as one job each, slot the `W` replies by shard
    /// as they arrive, merge each query's lists ([`merge_ranked`]), then do
    /// the window's bookkeeping — metrics, the slow-query recorder, and
    /// with a `trace` context one `engine.query` span per query with the
    /// per-shard probes as `shard.probe` children (see
    /// [`Engine::execute`]). Merged answers come back in input order.
    pub fn scatter_gather(
        &self,
        routed: &Arc<[(ServeQuery, Route)]>,
        trace: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<Vec<TopK>, ServeError> {
        if routed.is_empty() {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();
        let w = self.jobs.len();
        routed.iter().for_each(|(_, route)| self.obs.route_decisions[route.idx()].inc());
        let (reply_tx, reply_rx) = channel();
        for jobs in &self.jobs {
            let job = Job { window: Arc::clone(routed), reply: reply_tx.clone() };
            jobs.send(job).map_err(|_| ServeError::WorkerGone)?;
        }
        drop(reply_tx);
        let mut slots = vec![Vec::new(); w];
        let mut spans = Vec::with_capacity(w);
        let mut caches = vec![CacheOutcome::Bypass; routed.len()];
        for _ in 0..w {
            let reply = reply_rx.recv().map_err(|_| ServeError::WorkerGone)?;
            spans.push(ShardSpan {
                shard: reply.shard,
                elapsed_us: reply.elapsed_us,
                reads: reply.reads,
                cache_hit: reply.results.iter().all(|(_, cache)| *cache == Some(true)),
            });
            for (outcome, (_, cache)) in caches.iter_mut().zip(&reply.results) {
                if let Some(hit) = *cache {
                    *outcome = outcome.fold(hit);
                }
            }
            slots[reply.shard] = reply.results;
        }
        self.obs.cache_outcomes(&caches);
        let tops =
            merge_window(routed.iter().map(|(q, _)| q.k), slots).map_err(ServeError::Query)?;
        let total_us = elapsed_us(t0);
        spans.sort_by_key(|s| s.shard);
        let slow = self.obs.recorder.qualifies(total_us);
        let reads = spans.iter().map(|s| s.reads).sum();
        for ((q, route), cache) in routed.iter().zip(&caches) {
            self.obs.route_latency_us[route.idx()].record(total_us);
            if slow {
                self.obs.recorder.record(QueryTrace {
                    route: route.name(),
                    t1: q.t1,
                    t2: q.t2,
                    k: q.k,
                    total_us,
                    cache: *cache,
                    io: IoDelta { reads, ..Default::default() },
                    shards: spans.clone(),
                });
            }
            if let (Some((trace, parent)), false) = (trace, sink.is_noop()) {
                // Every span is emitted from measurements already taken,
                // against one hoisted clock read — no second clock pair on
                // the hot path. Probes go first, parented on a pre-minted
                // id; drain order is by sequence, tree shape is by parent
                // links.
                let engine_span = SpanId::next();
                let end_us = sink.now_us();
                for s in &spans {
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
                    total_us,
                    [
                        ("route", AttrValue::Sym(route.name())),
                        ("k", AttrValue::U64(q.k as u64)),
                        ("cache", AttrValue::Sym(cache.name())),
                        ("shards", AttrValue::U64(w as u64)),
                    ],
                );
            }
        }
        Ok(tops)
    }
}

impl<S> Drop for WorkerPool<S> {
    fn drop(&mut self) {
        // Closing a worker's channel is its shutdown signal; it drains and
        // exits, dropping its handle on the shard.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            handle.join().ok();
        }
    }
}

/// Thread body of worker `shard_idx` of `w`: answer `shard`'s part of
/// every window sent to it until the pool closes the channel, mapping the
/// shard's local ids to global ones ([`to_global`]) — the one place an
/// answer changes id space. Panic-safe: a panicking probe becomes an `Err`
/// reply, so the gathering caller is never left short.
fn worker_main<S: ShardProbe>(shard_idx: usize, w: usize, shard: &S, jobs: Receiver<Job>) {
    for job in jobs {
        let t0 = Instant::now();
        let reads_before = chronorank_storage::IoCounter::thread_reads();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.answer_batch(&job.window)
        }));
        let mut results = outcome.unwrap_or_else(|payload| {
            let msg = format!("query panicked: {}", panic_message(&*payload));
            job.window.iter().map(|_| (Err(msg.clone()), None)).collect()
        });
        for (id, _) in results.iter_mut().filter_map(|(a, _)| a.as_mut().ok()).flatten() {
            *id = to_global(shard_idx, *id, w);
        }
        // A dropped receiver means the window's caller is gone; fine.
        job.reply
            .send(JobReply {
                shard: shard_idx,
                results,
                elapsed_us: elapsed_us(t0),
                reads: chronorank_storage::IoCounter::thread_reads() - reads_before,
            })
            .ok();
    }
}

/// What an engine has answered, behind its one mutex (locked once per
/// window, off the scatter-gather hot path).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCounters {
    /// Queries and seconds per route, [`Route::ALL`] order.
    pub routes: [RouteStats; 5],
    /// Queries answered, and those answered while a build was pending.
    pub queries: u64,
    /// See [`QueryCounters::queries`].
    pub queries_during_rebuild: u64,
    /// Wall seconds across every window.
    pub elapsed_secs: f64,
}

/// The one engine body (see crate docs): a [`WorkerPool`] of shards `S`,
/// the [`Planner`] over their merged profiles, the time domain, the
/// [`Freshness`] that restates ε, and the [`QueryCounters`]. A
/// [`ServeEngine`] is one over immutable [`Shard`]s; `chronorank-live`'s
/// ingest engine owns one over its live shards, and moves the live mass
/// and the domain with every append ([`Engine::grow`]) and the plan with
/// every install ([`Engine::settle`]). Queries take `&self`: the engine is
/// `Send + Sync`, so any number of caller threads can query one engine.
pub struct Engine<S> {
    pool: WorkerPool<S>,
    planner: Planner,
    domain: (f64, f64),
    fresh: Freshness,
    building: bool,
    counters: Mutex<QueryCounters>,
    boot_secs: f64,
}

/// The read-only serving engine: an [`Engine`] over immutable shards.
pub type ServeEngine = Engine<Shard>;

/// The router over `shards` (their profiles merged worst-case) and their
/// masses, summed.
fn plan<S: ShardProbe>(shards: &[Arc<S>], params: PlannerParams) -> (Planner, Freshness) {
    let (profiles, masses): (Vec<_>, Vec<Freshness>) = shards.iter().map(|s| s.routing()).unzip();
    let built_mass = masses.iter().map(|f| f.built_mass).sum();
    let fresh = Freshness { built_mass, live_mass: masses.iter().map(|f| f.live_mass).sum() };
    (Planner::new(params, merge_profiles(&profiles)), fresh)
}

impl<S: ShardProbe + 'static> Engine<S> {
    /// The boot both engines share: [`partition`] `set` into one part per
    /// element of `per_shard`, plan over the parts
    /// ([`PlannerParams::of_partition`] with `block` and `r`), and build
    /// shard `i` as `build(i, (part, per_shard[i]))` ([`WorkerPool::boot`],
    /// metrics on `registry`).
    pub fn boot<P: Send>(
        set: &TemporalSet,
        per_shard: Vec<P>,
        (block, r): (usize, usize),
        registry: &Registry,
        build: impl Fn(usize, (TemporalSet, P)) -> Result<S, String> + Sync,
    ) -> Result<Self, ServeError> {
        let t0 = Instant::now();
        let parts = partition(set, per_shard.len());
        let (params, domain) = PlannerParams::of_partition(&parts, block, r);
        let pool = WorkerPool::boot(parts.into_iter().zip(per_shard).collect(), registry, build)?;
        let (planner, fresh) = plan(pool.shards(), params);
        let counters = Mutex::default();
        let boot_secs = t0.elapsed().as_secs_f64();
        Ok(Self { pool, planner, domain, fresh, building: false, counters, boot_secs })
    }

    /// Answer one window of queries — the one query body of both engines.
    /// Every query is routed from one snapshot
    /// ([`Planner::route_with_freshness`]), and each shard's worker gets
    /// the window as **one** job, answers probe-identical queries (same
    /// [`crate::ProbeKey`]) with one probe, and the lists are k-way merged
    /// per query ([`WorkerPool::scatter_gather`]): answers are
    /// bit-identical to windows of one. Each [`Answer`] carries its route
    /// and that route's ε restated from the same snapshot
    /// ([`chronorank_core::MethodProfile::revalidate`]: as built until the
    /// live mass outgrows the built mass); appends and installs take
    /// `&mut self`, so nothing moves it underneath.
    ///
    /// With a `trace` context `(trace, parent)` every query gets an
    /// `engine.query` span under `parent` with the per-shard probes as
    /// `shard.probe` children. `n` queries add `n` route-latency samples
    /// (each the window's wall time), and a window slow enough for the
    /// flight recorder leaves one [`QueryTrace`] per query.
    pub fn execute(
        &self,
        window: &[ServeQuery],
        trace: Option<(TraceId, SpanId)>,
        sink: &SpanSink,
    ) -> Result<Vec<Answer>, ServeError> {
        let t0 = Instant::now();
        let (planner, fresh) = (&self.planner, self.fresh);
        let routed: Arc<[(ServeQuery, Route)]> =
            window.iter().map(|q| (*q, planner.route_with_freshness(q, Some(fresh)))).collect();
        let tops = self.pool.scatter_gather(&routed, trace, sink)?;
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let per_query = elapsed_secs / tops.len().max(1) as f64;
        let mut counters = self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (_, route) in routed.iter() {
            counters.routes[route.idx()].queries += 1;
            counters.routes[route.idx()].secs += per_query;
        }
        counters.queries += tops.len() as u64;
        counters.queries_during_rebuild += if self.building { tops.len() as u64 } else { 0 };
        counters.elapsed_secs += elapsed_secs;
        drop(counters);
        let restated = |p: MethodProfile| p.revalidate(fresh.built_mass, fresh.live_mass).eps;
        let answer = |(topk, &(_, route)): (TopK, &(ServeQuery, Route))| Answer {
            topk,
            route,
            eps_used: planner.profile(route).and_then(restated),
        };
        Ok(tops.into_iter().zip(routed.iter()).map(answer).collect())
    }

    /// Answer one query: a window of one.
    pub fn query(&self, q: ServeQuery) -> Result<TopK, ServeError> {
        self.query_routed(q).map(|(top, _)| top)
    }

    /// [`Engine::query`], also returning the route the planner chose for
    /// exactly this execution: a traced query with the noop sink.
    pub fn query_routed(&self, q: ServeQuery) -> Result<(TopK, Route), ServeError> {
        self.query_spanned(q, TraceId(0), SpanId(0), &SpanSink::noop())
    }

    /// [`Engine::query_routed`] joined into the trace `trace` under
    /// `parent` (see [`Engine::execute`]).
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

    /// An install point: whether a build is still `building`, and, if a
    /// shard `installed` a new index, a re-plan over the shards' profiles.
    pub fn settle(&mut self, installed: bool, building: bool) {
        self.building = building;
        if installed {
            let (planner, fresh) = plan(self.pool.shards(), self.planner.params());
            (self.planner, self.fresh.built_mass) = (planner, fresh.built_mass);
        }
    }
}

impl<S> Engine<S> {
    /// One appended segment: `mass` more live mass; the domain reaches `t`.
    pub fn grow(&mut self, mass: f64, t: f64) {
        self.fresh.live_mass += mass;
        self.domain.1 = self.domain.1.max(t);
    }

    /// The shards, in partition order ([`WorkerPool::shards`]).
    pub fn shards(&self) -> &[Arc<S>] {
        &self.pool.shards
    }

    /// Number of shard partitions.
    pub fn workers(&self) -> usize {
        self.pool.shards.len()
    }

    /// The data's time domain `(t_min, t_max)`.
    pub fn domain(&self) -> (f64, f64) {
        self.domain
    }

    /// What the engine has answered so far.
    pub fn counters(&self) -> QueryCounters {
        *self.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The routing decision for `q` (without executing it).
    pub fn route_for(&self, q: &ServeQuery) -> Route {
        self.planner.route_with_freshness(q, Some(self.fresh))
    }

    /// Everything a routing decision reads, copied: the router and the §4
    /// [`Freshness`] its profiles are restated against (built and live
    /// mass are one number on a serve engine). One snapshot both routes a
    /// query and restates the ε its answer reports.
    pub fn routing_snapshot(&self) -> (Planner, Freshness) {
        (self.planner, self.fresh)
    }

    /// The engine's router (its merged worst-case [`MethodProfile`]s are
    /// how serving layers above learn the ε behind each route).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Re-attach the pool's instrumentation (and a new flight recorder) to
    /// `registry` — a private one for isolated measurements, or
    /// [`Registry::noop`].
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
}

impl Engine<Shard> {
    /// Partition `set` across `config.workers` shards (round-robin by
    /// object id), build every shard's indexes concurrently, and serve
    /// each on a worker of its own ([`Engine::boot`]).
    pub fn new(set: &TemporalSet, config: ServeConfig) -> Result<Self, ServeError> {
        let w = config.workers.clamp(1, set.num_objects());
        let plan = (config.store.block_size, config.approx.r);
        Self::boot(set, vec![(); w], plan, Registry::global(), |_, (subset, ())| {
            Shard::build(&subset, &config).map_err(|e| e.to_string())
        })
    }

    /// Mirror the current [`ServeReport`] into this engine's registry as
    /// gauges, so the wire `METRICS` op is the one scrape point for what
    /// [`Engine::report`] shows in-process. Cold path: only this call
    /// touches the registry mutex.
    pub fn sync_obs(&self) {
        let registry = &self.pool.obs.registry;
        if registry.is_noop() {
            return;
        }
        let r = self.report();
        let shards = self.shards();
        ShardGauges {
            workers: r.workers,
            queries: r.queries,
            cache: (r.cache_hits, r.cache_lookups),
            index_bytes: r.index_bytes,
            build_stages: r.build_stages,
            route_bytes: from_fn(|i| shards.iter().map(|s| s.built().route_bytes()[i]).sum()),
        }
        .sync(registry, "serve", "build");
        let g = |name: &str, help: &str, v: u64| registry.gauge(name, help).set_u64(v);
        let us = |secs: f64| (secs * 1e6) as u64;
        g(
            "chronorank_serve_busy_us",
            "cumulative query wall time, microseconds",
            us(r.elapsed_secs),
        );
        g(
            "chronorank_serve_build_us",
            "wall time the engine spent building, microseconds",
            us(r.build_secs),
        );
        g("chronorank_serve_io_reads", "block reads across all shards", r.io.reads);
        g("chronorank_serve_io_writes", "block writes across all shards", r.io.writes);
        let help = "cumulative wall time per route, microseconds";
        for (route, stats) in Route::ALL.iter().zip(r.routes) {
            let per = |name, help, v| {
                registry.gauge_with(name, help, &[("route", route.name())]).set_u64(v)
            };
            per("chronorank_serve_route_queries", "queries served per route", stats.queries);
            per("chronorank_serve_route_busy_us", help, us(stats.secs));
        }
    }

    /// A snapshot of everything served so far. Cache and IO counters are
    /// read straight off the shared shards.
    pub fn report(&self) -> ServeReport {
        let counters = self.counters();
        let shards = self.shards();
        let caches: Vec<_> = shards.iter().map(|s| s.cache_counters()).collect();
        ServeReport {
            workers: shards.len(),
            queries: counters.queries,
            elapsed_secs: counters.elapsed_secs,
            routes: counters.routes,
            cache_hits: caches.iter().map(|c| c.hits).sum(),
            cache_lookups: caches.iter().map(|c| c.lookups).sum(),
            io: shards.iter().map(|s| s.built().io_total()).sum(),
            index_bytes: shards.iter().map(|s| s.built().size_bytes).sum(),
            build_secs: self.boot_secs,
            build_stages: shards.iter().map(|s| s.built().stages).sum(),
        }
    }
}

/// Round-robin object partition: shard `s` holds every object with
/// `id % w == s`, re-numbered densely as `local = id / w` ([`to_local`];
/// [`to_global`] is the inverse). Both engines partition with it, and
/// every id that crosses a shard boundary — an answer leaving a pool
/// worker, an append entering a live shard — goes through those two
/// functions, so no shard keeps an id map. A part's curves share their
/// point columns with `set`'s, so partitioning costs `O(m)`, not `O(N)`.
pub fn partition(set: &TemporalSet, w: usize) -> Vec<TemporalSet> {
    let mut objects: Vec<Vec<TemporalObject>> = vec![Vec::new(); w];
    for o in set.objects() {
        let (shard, local) = to_local(o.id, w);
        objects[shard].push(TemporalObject { id: local, curve: o.curve.clone() });
    }
    objects
        .into_iter()
        .map(|objs| {
            TemporalSet::from_objects(objs).expect("w ≤ m guarantees every shard is non-empty")
        })
        .collect()
}

/// Where global object `id` lives under a `w`-way [`partition`]:
/// `(shard, local id)`.
pub fn to_local(id: ObjectId, w: usize) -> (usize, ObjectId) {
    (id as usize % w, id / w as ObjectId)
}

/// The global id of `shard`'s object `local` under a `w`-way
/// [`partition`]: `local · w + shard`.
pub fn to_global(shard: usize, local: ObjectId, w: usize) -> ObjectId {
    local * w as ObjectId + shard as ObjectId
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

/// The gather behind every scatter, serve or live: `slots[s]` is shard
/// `s`'s reply to one window of queries with the given `k`s — per query,
/// its ranked list and cache outcome — and each query's `W` lists are
/// k-way merged ([`merge_ranked`]). Replies sit in shard order whatever
/// order they arrived in, and the first error in (query, shard) order
/// wins, so arrival order cannot change the result.
fn merge_window(
    ks: impl Iterator<Item = usize>,
    slots: Vec<Vec<(ShardAnswer, Option<bool>)>>,
) -> Result<Vec<TopK>, String> {
    let mut shards: Vec<_> = slots.into_iter().map(Vec::into_iter).collect();
    let mut lists = Vec::with_capacity(shards.len());
    ks.map(|k| {
        lists.clear();
        for shard in &mut shards {
            let (answer, _) = shard.next().expect("every shard answers every query");
            lists.push(answer?);
        }
        Ok(merge_ranked(&lists, k))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_partition_shares_its_curves_columns_with_the_source() {
        let curve = |t0: f64| {
            chronorank_curve::PiecewiseLinear::from_points(&[(t0, 1.0), (t0 + 2.0, 3.0)]).unwrap()
        };
        let set = TemporalSet::from_curves((0..5).map(|i| curve(i as f64)).collect()).unwrap();
        let parts = partition(&set, 2);
        for o in set.objects() {
            let (shard, local) = to_local(o.id, 2);
            let part = &parts[shard].object(local).unwrap().curve;
            assert_eq!(part.times().as_ptr(), o.curve.times().as_ptr(), "object {}", o.id);
            assert_eq!(part.values().as_ptr(), o.curve.values().as_ptr(), "object {}", o.id);
        }
    }

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

    /// Slot `replies` (shard, that shard's answer per query) in arrival
    /// order, as [`WorkerPool::scatter_gather`] does, and fold the window.
    fn gather(
        ks: &[usize],
        replies: impl IntoIterator<Item = (usize, Vec<ShardAnswer>)>,
    ) -> Result<Vec<TopK>, String> {
        let mut slots = vec![Vec::new(); 3];
        for (shard, answers) in replies {
            slots[shard] = answers.into_iter().map(|a| (a, None)).collect();
        }
        merge_window(ks.iter().copied(), slots)
    }

    #[test]
    fn merge_window_gives_one_answer_in_every_arrival_order() {
        let lists = three_lists();
        let want = merge_ranked(&lists, 4);
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let replies = order.map(|s| (s, vec![Ok(lists[s].clone()), Ok(lists[s].clone())]));
            let tops = gather(&[4, 2], replies).unwrap();
            assert_eq!(tops[0].entries(), want.entries(), "order {order:?}");
            assert_eq!(tops[1].entries(), &want.entries()[..2], "order {order:?}");
        }
    }

    #[test]
    fn merge_window_reports_the_lowest_query_then_shard_error_whatever_the_order() {
        let err = |msg: &str| Err(msg.to_string());
        let replies = [
            (0, vec![Ok(vec![(0, 1.0)]), err("q1 s0")]),
            (1, vec![err("q0 s1"), Ok(vec![(1, 1.0)])]),
            (2, vec![err("q0 s2"), Ok(vec![(2, 1.0)])]),
        ];
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let arrived = order.map(|i| replies[i].clone());
            assert_eq!(gather(&[4, 4], arrived).unwrap_err(), "q0 s1", "order {order:?}");
        }
    }

    #[test]
    fn merge_window_merges_k_zero_to_empty() {
        let lists = three_lists();
        let replies = (0..3).map(|s| (s, vec![Ok(lists[s].clone())]));
        assert!(gather(&[0], replies).unwrap()[0].is_empty());
    }
}
