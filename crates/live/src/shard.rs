//! The ingest shard: one thread owning one partition's live state.
//!
//! A shard holds the *mutable* side of its partition — the live
//! [`TemporalSet`] (appends applied immediately), the per-object frozen
//! edge of the currently published generation, and the result cache — and
//! probes its frozen side directly: the published generation is an
//! immutable `Arc`-shared snapshot ([`crate::generation`]), so candidate
//! fetches are plain in-thread calls, not channel round trips.
//!
//! ## Query = frozen candidates ∪ tail, exactly rescored
//!
//! For `top-k(t1, t2, k)` the shard fetches the frozen index's top
//! `k + |touched| + slack` candidates (where *touched* are the objects
//! whose appended tail overlaps the interval), unions the touched objects
//! in, rescores every candidate **exactly** on the live curves, and ranks.
//! Any object missing from that candidate set is beaten by at least `k`
//! candidates (each non-touched object scores identically in the frozen
//! and live orders, and only touched objects can move), so exact routes
//! are exact-fresh at every point between rebuilds, and approximate
//! routes keep their frozen `ε·M_built` candidate guarantee with exact
//! scores on top.
//!
//! ## Staleness-audited caching
//!
//! Cacheable routes (APPX1/APPX2) answer over the *snapped* interval, so
//! answers are cached per `(B(t1), B(t2), k, route)`. An append whose new
//! segment starts before a cached entry's snapped right edge adds its mass
//! to the entry's staleness account; at lookup time the entry is served
//! only while `ε·M_built + staleness ≤ ε_query · M_live` — otherwise it is
//! invalidated and recomputed. Epoch swaps clear the cache outright.

use crate::config::LiveConfig;
use crate::generation::{generation_main, GenBuildSpec, GenParts, Generation};
use crate::obs::ShardObs;
use crate::report::PauseHistogram;
use chronorank_core::{AppendRecord, ObjectId, TemporalSet};
use chronorank_curve::{ColumnarTail, Segment};
use chronorank_serve::{
    panic_message, BuildStages, LruCache, ProbeKey, Route, RouteProfiles, ServeQuery, ShardAnswer,
};
use chronorank_storage::IoStats;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Coordinator (and generation builders) → shard messages.
pub(crate) enum ToShard {
    /// Apply a batch of already-durable appends (object ids are **local**).
    Apply(Vec<AppendRecord>),
    /// Answer one window of routed queries: queries sharing a probe key
    /// and tolerance probe the frozen generation once and share the
    /// rescored answer. One [`ShardReply`] goes back per window, on the
    /// sender of the call that scattered it — so concurrent callers can
    /// never receive each other's answers.
    Query {
        window: Arc<[(ServeQuery, Route)]>,
        reply: Sender<ShardReply>,
    },
    /// Checkpoint gather: reply with the installed frozen generation and
    /// its frozen edges. Doubles as the barrier — the FIFO mailbox means
    /// every apply sent before this message is applied by the reply.
    Checkpoint(Sender<ShardCheckpoint>),
    /// A generation build finished (success or failure). On success the
    /// payload is the finished, immediately shareable snapshot.
    GenReady {
        generation: u64,
        result: Result<Arc<Generation>, String>,
    },
    Shutdown,
}

/// The channel bundle one shard thread lives on.
pub(crate) struct ShardChannels {
    /// The mailbox (engine messages + generation-build announcements).
    pub rx: Receiver<ToShard>,
    /// Sender for the same mailbox, cloned into spawned builders.
    pub self_tx: Sender<ToShard>,
    /// One-shot build handshake back to the engine.
    pub build_tx: Sender<BuildOutcome>,
}

/// One shard's contribution to a checkpoint image: the installed frozen
/// generation (`None` only before bootstrap completes) plus the frozen
/// edges its snapshot was cut at.
pub(crate) struct ShardCheckpoint {
    pub shard: usize,
    pub gen: Option<Arc<Generation>>,
    pub frozen_end: Vec<f64>,
}

/// Shard → caller answers for one window.
pub(crate) struct ShardReply {
    pub shard: usize,
    /// Per query of the window: the shard-local top-k with **global**
    /// object ids, descending score.
    pub results: Vec<ShardAnswer>,
    /// Piggybacked live statistics (always current; cache hit/miss counts
    /// ride in here rather than per-reply flags).
    pub status: ShardStatus,
}

/// Everything the coordinator needs to know about a shard's live state,
/// piggybacked on every reply so planner freshness never goes stale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardStatus {
    /// Shard-local monotone stamp (one per status emitted). Concurrent
    /// `&self` queries gather on private channels, so two replies can
    /// reach the engine in either order — the stamp lets it keep only
    /// the newest view instead of regressing to a superseded one.
    pub seq: u64,
    pub generation: u64,
    pub built_mass: f64,
    pub tail_segments: u64,
    pub rebuild_in_flight: bool,
    pub io: IoStats,
    pub profiles: RouteProfiles,
    pub rebuilds: u64,
    pub build_secs: f64,
    pub build_stages: BuildStages,
    pub swap_pause: PauseHistogram,
    pub queries_during_rebuild: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_invalidations: u64,
    pub size_bytes: u64,
    pub route_bytes: [u64; 5],
    /// Heap bytes held by the columnar append log (tail columns + index
    /// lists).
    pub tail_bytes: u64,
    /// Objects with a non-empty appended tail.
    pub tail_objects: u64,
}

/// Shard → coordinator build handshake.
pub(crate) struct BuildOutcome {
    pub shard: usize,
    pub result: Result<ShardInfo, String>,
}

/// Per-shard facts for the planner.
pub(crate) struct ShardInfo {
    pub m: u64,
    pub n: u64,
    pub status: ShardStatus,
}

/// A cached snapped answer plus its staleness account.
struct Cached {
    /// Global-id answer, descending score.
    entries: Vec<(ObjectId, f64)>,
    /// Snapped right edge — appends starting before this time affect it.
    snap_t2: f64,
    /// Absolute mass appended (potentially) inside the snapped interval
    /// since this entry was computed. `Cell` so the apply path can charge
    /// it during a non-removing `retain` walk. (The cache is shard-thread
    /// private — mutable state stays single-owner; only the *frozen*
    /// generations are shared across threads.)
    stale: Cell<f64>,
}

/// The published generation plus its (already finished) builder thread,
/// joined at the next swap.
struct Installed {
    gen: Arc<Generation>,
    join: Option<JoinHandle<()>>,
}

/// A build in flight: the builder announces the finished `Arc` through
/// the shard's own mailbox and exits.
struct PendingGen {
    generation: u64,
    join: Option<JoinHandle<()>>,
    /// Per-object curve end at snapshot time (the new frozen edge).
    frozen_end: Vec<f64>,
    /// `applied` counter at snapshot time.
    stamp_applied: u64,
}

struct ShardState {
    shard: usize,
    config: LiveConfig,
    /// The live partition (local dense ids) in columnar form: epoch-frozen
    /// base columns plus the mutable append log. Appends land immediately;
    /// rescoring streams the shared `t`/`v` columns.
    live: ColumnarTail,
    /// `M` of the live partition, maintained incrementally with exactly
    /// the arithmetic [`TemporalSet::append_segment`] uses, so rebuild
    /// triggers and staleness budgets behave as the row-form set did.
    live_mass: f64,
    /// Local dense id → global id.
    global_ids: Vec<ObjectId>,
    /// Per-object frozen edge of the published generation.
    frozen_end: Vec<f64>,
    gen: Option<Installed>,
    pending: Option<PendingGen>,
    /// Staleness-audited result cache (snapped keys only, see module docs).
    cache: Option<LruCache<ProbeKey, Cached>>,
    /// Mailbox sender, cloned into every spawned generation build.
    self_tx: Sender<ToShard>,
    // --- counters ---
    applied: u64,
    gen_applied: u64,
    rebuilds: u64,
    build_secs: f64,
    build_stages: BuildStages,
    swap_pause: PauseHistogram,
    queries_during_rebuild: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_invalidations: u64,
    retired_io: IoStats,
    /// Monotone stamp for emitted [`ShardStatus`]es (see its `seq` doc).
    status_seq: u64,
    /// First unrecoverable error (reported on every later query).
    poisoned: Option<String>,
    /// Process-registry histograms this thread alone can feed.
    obs: ShardObs,
}

impl ShardState {
    fn new(
        shard: usize,
        subset: TemporalSet,
        global_ids: Vec<ObjectId>,
        config: LiveConfig,
        self_tx: Sender<ToShard>,
        obs: ShardObs,
    ) -> Self {
        let m = subset.num_objects();
        let cache = (config.cache_capacity > 0).then(|| LruCache::new(config.cache_capacity));
        Self {
            shard,
            config,
            live: subset.to_columnar(),
            live_mass: subset.total_mass(),
            global_ids,
            frozen_end: vec![f64::NEG_INFINITY; m],
            gen: None,
            pending: None,
            cache,
            self_tx,
            applied: 0,
            gen_applied: 0,
            rebuilds: 0,
            build_secs: 0.0,
            build_stages: BuildStages::default(),
            swap_pause: PauseHistogram::default(),
            queries_during_rebuild: 0,
            cache_hits: 0,
            cache_lookups: 0,
            cache_invalidations: 0,
            retired_io: IoStats::default(),
            status_seq: 0,
            poisoned: None,
            obs,
        }
    }

    /// Spawn a generation build over the current live state. The build
    /// runs entirely off this thread; `GenReady` arrives through the
    /// mailbox with the finished `Arc` and the builder exits.
    fn spawn_generation(&mut self, generation: u64) {
        // Materialize a row-form snapshot from the columns (the index
        // builders consume `TemporalSet`); point bits are copied verbatim.
        let snapshot = match TemporalSet::from_columnar(&self.live) {
            Ok(s) => s,
            Err(e) => {
                self.poisoned = Some(format!("generation snapshot: {e}"));
                return;
            }
        };
        let frozen_end = (0..self.live.num_objects()).map(|i| self.live.end_time(i)).collect();
        let spec = GenBuildSpec {
            methods: self.config.methods,
            approx: self.config.approx,
            store: self.config.store,
        };
        let ready_tx = self.self_tx.clone();
        let join = std::thread::Builder::new()
            .name(format!("chronorank-live-gen{}-{}", self.shard, generation))
            .spawn(move || generation_main(generation, snapshot, spec, ready_tx))
            .ok();
        if join.is_none() {
            self.poisoned = Some("failed to spawn generation build".into());
            return;
        }
        self.pending =
            Some(PendingGen { generation, join, frozen_end, stamp_applied: self.applied });
    }

    /// Epoch swap: install a finished generation. Everything here is the
    /// reader-visible pause — an `Arc` replacement plus bookkeeping — so
    /// it is measured into the histogram.
    fn install(&mut self, generation: u64, gen: Arc<Generation>) {
        let Some(pending) = self.pending.take() else { return };
        if pending.generation != generation {
            self.pending = Some(pending);
            return;
        }
        let t0 = Instant::now();
        if let Some(mut old) = self.gen.take() {
            self.retired_io += old.gen.built.io_total();
            if let Some(join) = old.join.take() {
                join.join().ok(); // builder exited after its announce
            }
        }
        self.frozen_end = pending.frozen_end;
        self.gen_applied = pending.stamp_applied;
        self.build_secs += gen.meta.build_secs;
        self.build_stages += gen.built.stages;
        self.obs.rebuild_us.record((gen.meta.build_secs * 1e6) as u64);
        self.gen = Some(Installed { gen, join: pending.join });
        // The epoch swap also compacts the columnar append log into the
        // contiguous base columns — the tail the new generation absorbed
        // no longer needs its gather indirection (a storage move only;
        // every point and every integral keeps its bits).
        self.live.freeze();
        if let Some(cache) = &mut self.cache {
            cache.clear(); // superseded frozen parts
        }
        if generation > 0 {
            self.rebuilds += 1;
            let pause_us = t0.elapsed().as_micros() as u64;
            self.swap_pause.record(pause_us);
            self.obs.swap_pause_us.record(pause_us);
        }
    }

    /// Apply one durable batch to the live state, charge staleness to the
    /// overlapped cache entries, and trigger the §4 rebuild policy.
    fn apply(&mut self, recs: &[AppendRecord]) {
        if recs.is_empty() {
            return;
        }
        let mass_before = self.live_mass;
        let mut batch_min_t0 = f64::INFINITY;
        for rec in recs {
            if rec.object as usize >= self.live.num_objects() {
                self.poisoned = Some(format!("apply: no such object: {}", rec.object));
                return;
            }
            // Columnar append; the returned previous endpoint feeds the
            // same incremental mass arithmetic `TemporalSet` uses.
            let (prev_t, prev_v) = match self.live.append(rec.object as usize, rec.t, rec.v) {
                Ok(prev) => prev,
                Err(e) => {
                    self.poisoned = Some(format!("apply: curve: {e}"));
                    return;
                }
            };
            let seg = Segment::new(prev_t, prev_v, rec.t, rec.v);
            self.live_mass += seg.abs_integral_clipped(prev_t, rec.t);
            batch_min_t0 = batch_min_t0.min(prev_t);
        }
        self.applied += recs.len() as u64;
        let batch_mass = (self.live_mass - mass_before).max(0.0);
        if let Some(cache) = &mut self.cache {
            cache.retain(|_, v| {
                if v.snap_t2 > batch_min_t0 {
                    v.stale.set(v.stale.get() + batch_mass);
                }
                true
            });
        }
        // Rebuild trigger: geometric mass doubling (core's §4 policy) or a
        // full tail.
        if self.pending.is_none() {
            if let Some(installed) = &self.gen {
                let tail = self.applied - self.gen_applied;
                let mass_due = self.live_mass
                    >= self.config.rebuild.mass_factor * installed.gen.meta.built_mass;
                if mass_due || tail >= self.config.rebuild.max_tail_segments as u64 {
                    self.spawn_generation(installed.gen.meta.generation + 1);
                }
            }
        }
    }

    /// Answer one routed query (see module docs for the merge contract).
    fn answer(&mut self, q: ServeQuery, route: Route, key: ProbeKey) -> ShardAnswer {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.pending.is_some() {
            self.queries_during_rebuild += 1;
        }
        let gen = match &self.gen {
            Some(installed) => Arc::clone(&installed.gen),
            None => return Err("no generation published".into()),
        };
        // APPX1/APPX2 answer over the *snapped* interval — that is route
        // semantics (their index structures only know breakpoint pairs),
        // not a cache artifact, so it must not depend on whether a cache
        // is configured.
        let (ProbeKey::Snapped { .. }, Some(bp)) = (key, &gen.built.breakpoints) else {
            return self.merged_answer(&gen, q.t1, q.t2, q.k, route);
        };
        let (a, b) = (bp.snap(q.t1), bp.snap(q.t2));
        if self.cache.is_none() || q.tolerance.is_none() {
            return self.merged_answer(&gen, a, b, q.k, route);
        }
        // Staleness audit: this generation's re-validated absolute bound
        // ε·M_built, plus whatever mass landed inside the snapped interval
        // since the entry was computed, must still fit the query's
        // ε-budget against the *live* mass.
        let eps_abs = gen.profile(route).map_or(0.0, |g| g.eps_abs());
        let budget_abs = q.tolerance.map(|t| t.eps * self.live_mass).unwrap_or(0.0);
        self.cache_lookups += 1;
        let mut invalidate = false;
        if let Some(entry) = self.cache.as_mut().expect("cacheable implies cache").get(&key) {
            let stale = entry.stale.get();
            if stale <= 0.0 || eps_abs + stale <= budget_abs {
                self.cache_hits += 1;
                return Ok(entry.entries.clone());
            }
            invalidate = true;
        }
        if invalidate {
            self.cache_invalidations += 1;
        }
        let res = self.merged_answer(&gen, a, b, q.k, route);
        if let Ok(entries) = &res {
            self.cache.as_mut().expect("cacheable implies cache").insert(
                key,
                Cached { entries: entries.clone(), snap_t2: b, stale: Cell::new(0.0) },
            );
        }
        res
    }

    /// Answer one window of routed queries, deduplicating shared probes:
    /// queries are grouped by what fully determines their answer — the
    /// [`ProbeKey`] on the published generation plus the tolerance (the
    /// staleness audit can tell two tolerances apart) — and each group
    /// runs [`ShardState::answer`] exactly once (one frozen probe, one
    /// columnar rescore, one cache lookup), with every member sharing the
    /// result. Deterministic state means the shared answer is
    /// bit-identical to answering each query sequentially.
    fn answer_batch(&mut self, window: &[(ServeQuery, Route)]) -> Vec<ShardAnswer> {
        let gen = self.gen.as_ref().map(|i| Arc::clone(&i.gen));
        let breakpoints = gen.as_ref().and_then(|g| g.built.breakpoints.as_ref());
        let mut first_of: HashMap<(ProbeKey, Option<(u64, bool)>), usize> =
            HashMap::with_capacity(window.len());
        let mut out: Vec<ShardAnswer> = Vec::with_capacity(window.len());
        for (q, route) in window {
            let key = ProbeKey::new(q, *route, breakpoints);
            let tolerance = q.tolerance.map(|t| (t.eps.to_bits(), t.tight_ranks));
            let answered = match first_of.get(&(key, tolerance)) {
                Some(&first) => out[first].clone(),
                None => {
                    first_of.insert((key, tolerance), out.len());
                    self.answer(*q, *route, key)
                }
            };
            out.push(answered);
        }
        out
    }

    /// Frozen candidates ∪ touched tail objects, exactly rescored on the
    /// live curves over `[t1, t2]`, global ids, descending score.
    fn merged_answer(
        &mut self,
        gen: &Generation,
        t1: f64,
        t2: f64,
        k: usize,
        route: Route,
    ) -> ShardAnswer {
        if t2 < t1 || !t1.is_finite() || !t2.is_finite() {
            return Err(format!("bad query interval [{t1}, {t2}]"));
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let m = self.live.num_objects();
        // Tail-touched objects: appended segments overlapping the interval.
        let mut touched: Vec<ObjectId> = Vec::new();
        for i in 0..m {
            let fe = self.frozen_end[i];
            let end = self.live.end_time(i);
            if end > fe && fe < t2 && end > t1 {
                touched.push(i as ObjectId);
            }
        }
        // Candidate budget: k + |touched| (+ slack) suffices — any object
        // outside it is beaten by ≥ k candidates (see module docs). The
        // approximate routes are additionally capped by their built kmax.
        let mut kk = (k + touched.len() + self.config.candidate_slack).min(m);
        if !route.is_exact() {
            kk = kk.min(gen.meta.kmax).max(k.min(gen.meta.kmax));
        }
        let frozen = gen.built.probe(route, t1, t2, kk)?;
        let mut seen = vec![false; m];
        let mut candidates: Vec<ObjectId> = Vec::with_capacity(frozen.len() + touched.len());
        for (id, _) in frozen {
            if !seen[id as usize] {
                seen[id as usize] = true;
                candidates.push(id);
            }
        }
        for id in touched {
            if !seen[id as usize] {
                seen[id as usize] = true;
                candidates.push(id);
            }
        }
        // Exact rescoring streams the shared columns in one batched pass;
        // the columnar kernel is bit-identical to the per-object curve
        // walk, hence bit-identical answers for exact routes.
        let mut scores = Vec::new();
        self.live.integral_batch(&candidates, t1, t2, &mut scores);
        let mut scored: Vec<(ObjectId, f64)> = candidates.into_iter().zip(scores).collect();
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(k);
        Ok(scored.into_iter().map(|(id, s)| (self.global_ids[id as usize], s)).collect())
    }

    fn status(&mut self) -> ShardStatus {
        self.status_seq += 1;
        let (generation, built_mass, profiles, size_bytes, route_bytes, gen_io) = match &self.gen {
            Some(i) => {
                let (m, b) = (i.gen.meta, &i.gen.built);
                (
                    m.generation,
                    m.built_mass,
                    b.profiles(),
                    b.size_bytes,
                    b.route_bytes(),
                    b.io_total(),
                )
            }
            None => (0, 0.0, [None; 5], 0, [0; 5], IoStats::default()),
        };
        ShardStatus {
            seq: self.status_seq,
            generation,
            built_mass,
            tail_segments: self.applied - self.gen_applied,
            rebuild_in_flight: self.pending.is_some(),
            io: self.retired_io + gen_io,
            profiles,
            rebuilds: self.rebuilds,
            build_secs: self.build_secs,
            build_stages: self.build_stages,
            swap_pause: self.swap_pause,
            queries_during_rebuild: self.queries_during_rebuild,
            cache_hits: self.cache_hits,
            cache_lookups: self.cache_lookups,
            cache_invalidations: self.cache_invalidations,
            size_bytes,
            route_bytes,
            tail_bytes: self.live.tail_bytes() as u64,
            tail_objects: self.live.tail_objects() as u64,
        }
    }

    fn shutdown(&mut self) {
        if let Some(mut installed) = self.gen.take() {
            if let Some(join) = installed.join.take() {
                join.join().ok();
            }
        }
        if let Some(mut pending) = self.pending.take() {
            // A pending build cannot be interrupted; the builder exits
            // right after its (now unread) announce.
            if let Some(join) = pending.join.take() {
                join.join().ok();
            }
        }
    }
}

/// Thread body of one ingest shard: bootstrap generation 0 (or reopen a
/// preloaded one from a checkpoint image), handshake, then
/// apply/answer/swap until shutdown.
pub(crate) fn shard_main(
    shard: usize,
    subset: TemporalSet,
    global_ids: Vec<ObjectId>,
    config: LiveConfig,
    channels: ShardChannels,
    preload: Option<GenParts>,
    obs: ShardObs,
) {
    let ShardChannels { rx, self_tx, build_tx } = channels;
    let mut state = ShardState::new(shard, subset, global_ids, config, self_tx, obs);
    let mut build_tx = Some(build_tx);
    match preload {
        Some(parts) => {
            // Reopen the persisted generation in-thread: a page-copy plus
            // a deterministic APPX rebuild, not an index construction.
            let spec = GenBuildSpec {
                methods: state.config.methods,
                approx: state.config.approx,
                store: state.config.store,
            };
            let frozen_end = parts.frozen_end.clone();
            let live = &state.live;
            let opened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let snapshot = TemporalSet::from_columnar(live)?.truncated_at(&frozen_end)?;
                Generation::open(&snapshot, parts, spec)
            }));
            let result = match opened {
                Ok(Ok(gen)) => Ok(gen),
                Ok(Err(e)) => Err(format!("generation reopen: {e}")),
                Err(payload) => {
                    Err(format!("generation reopen panicked: {}", panic_message(&*payload)))
                }
            };
            match result {
                Ok(gen) => {
                    state.frozen_end = frozen_end;
                    state.gen = Some(Installed { gen: Arc::new(gen), join: None });
                    let tx = build_tx.take().expect("handshake not yet sent");
                    let info = ShardInfo {
                        m: state.live.num_objects() as u64,
                        n: (state.live.total_points() - state.live.num_objects()) as u64,
                        status: state.status(),
                    };
                    if tx.send(BuildOutcome { shard, result: Ok(info) }).is_err() {
                        return;
                    }
                }
                Err(message) => {
                    if let Some(tx) = build_tx.take() {
                        tx.send(BuildOutcome { shard, result: Err(message) }).ok();
                    }
                    return;
                }
            }
        }
        None => state.spawn_generation(0),
    }
    while let Ok(msg) = rx.recv() {
        match msg {
            ToShard::Apply(recs) => {
                let out =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.apply(&recs)));
                if let Err(payload) = out {
                    state.poisoned = Some(format!("apply panicked: {}", panic_message(&*payload)));
                }
            }
            ToShard::Query { window, reply } => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    state.answer_batch(&window)
                }));
                let results = outcome.unwrap_or_else(|payload| {
                    let msg = format!("query panicked: {}", panic_message(&*payload));
                    window.iter().map(|_| Err(msg.clone())).collect()
                });
                // A dropped receiver only means that window's caller gave
                // up; later windows carry fresh senders, so keep serving.
                reply.send(ShardReply { shard, results, status: state.status() }).ok();
            }
            ToShard::Checkpoint(reply) => {
                let cp = ShardCheckpoint {
                    shard,
                    gen: state.gen.as_ref().map(|i| Arc::clone(&i.gen)),
                    frozen_end: state.frozen_end.clone(),
                };
                reply.send(cp).ok();
            }
            ToShard::GenReady { generation, result } => match result {
                Ok(gen) => {
                    state.install(generation, gen);
                    if generation == 0 {
                        if let Some(tx) = build_tx.take() {
                            let info = ShardInfo {
                                m: state.live.num_objects() as u64,
                                n: (state.live.total_points() - state.live.num_objects()) as u64,
                                status: state.status(),
                            };
                            // Release the handshake sender right away so a
                            // dead sibling is detectable by channel close.
                            let alive = tx.send(BuildOutcome { shard, result: Ok(info) }).is_ok();
                            drop(tx);
                            if !alive {
                                break;
                            }
                        }
                    }
                }
                Err(message) => {
                    if let Some(mut pending) = state.pending.take() {
                        if let Some(join) = pending.join.take() {
                            join.join().ok();
                        }
                    }
                    if generation == 0 {
                        if let Some(tx) = build_tx.take() {
                            tx.send(BuildOutcome { shard, result: Err(message) }).ok();
                        }
                        break;
                    }
                    // A later rebuild failed: keep serving the old
                    // generation; the next apply trigger will retry.
                }
            },
            ToShard::Shutdown => break,
        }
    }
    state.shutdown();
}
