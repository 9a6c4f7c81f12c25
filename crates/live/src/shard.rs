//! The ingest shard: one partition's live state, shared behind one lock.
//!
//! A [`LiveShard`] holds the *mutable* side of its partition — the live
//! [`TemporalSet`] (appends applied immediately), the per-object frozen
//! edge of the currently published generation, and the result cache — in
//! a `Mutex<ShardState>`, and probes its frozen side directly: the
//! published generation is an immutable `Arc`-shared snapshot
//! ([`crate::generation`]). No thread belongs to a shard. A query window
//! runs on `chronorank-serve`'s worker pool through [`ShardProbe`], the
//! same seam serve's immutable shards sit behind; an append batch is
//! applied by the appending caller; a finished generation build installs
//! itself from its builder thread. All three take the shard lock, so on
//! one shard they serialize and across shards they run in parallel.
//! What routing reads (the installed generation's profiles and mass) is
//! published beside the lock at install, so routing never waits behind a
//! probe; every other statistic is read on demand ([`LiveShard::status`]).
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
use crate::generation::{generation_main, GenParts, Generation};
use crate::obs::ShardObs;
use crate::report::PauseHistogram;
use chronorank_core::{AppendRecord, ObjectId, TemporalSet};
use chronorank_curve::{ColumnarTail, Segment};
use chronorank_serve::{
    panic_message, BuildStages, LruCache, ProbeKey, Route, RouteProfiles, ServeQuery, ShardAnswer,
    ShardProbe,
};
use chronorank_storage::IoStats;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// What routing reads of a shard: the installed generation's profiles and
/// the mass it was built over. Published at install, beside the shard
/// lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Routing {
    pub profiles: RouteProfiles,
    pub built_mass: f64,
}

/// What a shard has counted since boot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub rebuilds: u64,
    pub build_secs: f64,
    pub build_stages: BuildStages,
    pub swap_pause: PauseHistogram,
    pub queries_during_rebuild: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_invalidations: u64,
}

/// A shard's statistics, read on demand under its lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardStatus {
    pub counters: Counters,
    pub generation: u64,
    pub built_mass: f64,
    pub tail_segments: u64,
    pub rebuild_in_flight: bool,
    pub io: IoStats,
    pub size_bytes: u64,
    pub route_bytes: [u64; 5],
    /// Heap bytes held by the columnar append log (tail columns + index
    /// lists).
    pub tail_bytes: u64,
    /// Objects with a non-empty appended tail.
    pub tail_objects: u64,
}

/// A cached snapped answer plus its staleness account.
struct Cached {
    /// Global-id answer, descending score.
    entries: Vec<(ObjectId, f64)>,
    /// Snapped right edge — appends starting before this time affect it.
    snap_t2: f64,
    /// Absolute mass appended (potentially) inside the snapped interval
    /// since this entry was computed. `Cell` so the apply path can charge
    /// it during a non-removing `retain` walk (the cache lives under the
    /// shard lock).
    stale: Cell<f64>,
}

/// A build in flight, as cut at its snapshot.
struct PendingGen {
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
    /// The published generation, and the per-object frozen edge its
    /// snapshot was cut at.
    gen: Arc<Generation>,
    frozen_end: Vec<f64>,
    pending: Option<PendingGen>,
    /// The latest builder thread (running while `pending` is set, exiting
    /// or gone otherwise); the engine joins it when it drops.
    builder: Option<JoinHandle<()>>,
    /// Staleness-audited result cache (snapped keys only, see module docs).
    cache: Option<LruCache<ProbeKey, Cached>>,
    /// Records applied since boot, and as of the installed generation's
    /// snapshot.
    applied: u64,
    gen_applied: u64,
    counters: Counters,
    /// IO of the generations already swapped out.
    retired_io: IoStats,
    /// First unrecoverable error (reported on every later query).
    poisoned: Option<String>,
    /// Process-registry histograms fed at install.
    obs: ShardObs,
}

impl ShardState {
    /// The state of a shard serving `gen`, cut from `subset` at
    /// `frozen_end`.
    fn new(
        shard: usize,
        subset: &TemporalSet,
        global_ids: Vec<ObjectId>,
        config: LiveConfig,
        obs: ShardObs,
        (gen, frozen_end): (Arc<Generation>, Vec<f64>),
    ) -> Self {
        let cache = (config.cache_capacity > 0).then(|| LruCache::new(config.cache_capacity));
        Self {
            shard,
            config,
            live: subset.to_columnar(),
            live_mass: subset.total_mass(),
            global_ids,
            gen,
            frozen_end,
            pending: None,
            builder: None,
            cache,
            applied: 0,
            gen_applied: 0,
            counters: Counters::default(),
            retired_io: IoStats::default(),
            poisoned: None,
            obs,
        }
    }

    /// Cut the snapshot the next generation is built over and mark the
    /// build pending; `None` (and a poisoned shard) if the live columns do
    /// not form a set.
    fn begin_generation(&mut self) -> Option<TemporalSet> {
        // Materialize a row-form snapshot from the columns (the index
        // builders consume `TemporalSet`); point bits are copied verbatim.
        let snapshot = match TemporalSet::from_columnar(&self.live) {
            Ok(s) => s,
            Err(e) => {
                self.poisoned = Some(format!("generation snapshot: {e}"));
                return None;
            }
        };
        let frozen_end = (0..self.live.num_objects()).map(|i| self.live.end_time(i)).collect();
        self.pending = Some(PendingGen { frozen_end, stamp_applied: self.applied });
        Some(snapshot)
    }

    /// Epoch swap: install a finished generation. Everything here is the
    /// reader-visible pause — an `Arc` replacement plus bookkeeping — so
    /// it is measured into the histogram.
    fn install(&mut self, gen: Arc<Generation>) {
        let Some(pending) = self.pending.take() else { return };
        let t0 = Instant::now();
        self.retired_io += std::mem::replace(&mut self.gen, gen).built.io_total();
        self.count_build();
        self.frozen_end = pending.frozen_end;
        self.gen_applied = pending.stamp_applied;
        // The epoch swap also compacts the columnar append log into the
        // contiguous base columns — the tail the new generation absorbed
        // no longer needs its gather indirection (a storage move only;
        // every point and every integral keeps its bits).
        self.live.freeze();
        if let Some(cache) = &mut self.cache {
            cache.clear(); // superseded frozen parts
        }
        self.counters.rebuilds += 1;
        let pause_us = t0.elapsed().as_micros() as u64;
        self.counters.swap_pause.record(pause_us);
        self.obs.swap_pause_us.record(pause_us);
    }

    /// Account the build of the generation now installed (the bootstrap's
    /// included; a reopen from an image is not a build).
    fn count_build(&mut self) {
        self.counters.build_secs += self.gen.meta.build_secs;
        self.counters.build_stages += self.gen.built.stages;
        self.obs.rebuild_us.record((self.gen.meta.build_secs * 1e6) as u64);
    }

    /// Apply one durable batch to the live state and charge staleness to
    /// the overlapped cache entries; returns the generation the §4 rebuild
    /// policy now calls for, if any.
    fn apply(&mut self, recs: &[AppendRecord]) -> Option<u64> {
        let mass_before = self.live_mass;
        let mut batch_min_t0 = f64::INFINITY;
        for rec in recs {
            if rec.object as usize >= self.live.num_objects() {
                self.poisoned = Some(format!("apply: no such object: {}", rec.object));
                return None;
            }
            // Columnar append; the returned previous endpoint feeds the
            // same incremental mass arithmetic `TemporalSet` uses.
            let (prev_t, prev_v) = match self.live.append(rec.object as usize, rec.t, rec.v) {
                Ok(prev) => prev,
                Err(e) => {
                    self.poisoned = Some(format!("apply: curve: {e}"));
                    return None;
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
        let tail = self.applied - self.gen_applied;
        let mass_due = self.live_mass >= self.config.rebuild.mass_factor * self.gen.meta.built_mass;
        let due = mass_due || tail >= self.config.rebuild.max_tail_segments as u64;
        (due && self.pending.is_none()).then_some(self.gen.meta.generation + 1)
    }

    /// Answer one routed query (see module docs for the merge contract);
    /// the second return is `Some(hit)` when the result cache was consulted.
    fn answer(
        &mut self,
        q: ServeQuery,
        route: Route,
        key: ProbeKey,
    ) -> (ShardAnswer, Option<bool>) {
        if let Some(e) = &self.poisoned {
            return (Err(e.clone()), None);
        }
        if self.pending.is_some() {
            self.counters.queries_during_rebuild += 1;
        }
        let gen = Arc::clone(&self.gen);
        // APPX1/APPX2 answer over the *snapped* interval — that is route
        // semantics (their index structures only know breakpoint pairs),
        // not a cache artifact, so it must not depend on whether a cache
        // is configured.
        let (ProbeKey::Snapped { .. }, Some(bp)) = (key, &gen.built.breakpoints) else {
            return (self.merged_answer(&gen, q.t1, q.t2, q.k, route), None);
        };
        let (a, b) = (bp.snap(q.t1), bp.snap(q.t2));
        if self.cache.is_none() || q.tolerance.is_none() {
            return (self.merged_answer(&gen, a, b, q.k, route), None);
        }
        // Staleness audit: this generation's re-validated absolute bound
        // ε·M_built, plus whatever mass landed inside the snapped interval
        // since the entry was computed, must still fit the query's
        // ε-budget against the *live* mass.
        let eps_abs = gen.profile(route).map_or(0.0, |g| g.eps_abs());
        let budget_abs = q.tolerance.map(|t| t.eps * self.live_mass).unwrap_or(0.0);
        self.counters.cache_lookups += 1;
        let mut invalidate = false;
        if let Some(entry) = self.cache.as_mut().expect("cacheable implies cache").get(&key) {
            let stale = entry.stale.get();
            if stale <= 0.0 || eps_abs + stale <= budget_abs {
                self.counters.cache_hits += 1;
                return (Ok(entry.entries.clone()), Some(true));
            }
            invalidate = true;
        }
        if invalidate {
            self.counters.cache_invalidations += 1;
        }
        let res = self.merged_answer(&gen, a, b, q.k, route);
        if let Ok(entries) = &res {
            self.cache.as_mut().expect("cacheable implies cache").insert(
                key,
                Cached { entries: entries.clone(), snap_t2: b, stale: Cell::new(0.0) },
            );
        }
        (res, Some(false))
    }

    /// Answer one window of routed queries, deduplicating shared probes:
    /// queries are grouped by what fully determines their answer — the
    /// [`ProbeKey`] on the published generation plus the tolerance (the
    /// staleness audit can tell two tolerances apart) — and each group
    /// runs [`ShardState::answer`] exactly once (one frozen probe, one
    /// columnar rescore, one cache lookup), with every member sharing the
    /// result. Deterministic state means the shared answer is
    /// bit-identical to answering each query sequentially.
    fn answer_batch(&mut self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        let gen = Arc::clone(&self.gen);
        let breakpoints = gen.built.breakpoints.as_ref();
        let mut first_of: HashMap<(ProbeKey, Option<(u64, bool)>), usize> =
            HashMap::with_capacity(window.len());
        let mut out: Vec<(ShardAnswer, Option<bool>)> = Vec::with_capacity(window.len());
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

    fn routing(&self) -> Routing {
        Routing { profiles: self.gen.built.profiles(), built_mass: self.gen.meta.built_mass }
    }

    fn status(&self) -> ShardStatus {
        let (meta, built) = (self.gen.meta, &self.gen.built);
        ShardStatus {
            counters: self.counters,
            generation: meta.generation,
            built_mass: meta.built_mass,
            tail_segments: self.applied - self.gen_applied,
            rebuild_in_flight: self.pending.is_some(),
            io: self.retired_io + built.io_total(),
            size_bytes: built.size_bytes,
            route_bytes: built.route_bytes(),
            tail_bytes: self.live.tail_bytes() as u64,
            tail_objects: self.live.tail_objects() as u64,
        }
    }
}

/// One ingest shard as the engine, the worker pool and generation builders
/// share it (see module docs).
pub(crate) struct LiveShard {
    state: Mutex<ShardState>,
    routing: Mutex<Routing>,
}

impl LiveShard {
    /// Boot one shard on the calling thread: reopen its frozen generation
    /// from a checkpoint image's parts (a page-copy plus a deterministic
    /// APPX rebuild, not an index construction), or build generation 0.
    pub fn boot(
        shard: usize,
        subset: TemporalSet,
        global_ids: Vec<ObjectId>,
        config: LiveConfig,
        preload: Option<GenParts>,
        obs: ShardObs,
    ) -> Result<Self, String> {
        let fresh = preload.is_none();
        let installed = match preload {
            Some(parts) => {
                let frozen_end = parts.frozen_end.clone();
                let gen = subset
                    .truncated_at(&frozen_end)
                    .and_then(|snapshot| Generation::open(&snapshot, parts, &config))
                    .map_err(|e| format!("generation reopen: {e}"))?;
                (Arc::new(gen), frozen_end)
            }
            None => {
                let gen = Generation::build(&subset, 0, &config).map_err(|e| e.to_string())?;
                (Arc::new(gen), subset.objects().iter().map(|o| o.curve.end()).collect())
            }
        };
        let mut state = ShardState::new(shard, &subset, global_ids, config, obs, installed);
        if fresh {
            state.count_build();
        }
        Ok(Self { routing: Mutex::new(state.routing()), state: Mutex::new(state) })
    }

    /// The shard lock. A panic under it is contained by its caller (the
    /// pool worker, or `poisoned` on the apply path), so a poisoned mutex
    /// is entered, not propagated.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Apply a batch of already-durable appends (object ids are **local**)
    /// and, when the rebuild policy fires, start the next generation's
    /// build on a thread of its own.
    pub fn apply(self: &Arc<Self>, recs: &[AppendRecord]) {
        let mut state = self.lock();
        let due = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.apply(recs)));
        let generation = match due {
            Ok(Some(generation)) => generation,
            Ok(None) => return,
            Err(payload) => {
                state.poisoned = Some(format!("apply panicked: {}", panic_message(&*payload)));
                return;
            }
        };
        let Some(snapshot) = state.begin_generation() else { return };
        let (shard, config) = (Arc::clone(self), state.config.clone());
        // The build runs entirely off the caller's thread and outside the
        // lock; the builder takes it again only to install.
        let builder = std::thread::Builder::new()
            .name(format!("chronorank-live-gen{}-{}", state.shard, generation))
            .spawn(move || generation_main(&shard, generation, &snapshot, &config));
        match builder {
            Ok(handle) => state.builder = Some(handle),
            Err(_) => {
                state.pending = None;
                state.poisoned = Some("failed to spawn generation build".into());
            }
        }
    }

    /// A generation build finished: install it and publish its routing
    /// facts, or — the build having failed — keep serving the old
    /// generation; the next apply trigger retries.
    pub fn finish_build(&self, built: Option<Generation>) {
        let mut state = self.lock();
        match built {
            Some(gen) => {
                state.install(Arc::new(gen));
                *self.routing.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                    state.routing();
            }
            None => state.pending = None,
        }
    }

    /// What routing reads, as of the last install.
    pub fn routing(&self) -> Routing {
        *self.routing.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The shard's statistics as of now.
    pub fn status(&self) -> ShardStatus {
        self.lock().status()
    }

    /// The installed frozen generation and the frozen edges its snapshot
    /// was cut at — one shard's contribution to a checkpoint image.
    pub fn checkpoint(&self) -> (Arc<Generation>, Vec<f64>) {
        let state = self.lock();
        (Arc::clone(&state.gen), state.frozen_end.clone())
    }

    /// The latest builder's handle, for the dropping engine to join —
    /// outside the lock, which the builder needs to install. Whichever
    /// thread ends up a shard's last owner then has no handle left to join.
    pub fn take_builder(&self) -> Option<JoinHandle<()>> {
        self.lock().builder.take()
    }
}

/// The live data of `shards` gathered into one column set in global object
/// order (`global = local · W + shard`, as [`chronorank_serve::partition`]
/// numbers them): point for point what `to_columnar()` of a row-form set
/// holding the same data is. Every shard's lock is taken once and held
/// across the gather; no other path holds two, so the order cannot deadlock.
pub(crate) fn live_columns(shards: &[Arc<LiveShard>]) -> ColumnarTail {
    let states: Vec<_> = shards.iter().map(|s| s.lock()).collect();
    let m: usize = states.iter().map(|s| s.live.num_objects()).sum();
    let (mut all, mut ts, mut vs) = (ColumnarTail::new(), Vec::new(), Vec::new());
    for global in 0..m {
        states[global % states.len()].live.copy_points(global / states.len(), &mut ts, &mut vs);
        all.push_object(&ts, &vs).expect("shard columns hold valid curves");
    }
    all
}

impl ShardProbe for LiveShard {
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        self.lock().answer_batch(window)
    }
}
