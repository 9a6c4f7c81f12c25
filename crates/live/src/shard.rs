//! The ingest shard: one partition's live state, shared behind one lock.
//!
//! A [`LiveShard`] holds the *mutable* side of its partition — the live
//! data as a [`ColumnarTail`] (appends applied immediately), the per-object
//! frozen edge of the currently published generation, the pending build,
//! and the result cache — in a `Mutex<ShardState>`, and probes its frozen
//! side directly: the published generation is an immutable `Arc`-shared
//! snapshot ([`crate::generation`]). Each point has one home: the store's
//! frozen curves, which a build's snapshot shares instead of copying
//! ([`ColumnarTail::freeze`] copies only the curves its log extends).
//! The pool of the ingest engine's [`chronorank_serve::Engine`] owns the
//! shard and runs its query windows on the shard's own worker through
//! [`ShardProbe`], as it runs serve's immutable shards; appends and
//! installs are steps the ingest engine takes on the shard directly, from
//! `&mut self` calls. A generation builder holds only its snapshot and
//! returns the generation through its `JoinHandle`, so no install can
//! overlap a query. Every statistic is read on demand
//! ([`LiveShard::status`]).
//!
//! ## Query = frozen candidates ∪ tail, exactly rescored
//!
//! For `top-k(t1, t2, k)` the shard fetches the frozen index's top
//! `kk = k + |touched| + slack` candidates (where *touched* are the objects
//! whose appended tail overlaps the interval), unions the touched objects
//! in, rescores every candidate **exactly** on the live curves, and ranks.
//! Any object missing from that candidate set is beaten by at least `k`
//! candidates (each non-touched object scores identically in the frozen
//! and live orders, and only touched objects can move), so exact routes
//! are exact-fresh at every point between rebuilds, and approximate
//! routes keep their frozen `ε·M_built` candidate guarantee with exact
//! scores on top.
//!
//! APPX2+ is "QUERY2's candidates, rescored exactly", and the rescoring
//! is the step above. So its frozen candidates are QUERY2's whole pool
//! `K` for `kk` ([`chronorank_serve::BuiltRoutes::candidates`]), not a top-`kk` a prefix
//! file picked: one exact rescoring over a superset, and no second copy
//! of the points beside the columns.
//!
//! Answers leave the shard in its local ids (the columns' dense ids); the
//! pool worker maps them to global ones ([`chronorank_serve::to_global`]),
//! and the engine hands the shard its appends in local ids
//! ([`chronorank_serve::to_local`]), so the shard keeps no id map.
//!
//! ## Staleness-audited caching
//!
//! The window dedup and the result cache are serve's
//! ([`chronorank_serve::dedup_window`], [`chronorank_serve::ResultCache`]);
//! what a live shard adds is the charge. APPX1/APPX2 answer over the
//! *snapped* interval, so their answers are cached per
//! `(B(t1), B(t2), k, route)`. An append whose new segment starts before a
//! cached entry's snapped right edge adds its mass to the entry's
//! staleness account ([`chronorank_serve::ResultCache::charge`]); at lookup
//! time the entry is served only while
//! `ε·M_built + staleness ≤ ε_query · M_live` — otherwise it is
//! invalidated and recomputed. That budget reads the query's tolerance, so
//! the dedup key carries it: two tolerances on one probe key are two
//! lookups. Every other route is cached on the raw interval, and such an
//! entry is served only until a segment that starts before its `t2` is
//! appended: appends extend an object at its right edge, so a later one
//! moves no score over `[t1, t2]` and no object into or out of the
//! touched set. An epoch swap drops the approximate entries and keeps the
//! exact ones, whose answers do not depend on the generation.

use crate::config::LiveConfig;
use crate::generation::{GenParts, Generation};
use crate::obs::ShardObs;
use crate::report::PauseHistogram;
use chronorank_core::{AppendRecord, ObjectId, TemporalSet};
use chronorank_curve::{ColumnarTail, PiecewiseLinear, Segment};
use chronorank_serve::{
    dedup_window, panic_message, to_local, BuildStages, CacheCounters, Freshness, ProbeKey,
    ResultCache, Route, RouteProfiles, ServeQuery, ShardAnswer, ShardProbe,
};
use chronorank_storage::IoStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Extra frozen-index candidates fetched beyond the provable
/// `k + |tail-touched|` bound, guarding top-k boundary ties against
/// floating-point perturbation between index arithmetic and exact
/// rescoring.
const CANDIDATE_SLACK: usize = 4;

/// What an engine step left a shard with: whether it installed a
/// generation, and whether a build is pending (running, or not installed).
pub(crate) struct Step {
    pub installed: bool,
    pub pending: bool,
}

/// What a shard has counted since boot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Whether the boot reopened its generation from a checkpoint image.
    pub reopened: bool,
    pub rebuilds: u64,
    pub build_secs: f64,
    pub build_stages: BuildStages,
    pub swap_pause: PauseHistogram,
}

/// A shard's statistics, read on demand under its lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardStatus {
    pub counters: Counters,
    pub cache: CacheCounters,
    pub generation: u64,
    pub built_mass: f64,
    pub tail_segments: u64,
    pub rebuild_in_flight: bool,
    pub io: IoStats,
    pub size_bytes: u64,
    pub route_bytes: [u64; 5],
    /// Heap bytes held by the append log (log columns + index lists).
    pub tail_bytes: u64,
    /// Objects with a non-empty append log.
    pub tail_objects: u64,
}

/// A build in flight, as cut at its snapshot.
struct PendingGen {
    /// Per-object curve end at snapshot time (the new frozen edge).
    frozen_end: Vec<f64>,
    /// `applied` counter at snapshot time.
    stamp_applied: u64,
    /// Returns the generation (`None` if the build failed or panicked).
    builder: JoinHandle<Option<Generation>>,
}

struct ShardState {
    shard: usize,
    config: LiveConfig,
    /// The live partition (local dense ids): frozen curves, shared with
    /// the last build's snapshot, plus the log of appends since its cut.
    /// Rescoring streams each curve's columns, then its log.
    live: ColumnarTail,
    /// `M` of the live partition, maintained incrementally with exactly
    /// the arithmetic [`TemporalSet::append_segment`] uses, so rebuild
    /// triggers and staleness budgets behave as the row-form set did.
    live_mass: f64,
    /// The published generation, and the per-object frozen edge its
    /// snapshot was cut at.
    gen: Arc<Generation>,
    frozen_end: Vec<f64>,
    pending: Option<PendingGen>,
    /// Staleness-audited result cache (see module docs).
    cache: Option<ResultCache>,
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
        config: LiveConfig,
        obs: ShardObs,
        (gen, frozen_end): (Arc<Generation>, Vec<f64>),
    ) -> Self {
        let cache = (config.cache_capacity > 0).then(|| ResultCache::new(config.cache_capacity));
        Self {
            shard,
            config,
            live: subset.to_columnar(),
            live_mass: subset.total_mass(),
            gen,
            frozen_end,
            pending: None,
            cache,
            applied: 0,
            gen_applied: 0,
            counters: Counters::default(),
            retired_io: IoStats::default(),
            poisoned: None,
            obs,
        }
    }

    /// Cut the snapshot generation `generation` is built over and start its
    /// build on a thread of its own (or poison the shard).
    fn begin_generation(&mut self, generation: u64) {
        // Fold the append log into the shard's curves (only the curves it
        // extends are copied) and hand the builder a set sharing their
        // columns: `m` reference counts, not `N` points.
        let snapshot = match TemporalSet::from_curves(self.live.freeze().to_vec()) {
            Ok(s) => s,
            Err(e) => {
                self.poisoned = Some(format!("generation snapshot: {e}"));
                return;
            }
        };
        let config = self.config.clone();
        // The builder holds nothing but its snapshot and config.
        let builder = std::thread::Builder::new()
            .name(format!("chronorank-live-gen{}-{}", self.shard, generation))
            .spawn(move || {
                catch_unwind(AssertUnwindSafe(|| Generation::build(&snapshot, generation, &config)))
                    .ok()
                    .and_then(Result::ok)
            });
        let Ok(builder) = builder else {
            self.poisoned = Some("failed to spawn generation build".into());
            return;
        };
        let frozen_end = (0..self.live.num_objects()).map(|i| self.live.end_time(i)).collect();
        self.pending = Some(PendingGen { frozen_end, stamp_applied: self.applied, builder });
    }

    /// Epoch swap: install the pending build if its builder has finished
    /// (or, with `wait`, once it has); a failed build installs nothing and
    /// the next trigger retries. The swap itself — an `Arc` replacement
    /// plus bookkeeping, no point moved — is measured into the pause
    /// histogram.
    fn install(&mut self, wait: bool) -> bool {
        if !self.pending.as_ref().is_some_and(|p| wait || p.builder.is_finished()) {
            return false;
        }
        let pending = self.pending.take().expect("checked above");
        let Some(gen) = pending.builder.join().ok().flatten() else { return false };
        let gen = Arc::new(gen);
        let t0 = Instant::now();
        self.retired_io += std::mem::replace(&mut self.gen, gen).built.io_total();
        self.count_build();
        self.frozen_end = pending.frozen_end;
        self.gen_applied = pending.stamp_applied;
        if let Some(cache) = &mut self.cache {
            cache.retain_exact(); // the approximate answers read superseded parts
        }
        self.counters.rebuilds += 1;
        let pause_us = t0.elapsed().as_micros() as u64;
        self.counters.swap_pause.record(pause_us);
        self.obs.swap_pause_us.record(pause_us);
        true
    }

    /// Account the build of the generation now installed (the bootstrap's
    /// included; a reopen from an image is not a build).
    fn count_build(&mut self) {
        self.counters.build_secs += self.gen.meta.build_secs;
        self.counters.build_stages += self.gen.built.stages;
        self.obs.rebuild_us.record((self.gen.meta.build_secs * 1e6) as u64);
    }

    /// Apply one durable batch to the live state, charge staleness to the
    /// overlapped cache entries (with or without breakpoints: exact entries
    /// are charged too), and start the build the §4 rebuild policy now
    /// calls for, if any.
    fn apply(&mut self, recs: &[AppendRecord]) {
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
            cache.charge(self.gen.built.breakpoints.as_ref(), batch_min_t0, batch_mass);
        }
        // Rebuild trigger: geometric mass doubling (core's §4 policy) or a
        // full tail.
        let tail = self.applied - self.gen_applied;
        let mass_due = self.live_mass >= self.config.rebuild.mass_factor * self.gen.meta.built_mass;
        let due = mass_due || tail >= self.config.rebuild.max_tail_segments as u64;
        if due && self.pending.is_none() {
            self.begin_generation(self.gen.meta.generation + 1);
        }
    }

    /// Answer one window of routed queries: [`dedup_window`] keyed on the
    /// [`ProbeKey`] on the published generation plus the tolerance (the
    /// staleness audit can tell two tolerances apart), then per group one
    /// frozen probe and columnar rescore ([`merged_answer`]), behind the
    /// result cache. Deterministic state means the shared answer is
    /// bit-identical to answering each query sequentially.
    fn answer_batch(&mut self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        if let Some(e) = &self.poisoned {
            return window.iter().map(|_| (Err(e.clone()), None)).collect();
        }
        let Self { gen, live, frozen_end, cache, live_mass, .. } = self;
        let breakpoints = gen.built.breakpoints.as_ref();
        let tolerance = |q: &ServeQuery| q.tolerance.map(|t| (t.eps.to_bits(), t.tight_ranks));
        dedup_window(
            window,
            |q, route| (ProbeKey::new(q, route, breakpoints), tolerance(q)),
            |q, route, (key, _)| {
                // APPX1/APPX2 answer over the *snapped* interval — that is
                // route semantics (their index structures only know
                // breakpoint pairs), not a cache artifact, so it must not
                // depend on whether a cache is configured.
                let (t1, t2) = match (key, breakpoints) {
                    (ProbeKey::Snapped { .. }, Some(bp)) => (bp.snap(q.t1), bp.snap(q.t2)),
                    _ => (q.t1, q.t2),
                };
                let probe = || merged_answer(live, frozen_end, gen, (t1, t2), q.k, route);
                match cache.as_mut() {
                    Some(cache) => {
                        // A snapped entry's staleness audit: this
                        // generation's absolute bound ε·M_built plus what
                        // landed inside the snapped interval since, against
                        // the query's ε-budget on the *live* mass.
                        let eps_abs = gen.profile(route).map_or(0.0, |g| g.eps_abs());
                        let budget_abs = q.tolerance.map_or(0.0, |t| t.eps * *live_mass);
                        cache.answer(key, eps_abs, budget_abs, probe)
                    }
                    None => (probe(), None),
                }
            },
        )
    }

    fn status(&self) -> ShardStatus {
        let (meta, built) = (self.gen.meta, &self.gen.built);
        ShardStatus {
            counters: self.counters,
            cache: self.cache.as_ref().map_or_else(CacheCounters::default, ResultCache::counters),
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

/// Frozen candidates ∪ touched tail objects, exactly rescored on the live
/// curves `live` over `[t1, t2]`, local ids, descending score. An object is
/// touched when its curve ends past `frozen_end`, the edge `gen` was cut
/// at, inside the interval.
fn merged_answer(
    live: &ColumnarTail,
    frozen_end: &[f64],
    gen: &Generation,
    (t1, t2): (f64, f64),
    k: usize,
    route: Route,
) -> ShardAnswer {
    if t2 < t1 || !t1.is_finite() || !t2.is_finite() {
        return Err(format!("bad query interval [{t1}, {t2}]"));
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    let m = live.num_objects();
    // Tail-touched objects: appended segments overlapping the interval.
    let mut touched: Vec<ObjectId> = Vec::new();
    for (i, &fe) in frozen_end.iter().enumerate() {
        let end = live.end_time(i);
        if end > fe && fe < t2 && end > t1 {
            touched.push(i as ObjectId);
        }
    }
    // Candidate budget: k + |touched| (+ slack) suffices — any object
    // outside it is beaten by ≥ k candidates (see module docs). The
    // approximate routes are additionally capped by their built kmax.
    let mut kk = k.saturating_add(touched.len() + CANDIDATE_SLACK).min(m);
    if !route.is_exact() {
        kk = kk.min(gen.meta.kmax).max(k.min(gen.meta.kmax));
    }
    let frozen = gen.built.candidates(route, t1, t2, kk)?;
    let mut seen = vec![false; m];
    let mut candidates: Vec<ObjectId> = Vec::with_capacity(frozen.len() + touched.len());
    for id in frozen.into_iter().chain(touched) {
        if !seen[id as usize] {
            seen[id as usize] = true;
            candidates.push(id);
        }
    }
    // Exact rescoring streams the shared columns in one batched pass; the
    // columnar kernel is bit-identical to the per-object curve walk, hence
    // bit-identical answers for exact routes.
    let mut scores = Vec::new();
    live.integral_batch(&candidates, t1, t2, &mut scores);
    let mut scored: Vec<(ObjectId, f64)> = candidates.into_iter().zip(scores).collect();
    scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    scored.truncate(k);
    Ok(scored)
}

/// One ingest shard, owned by the worker pool of an
/// [`crate::IngestEngine`]'s engine: its worker answers query windows, the
/// ingest engine calls it directly for everything else (see module docs).
pub struct LiveShard {
    state: Mutex<ShardState>,
}

impl LiveShard {
    /// Boot one shard on the calling thread: reopen its frozen generation
    /// from a checkpoint image's parts (a page-copy plus a deterministic
    /// APPX rebuild, not an index construction), or build generation 0 —
    /// also when the parts do not reopen over `subset` (frozen edges no
    /// curve reaches, a tree or table that does not decode).
    pub(crate) fn boot(
        shard: usize,
        subset: TemporalSet,
        config: LiveConfig,
        preload: Option<GenParts>,
        obs: ShardObs,
    ) -> Result<Self, String> {
        let reopened = preload.and_then(|parts| {
            let frozen_end = parts.frozen_end.clone();
            let snapshot = subset.truncated_at(&frozen_end).ok()?;
            let gen = Generation::open(&snapshot, parts, &config).ok()?;
            Some((Arc::new(gen), frozen_end))
        });
        let reopen = reopened.is_some();
        let installed = match reopened {
            Some(installed) => installed,
            None => {
                let gen = Generation::build(&subset, 0, &config).map_err(|e| e.to_string())?;
                (Arc::new(gen), subset.objects().iter().map(|o| o.curve.end()).collect())
            }
        };
        let mut state = ShardState::new(shard, &subset, config, obs, installed);
        state.counters.reopened = reopen;
        if !reopen {
            state.count_build();
        }
        Ok(Self { state: Mutex::new(state) })
    }

    /// The shard lock. A panic under it is contained by its caller (the
    /// pool worker, or `poisoned` on the apply path), so a poisoned mutex
    /// is entered, not propagated.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The append step: install a finished build, then apply a batch of
    /// already-durable appends (object ids are **local**) and check the
    /// rebuild trigger against the generation now installed.
    pub(crate) fn apply(&self, recs: &[AppendRecord]) -> Step {
        let mut state = self.lock();
        let installed = state.install(false);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| state.apply(recs))) {
            state.poisoned = Some(format!("apply panicked: {}", panic_message(&*payload)));
        }
        Step { installed, pending: state.pending.is_some() }
    }

    /// The install step on its own.
    pub(crate) fn install(&self, wait: bool) -> Step {
        let mut state = self.lock();
        let installed = state.install(wait);
        Step { installed, pending: state.pending.is_some() }
    }

    /// The shard's statistics as of now.
    pub(crate) fn status(&self) -> ShardStatus {
        self.lock().status()
    }

    /// The installed frozen generation and the frozen edges its snapshot
    /// was cut at — one shard's contribution to a checkpoint image.
    pub(crate) fn checkpoint(&self) -> (Arc<Generation>, Vec<f64>) {
        let state = self.lock();
        (Arc::clone(&state.gen), state.frozen_end.clone())
    }
}

/// The live curves of `shards` in global object order ([`to_local`] finds
/// each object's shard). A curve with no appended log is the shard's own,
/// sharing its columns; only a logged one is copied
/// ([`ColumnarTail::curve`]). Every shard's lock is taken once and held
/// across the gather; no other path holds two, so the order cannot
/// deadlock.
pub(crate) fn live_curves(shards: &[Arc<LiveShard>]) -> Vec<PiecewiseLinear> {
    let states: Vec<_> = shards.iter().map(|s| s.lock()).collect();
    let m: usize = states.iter().map(|s| s.live.num_objects()).sum();
    let curve = |global| {
        let (shard, local) = to_local(global, states.len());
        states[shard].live.curve(local as usize)
    };
    (0..m as ObjectId).map(curve).collect()
}

impl ShardProbe for LiveShard {
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        self.lock().answer_batch(window)
    }

    /// The installed generation's profiles and the mass it was built over,
    /// and the partition's live mass.
    fn routing(&self) -> (RouteProfiles, Freshness) {
        let state = self.lock();
        let fresh = Freshness { built_mass: state.gen.meta.built_mass, live_mass: state.live_mass };
        (state.gen.built.profiles(), fresh)
    }
}
