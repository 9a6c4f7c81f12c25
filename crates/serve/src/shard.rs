//! Shared-snapshot shards: one partition's indexes, built once, queried
//! from any thread — and the shard-side steps every shard runs, serve or
//! live.
//!
//! Since the storage layer became `Send + Sync` (atomic IO counters, a
//! mutex-guarded buffer pool), a fully built index is an immutable
//! snapshot. A [`Shard`] bundles one partition's built methods behind an
//! `Arc`: the engine's worker pool scatters every query to all shards and
//! each shard's own worker answers its part — parallel scatter-gather
//! over shared state, with no per-worker index duplication.
//!
//! A serve shard and a live shard differ only in how one probe is
//! answered: the index's answer here, frozen candidates plus tail-touched
//! objects rescored in `chronorank-live`. Everything around the probe is
//! shared: both dedup a window with [`dedup_window`] on its [`ProbeKey`]s,
//! both keep snapped answers in a [`ResultCache`], and both answer in
//! shard-local ids, which the pool worker maps to global ones
//! ([`crate::to_global`]). The only mutable piece of a serve shard is its
//! result cache, behind its own [`Mutex`], which the shard's worker holds
//! for a window.

use crate::cache::{CacheCounters, ResultCache};
use crate::config::ServeConfig;
use crate::planner::{MethodSet, Route, RouteProfiles};
use crate::query::ServeQuery;
use chronorank_core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction, Breakpoints, Exact3,
    IndexConfig, ObjectId, Query2Index, QueryKind, RankMethod, SharedMethod, TemporalSet,
};
use chronorank_storage::{Env, IoStats, StoreConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A shard's ranked answer in its own local ids (descending score), or an
/// error message — what every shard, serve or live, hands its worker.
pub type ShardAnswer = Result<Vec<(ObjectId, f64)>, String>;

/// One partition as the worker pool sees it — the seam both engines share:
/// serve's immutable `Shard` snapshot, and live's mutable shard state
/// behind its own lock.
pub trait ShardProbe: Send + Sync {
    /// Answer this shard's view of one routed window, one entry per query
    /// in window order: the answer in shard-local ids, and `Some(hit)`
    /// when the shard's result cache was consulted (`None` = the route
    /// bypassed it). Queries that collapse onto one [`ProbeKey`] share one
    /// probe ([`dedup_window`]).
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)>;
}

/// The window dedup every shard runs: queries with equal `key`s are
/// answered by **one** call of `answer`, whose result is cloned to every
/// member of the group, so a group costs one probe and at most one cache
/// lookup per window. Bit-identical to answering each query alone as long
/// as the key holds everything the answer depends on: a serve shard keys
/// on the [`ProbeKey`]; a live shard adds the tolerance, which its cache's
/// staleness audit reads.
pub fn dedup_window<K: Copy + Eq + Hash>(
    window: &[(ServeQuery, Route)],
    key: impl Fn(&ServeQuery, Route) -> K,
    mut answer: impl FnMut(&ServeQuery, Route, K) -> (ShardAnswer, Option<bool>),
) -> Vec<(ShardAnswer, Option<bool>)> {
    let mut first_of: HashMap<K, usize> = HashMap::with_capacity(window.len());
    let mut out: Vec<(ShardAnswer, Option<bool>)> = Vec::with_capacity(window.len());
    for (q, route) in window {
        let key = key(q, *route);
        let answered = match first_of.entry(key) {
            Entry::Occupied(e) => out[*e.get()].clone(),
            Entry::Vacant(e) => {
                e.insert(out.len());
                answer(q, *route, key)
            }
        };
        out.push(answered);
    }
    out
}

/// What fully determines a shard-local answer on one snapshot: the route,
/// `k`, and the interval — **snapped** to breakpoint indexes on the routes
/// that answer from the snapped interval alone ([`Route::cacheable`]), its
/// raw bits on the rest. The one key behind both the result cache (which
/// holds snapped keys only) and the probe dedup inside a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKey {
    /// `(B(t1), B(t2))` as breakpoint indexes.
    Snapped { b1: u32, b2: u32, k: u32, route: Route },
    /// The raw interval's bits.
    Raw { t1: u64, t2: u64, k: u32, route: Route },
}

impl ProbeKey {
    /// The key of `q` on `route` over a snapshot with these breakpoints.
    pub fn new(q: &ServeQuery, route: Route, breakpoints: Option<&Breakpoints>) -> Self {
        // Saturating, never wrapping: every `k` from `u32::MAX` up shares
        // one key, and each of them asks for the whole shard as long as a
        // shard holds fewer than `u32::MAX` objects (ids are `u32`).
        let k = u32::try_from(q.k).unwrap_or(u32::MAX);
        match breakpoints {
            Some(bp) if route.cacheable() => ProbeKey::Snapped {
                b1: bp.snap_idx(q.t1) as u32,
                b2: bp.snap_idx(q.t2) as u32,
                k,
                route,
            },
            _ => ProbeKey::Raw { t1: q.t1.to_bits(), t2: q.t2.to_bits(), k, route },
        }
    }
}

/// Where one snapshot's build time went, per stage, plus the number of
/// sweeps the BREAKPOINTS2 count fit ran. Sums over shards and over
/// successive generation builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStages {
    /// EXACT3 build, µs: the one `m`-way merge of the snapshot's curves,
    /// recorded for the B2 fit to replay, and the tree load it feeds.
    pub exact3_us: u64,
    /// Breakpoint construction (the BREAKPOINTS2 fit to `r`), µs.
    pub b2_us: u64,
    /// Every enabled APPX variant over the shared breakpoints, µs.
    pub appx_us: u64,
    /// Sweeps of the B2 count fit.
    pub b2_sweeps: u64,
}

impl BuildStages {
    /// `(stage label, µs)` pairs, the `stage` label values of the
    /// `*_stage_us` metric families.
    pub fn stage_us(&self) -> [(&'static str, u64); 3] {
        [("exact3", self.exact3_us), ("b2", self.b2_us), ("appx", self.appx_us)]
    }
}

impl std::ops::AddAssign for BuildStages {
    fn add_assign(&mut self, o: Self) {
        self.exact3_us += o.exact3_us;
        self.b2_us += o.b2_us;
        self.appx_us += o.appx_us;
        self.b2_sweeps += o.b2_sweeps;
    }
}

impl std::iter::Sum for BuildStages {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut acc, s| {
            acc += s;
            acc
        })
    }
}

impl std::fmt::Display for BuildStages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (stage, us) in self.stage_us() {
            write!(f, "{stage} {:.1} ms, ", us as f64 / 1e3)?;
        }
        write!(f, "{} b2 sweeps", self.b2_sweeps)
    }
}

/// Where a snapshot's APPX2+ reads the curves it re-scores QUERY2's
/// candidates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlusRescore {
    /// Its own packed prefix file, 24 bytes a point: a serve shard keeps
    /// no curves.
    PrefixFile,
    /// The caller's copy: the APPX2+ slot is a view over the QUERY2
    /// structure APPX2 shares, and [`BuiltRoutes::candidates`] hands the
    /// caller QUERY2's whole pool. A live shard, which re-scores every
    /// candidate from its columns anyway, builds this.
    Columns,
}

/// One snapshot's built route methods: the dyn-dispatch array the planner
/// routes through, plus the typed EXACT3 handle a persistence layer
/// captures page-for-page (both exact slots of the array hold `Arc` clones
/// of that one index — nothing is built twice).
pub struct BuiltRoutes {
    /// Per-[`Route`] methods, `None` where disabled.
    pub methods: [Option<SharedMethod>; 5],
    /// The one breakpoint set shared by every enabled APPX variant.
    pub breakpoints: Option<Breakpoints>,
    /// The shard's one time-ordered segment file (always built), behind
    /// both [`Route::Exact3`] and [`Route::Exact1`].
    pub exact3: Arc<Exact3>,
    /// What each stage of this build cost.
    pub stages: BuildStages,
    /// Bytes across the distinct index files: the EXACT3 tree both exact
    /// routes name and the QUERY2 structure APPX2 and APPX2+ share are in
    /// both routes' `size_bytes()` but once here.
    pub size_bytes: u64,
    /// Fixed once built, and read on every live reply: kept, not recomputed.
    route_bytes: [u64; 5],
    profiles: RouteProfiles,
    /// The APPX2+ slot when it is a view ([`PlusRescore::Columns`]).
    plus_view: Option<Arc<ApproxIndex>>,
}

impl BuiltRoutes {
    /// `size_bytes()` of every route's method (`0` where disabled). A
    /// file two routes share counts for both, so these can sum past
    /// [`BuiltRoutes::size_bytes`].
    pub fn route_bytes(&self) -> [u64; 5] {
        self.route_bytes
    }

    /// Profile of every built method, per route — the object-safe
    /// [`chronorank_core::TopKMethod::profile`] surface the planner
    /// dispatches on.
    pub fn profiles(&self) -> RouteProfiles {
        self.profiles
    }

    /// Cumulative IO across all of this snapshot's indexes: the EXACT3
    /// index once (both exact routes report its one counter — builds,
    /// queries, imaging and pool write-back alike), plus every APPX route's
    /// counter, which holds only what its own queries did — reads in the
    /// structure two of them share are credited to the route that asked —
    /// so the sum counts each block once.
    pub fn io_total(&self) -> IoStats {
        let appx = self.methods[Route::Appx1.idx()..].iter().flatten().map(|m| m.io_stats());
        std::iter::once(self.exact3.io_stats()).chain(appx).sum()
    }

    /// `top-k(t1, t2, sum)` on `route`, in the snapshot's own ids.
    pub fn probe(
        &self,
        route: Route,
        t1: f64,
        t2: f64,
        k: usize,
    ) -> Result<Vec<(ObjectId, f64)>, String> {
        let method = self.methods[route.idx()]
            .as_ref()
            .ok_or_else(|| format!("route {} not built in this snapshot", route.name()))?;
        let top = method.top_k(t1, t2, k, AggKind::Sum).map_err(|e| e.to_string())?;
        Ok(top.entries().to_vec())
    }

    /// The ids a caller that holds the curves re-scores for `top-k(t1, t2,
    /// k)` on `route`, in the snapshot's own ids: QUERY2's whole candidate
    /// pool on a [`PlusRescore::Columns`] APPX2+ slot, [`BuiltRoutes::probe`]'s
    /// top `k` on every other route.
    pub fn candidates(
        &self,
        route: Route,
        t1: f64,
        t2: f64,
        k: usize,
    ) -> Result<Vec<ObjectId>, String> {
        match &self.plus_view {
            Some(view) if route == Route::Appx2Plus => {
                view.candidates(t1, t2, k).map_err(|e| e.to_string())
            }
            _ => Ok(self.probe(route, t1, t2, k)?.into_iter().map(|(id, _)| id).collect()),
        }
    }
}

fn micros_since(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

/// Build the per-route methods one serve shard needs:
/// [`build_route_methods`] with APPX2+ re-scoring from its prefix file.
pub fn build_route_methods_with_handles(
    set: &TemporalSet,
    methods: MethodSet,
    approx: ApproxConfig,
    store: StoreConfig,
) -> chronorank_core::Result<BuiltRoutes> {
    build_route_methods(set, methods, approx, store, PlusRescore::PrefixFile)
}

/// Build the per-route methods one snapshot needs: EXACT3 (which also
/// fills the [`Route::Exact1`] slot, see [`MethodSet::exact1`]) and the
/// enabled APPX variants sharing one breakpoint set, keeping the concrete
/// EXACT3 handle a generation image captures page-for-page. The single
/// construction path for both serve shards and live generations, so what
/// backs a route is the same in both layers with one exception, `rescore`:
/// a serve shard holds no curves, so its APPX2+ re-scores from a prefix
/// file of its own; a live shard re-scores every candidate from its
/// columns, so its APPX2+ is a view over QUERY2 and keeps no second copy
/// of the points. The snapshot's curves are merged once: EXACT3 loads from
/// the merge and records its object order, which the B2 count fit replays.
pub fn build_route_methods(
    set: &TemporalSet,
    methods: MethodSet,
    approx: ApproxConfig,
    store: StoreConfig,
    rescore: PlusRescore,
) -> chronorank_core::Result<BuiltRoutes> {
    let t0 = Instant::now();
    let (exact3, order) = Exact3::build_recording_order(set, IndexConfig { store })?;
    let exact3_us = micros_since(t0);
    let t0 = Instant::now();
    let efficient = B2Construction::Efficient;
    let (breakpoints, b2_sweeps) = if methods.any_approx() {
        let (bp, fit) = Breakpoints::b2_with_count_stats_in_order(order, approx.r, efficient)?;
        (Some(bp), fit.sweeps as u64)
    } else {
        drop(order);
        (None, 0)
    };
    let b2_us = micros_since(t0);
    let mut built = assemble_route_methods(
        set,
        methods,
        approx,
        store,
        Arc::new(exact3),
        breakpoints,
        rescore,
    )?;
    built.stages = BuildStages { exact3_us, b2_us, b2_sweeps, ..built.stages };
    Ok(built)
}

/// Assemble the route array from a pre-built EXACT3 index plus a breakpoint
/// set, building only the APPX variants (deterministic given the
/// breakpoints; the one stage [`BuiltRoutes::stages`] times here). This is
/// the reopen path: a restart extracts EXACT3 and the breakpoints from a
/// generation image and rebuilds nothing else.
pub fn assemble_route_methods(
    set: &TemporalSet,
    methods: MethodSet,
    approx: ApproxConfig,
    store: StoreConfig,
    exact3: Arc<Exact3>,
    breakpoints: Option<Breakpoints>,
    rescore: PlusRescore,
) -> chronorank_core::Result<BuiltRoutes> {
    let t0 = Instant::now();
    let mut built: [Option<SharedMethod>; 5] = std::array::from_fn(|_| None);
    built[Route::Exact3.idx()] = Some(Box::new(Arc::clone(&exact3)));
    let mut shared_bytes = 0;
    if methods.exact1 {
        shared_bytes += exact3.size_bytes();
        built[Route::Exact1.idx()] = Some(Box::new(Arc::clone(&exact3)));
    }
    let approx = ApproxConfig { store, ..approx };
    // APPX2 and APPX2+ probe one QUERY2 structure: whichever is built
    // first builds it, the other shares it. An APPX2+ view is APPX2 over
    // that structure, re-labelled.
    let mut query2: Option<Arc<Query2Index>> = None;
    let mut plus_view = None;
    for (flag, route, variant) in [
        (methods.appx1, Route::Appx1, ApproxVariant::APPX1),
        (methods.appx2, Route::Appx2, ApproxVariant::APPX2),
        (methods.appx2_plus, Route::Appx2Plus, ApproxVariant::APPX2_PLUS),
    ] {
        if !flag {
            continue;
        }
        let env = Env::mem(store);
        let view = variant.plus && rescore == PlusRescore::Columns;
        let build = if view { ApproxVariant::APPX2 } else { variant };
        let idx = match &query2 {
            Some(q2) if variant.query == QueryKind::Q2 => {
                shared_bytes += q2.size_bytes();
                ApproxIndex::build_with_query2(env, set, build, approx, Arc::clone(q2))?
            }
            _ => {
                let bp = breakpoints.clone().expect("breakpoints exist when any approx is built");
                ApproxIndex::build_with_breakpoints(env, set, build, approx, bp)?
            }
        };
        query2 = query2.or_else(|| idx.query2().cloned());
        built[route.idx()] = Some(if view {
            let idx = Arc::new(idx.into_plus_view()?);
            plus_view = Some(Arc::clone(&idx));
            Box::new(idx)
        } else {
            Box::new(idx)
        });
    }
    let stages = BuildStages { appx_us: micros_since(t0), ..BuildStages::default() };
    let route_bytes: [u64; 5] =
        std::array::from_fn(|i| built[i].as_ref().map_or(0, |m| m.size_bytes()));
    let profiles = std::array::from_fn(|i| built[i].as_ref().map(|m| m.profile()));
    let size_bytes = route_bytes.iter().sum::<u64>() - shared_bytes;
    Ok(BuiltRoutes {
        methods: built,
        breakpoints,
        exact3,
        stages,
        size_bytes,
        route_bytes,
        profiles,
        plus_view,
    })
}

/// One partition's built, immutable index snapshot (see module docs).
/// Published as `Arc<Shard>`; every method takes `&self`.
pub(crate) struct Shard {
    built: BuiltRoutes,
    cache: Option<Mutex<ResultCache>>,
}

impl Shard {
    /// Build one partition's indexes per `cfg`. Runs wherever the caller
    /// wants (the engine builds all partitions concurrently); the result
    /// is immediately shareable.
    pub(crate) fn build(set: &TemporalSet, cfg: &ServeConfig) -> chronorank_core::Result<Self> {
        let built = build_route_methods_with_handles(set, cfg.methods, cfg.approx, cfg.store)?;
        let cache =
            (cfg.cache_capacity > 0).then(|| Mutex::new(ResultCache::new(cfg.cache_capacity)));
        Ok(Self { built, cache })
    }

    /// The built indexes, with their sizes, profiles, IO and build stages.
    pub(crate) fn built(&self) -> &BuiltRoutes {
        &self.built
    }

    /// What the shard's result cache has counted (zeros without one).
    pub(crate) fn cache_counters(&self) -> CacheCounters {
        self.cache.as_ref().map_or_else(CacheCounters::default, |cache| {
            cache.lock().unwrap_or_else(PoisonError::into_inner).counters()
        })
    }

    /// The routed index probe, in shard-local ids.
    fn probe(&self, route: Route, q: ServeQuery) -> ShardAnswer {
        self.built.probe(route, q.t1, q.t2, q.k)
    }
}

impl ShardProbe for Shard {
    /// [`dedup_window`] on the [`ProbeKey`], then per group the result
    /// cache on a snapped key — a frozen snapshot charges nothing, so a
    /// cached answer always hits — or the index probe.
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        let breakpoints = self.built.breakpoints.as_ref();
        let mut cache =
            self.cache.as_ref().map(|c| c.lock().unwrap_or_else(PoisonError::into_inner));
        dedup_window(
            window,
            |q, route| ProbeKey::new(q, route, breakpoints),
            |q, route, key| {
                let probe = || self.probe(route, *q);
                match (cache.as_deref_mut(), key) {
                    (Some(cache), ProbeKey::Snapped { .. }) => cache.answer(key, 0.0, 0.0, probe),
                    _ => (probe(), None),
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::IoCounter;
    use chronorank_workloads::{DatasetGenerator, TempConfig, TempGenerator};

    /// A shard that builds APPX2+ beside APPX2, so the two share QUERY2.
    fn shard() -> (TemporalSet, Shard) {
        let set =
            TempGenerator::new(TempConfig { objects: 200, avg_segments: 40, ..Default::default() })
                .generate_set();
        let methods = MethodSet { appx2_plus: true, ..Default::default() };
        let cfg = ServeConfig { cache_capacity: 0, methods, ..Default::default() };
        let shard = Shard::build(&set, &cfg).unwrap();
        (set, shard)
    }

    #[test]
    fn a_file_two_routes_share_is_sized_once() {
        let (set, shard) = shard();
        let [e1, e3, _, appx2, appx2_plus] = shard.built.route_bytes();
        // APPX2 is the QUERY2 structure alone; APPX2+ is the same structure
        // plus its prefix file.
        let plus = ApproxIndex::build_with_breakpoints(
            Env::mem(StoreConfig::default()),
            &set,
            ApproxVariant::APPX2_PLUS,
            ApproxConfig::default(),
            shard.built.breakpoints.clone().unwrap(),
        )
        .unwrap();
        let prefix = plus.rescorer().unwrap().size_bytes();
        assert_eq!(appx2_plus, appx2 + prefix);
        // Both exact routes are the one EXACT3 index.
        assert_eq!(e1, e3);
        assert_eq!(shard.built.size_bytes, e3 + appx2 + prefix, "distinct files only");
    }

    #[test]
    fn a_shared_read_is_charged_once_and_to_the_route_that_asked() {
        let (set, shard) = shard();
        let q =
            ServeQuery::exact(set.t_min() + 0.2 * set.span(), set.t_min() + 0.6 * set.span(), 10);
        let reads =
            |route: Route| shard.built.methods[route.idx()].as_ref().unwrap().io_stats().reads;
        for (asked, other) in [(Route::Appx2, Route::Appx2Plus), (Route::Appx2Plus, Route::Appx2)] {
            for m in shard.built.methods.iter().flatten() {
                m.drop_caches().unwrap();
            }
            let (total, own, others) = (shard.built.io_total().reads, reads(asked), reads(other));
            let before = IoCounter::thread_reads();
            shard.probe(asked, q).unwrap();
            let did = IoCounter::thread_reads() - before;
            assert!(did > 0, "{}: a cold probe reads", asked.name());
            assert_eq!(shard.built.io_total().reads - total, did, "{}: shard total", asked.name());
            assert_eq!(reads(asked) - own, did, "{}: its own counter", asked.name());
            assert_eq!(reads(other), others, "{}: the sharer's counter", other.name());
        }
    }

    #[test]
    fn the_exact3_index_is_counted_once_under_both_route_names() {
        let (set, shard) = shard();
        let q =
            ServeQuery::exact(set.t_min() + 0.2 * set.span(), set.t_min() + 0.21 * set.span(), 10);
        let io = |route: Route| shard.built.methods[route.idx()].as_ref().unwrap().io_stats();
        for asked in [Route::Exact1, Route::Exact3] {
            shard.built.exact3.drop_caches().unwrap();
            let total = shard.built.io_total().reads;
            let before = IoCounter::thread_reads();
            shard.probe(asked, q).unwrap();
            let did = IoCounter::thread_reads() - before;
            assert!(did > 0, "{}: a cold probe reads", asked.name());
            assert_eq!(shard.built.io_total().reads - total, did, "{}: shard total", asked.name());
            assert_eq!(io(Route::Exact1), io(Route::Exact3), "one index, one counter");
        }
    }
}
