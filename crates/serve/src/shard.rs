//! Shared-snapshot shards: one partition's indexes, built once, queried by
//! any number of worker threads.
//!
//! Since the storage layer became `Send + Sync` (atomic IO counters, a
//! mutex-guarded buffer pool), a fully built index is an immutable
//! snapshot. A [`Shard`] bundles one partition's built methods behind an
//! `Arc`: the engine's worker pool scatters every query to all shards and
//! any free worker answers any shard's part — true parallel
//! scatter-gather over shared state, with no per-worker index duplication.
//!
//! The only mutable piece is the shard-local result cache (a small LRU
//! behind its own [`Mutex`]; the critical section is a key lookup or an
//! insert, never an index probe).

use crate::cache::LruCache;
use crate::config::ServeConfig;
use crate::planner::{MethodSet, Route, RouteProfiles};
use crate::query::ServeQuery;
use chronorank_core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, Breakpoints, Exact3, IndexConfig, ObjectId,
    Query2Index, QueryKind, RankMethod, SharedMethod, TemporalSet,
};
use chronorank_storage::{Env, IoStats, StoreConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shard-local ranked answer (global ids, descending score) or an error
/// message — what every shard, serve or live, hands the gather.
pub type ShardAnswer = Result<Vec<(ObjectId, f64)>, String>;

/// One partition as the worker pool sees it — the seam both engines share:
/// serve's immutable `Shard` snapshot, and live's mutable shard state
/// behind its own lock.
pub trait ShardProbe: Send + Sync {
    /// Answer this shard's view of one routed window, one entry per query
    /// in window order: the shard-local answer, and `Some(hit)` when the
    /// shard's result cache was consulted (`None` = the route bypassed it).
    /// Queries that collapse onto one [`ProbeKey`] share one probe.
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)>;
}

/// The shard-local result cache under its lock (only ever holds
/// [`ProbeKey::Snapped`] keys).
type ResultCache = Mutex<LruCache<ProbeKey, Vec<(ObjectId, f64)>>>;

/// Per-shard facts the engine folds into the planner and report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardFacts {
    pub m: u64,
    pub n: u64,
    /// This partition's time domain (the engine merges all shards').
    pub t_min: f64,
    pub t_max: f64,
}

/// What fully determines a shard-local answer on one snapshot: the route,
/// `k`, and the interval — **snapped** to breakpoint indexes on the routes
/// that answer from the snapped interval alone ([`Route::cacheable`]), its
/// raw bits on the rest. The one key behind both the result caches (which
/// hold snapped keys only) and the probe dedup inside a window.
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
        let k = q.k as u32;
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
    /// EXACT3 build, µs.
    pub exact3_us: u64,
    /// Breakpoint construction (the `r` fit or the fixed-`ε` sweep), µs.
    pub b2_us: u64,
    /// Every enabled APPX variant over the shared breakpoints, µs.
    pub appx_us: u64,
    /// Sweeps of the B2 count fit (`1` per build under a fixed `ε`).
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
}

fn micros_since(t0: Instant) -> u64 {
    t0.elapsed().as_micros() as u64
}

/// Build the per-route methods one serving snapshot needs: EXACT3 (which
/// also fills the [`Route::Exact1`] slot, see [`MethodSet::exact1`]) and
/// the enabled APPX variants sharing one breakpoint set, keeping the
/// concrete EXACT3 handle a generation image captures page-for-page. The
/// single construction path for both serve shards and live generations —
/// the two layers must never diverge in what a route is backed by.
pub fn build_route_methods_with_handles(
    set: &TemporalSet,
    methods: MethodSet,
    approx: ApproxConfig,
    store: StoreConfig,
) -> chronorank_core::Result<BuiltRoutes> {
    let t0 = Instant::now();
    let exact3 = Arc::new(Exact3::build(set, IndexConfig { store })?);
    let exact3_us = micros_since(t0);
    let t0 = Instant::now();
    let (breakpoints, b2_sweeps) = if !methods.any_approx() {
        (None, 0)
    } else if let Some(eps) = approx.eps {
        (Some(Breakpoints::b2_with_eps(set, eps, approx.b2)?), 1)
    } else {
        let (bp, fit) = Breakpoints::b2_with_count_stats(set, approx.r, approx.b2)?;
        (Some(bp), fit.sweeps as u64)
    };
    let b2_us = micros_since(t0);
    let mut built = assemble_route_methods(set, methods, approx, store, exact3, breakpoints)?;
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
    // first builds it, the other shares it.
    let mut query2: Option<Arc<Query2Index>> = None;
    for (flag, route, variant) in [
        (methods.appx1, Route::Appx1, ApproxVariant::APPX1),
        (methods.appx2, Route::Appx2, ApproxVariant::APPX2),
        (methods.appx2_plus, Route::Appx2Plus, ApproxVariant::APPX2_PLUS),
    ] {
        if !flag {
            continue;
        }
        let env = Env::mem(store);
        let idx = match &query2 {
            Some(q2) if variant.query == QueryKind::Q2 => {
                shared_bytes += q2.size_bytes();
                ApproxIndex::build_with_query2(env, set, variant, approx, Arc::clone(q2))?
            }
            _ => {
                let bp = breakpoints.clone().expect("breakpoints exist when any approx is built");
                ApproxIndex::build_with_breakpoints(env, set, variant, approx, bp)?
            }
        };
        query2 = query2.or_else(|| idx.query2().cloned());
        built[route.idx()] = Some(Box::new(idx));
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
    })
}

/// One partition's built, immutable index snapshot (see module docs).
/// Published as `Arc<Shard>`; every method takes `&self`.
pub(crate) struct Shard {
    built: BuiltRoutes,
    cache: Option<ResultCache>,
    /// Local dense id → global id.
    global_ids: Vec<ObjectId>,
    /// Emulated device latency per block read
    /// ([`ServeConfig::simulated_read_latency`]).
    latency: Option<Duration>,
    facts: ShardFacts,
}

impl Shard {
    /// Build one partition's indexes per `cfg`. Runs wherever the caller
    /// wants (the engine builds all partitions concurrently); the result
    /// is immediately shareable.
    pub(crate) fn build(
        set: &TemporalSet,
        global_ids: Vec<ObjectId>,
        cfg: &ServeConfig,
    ) -> chronorank_core::Result<Self> {
        let built = build_route_methods_with_handles(set, cfg.methods, cfg.approx, cfg.store)?;
        let facts = ShardFacts {
            m: set.num_objects() as u64,
            n: set.num_segments(),
            t_min: set.t_min(),
            t_max: set.t_max(),
        };
        let cache = (cfg.cache_capacity > 0).then(|| Mutex::new(LruCache::new(cfg.cache_capacity)));
        Ok(Self { built, cache, global_ids, latency: cfg.simulated_read_latency, facts })
    }

    pub(crate) fn facts(&self) -> ShardFacts {
        self.facts
    }

    /// The built indexes, with their sizes, profiles, IO and build stages.
    pub(crate) fn built(&self) -> &BuiltRoutes {
        &self.built
    }

    /// `(hits, lookups)` of the shard-local result cache.
    pub(crate) fn cache_counters(&self) -> (u64, u64) {
        match &self.cache {
            Some(cache) => {
                let cache = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                (cache.hits(), cache.hits() + cache.misses())
            }
            None => (0, 0),
        }
    }

    /// Answer one routed query (`key` is its [`ProbeKey`] on this shard),
    /// consulting the result cache when the key is a snapped one. `&self`:
    /// any worker thread may answer for any shard. The second return is
    /// `Some(hit)` when the result cache was consulted (`None` = the route
    /// bypassed it) — what the engine folds into a query-level
    /// [`chronorank_obs::CacheOutcome`].
    fn answer(&self, q: ServeQuery, route: Route, key: ProbeKey) -> (ShardAnswer, Option<bool>) {
        let (Some(cache), ProbeKey::Snapped { .. }) = (&self.cache, key) else {
            return (self.probe(route, q), None);
        };
        if let Some(hit) =
            cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&key).cloned()
        {
            return (Ok(hit), Some(true));
        }
        // The index probe runs outside the cache lock; two workers racing
        // on the same cold key both probe and the second insert wins —
        // identical answers either way (cached == uncached is bit-exact).
        let res = self.probe(route, q);
        if let Ok(entries) = &res {
            cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(key, entries.clone());
        }
        (res, Some(false))
    }

    /// Run the routed index probe and translate ids to the global space.
    fn probe(&self, route: Route, q: ServeQuery) -> ShardAnswer {
        let device = self.latency.map(|l| (l, chronorank_storage::IoCounter::thread_reads()));
        let top = self.built.probe(route, q.t1, q.t2, q.k)?;
        if let Some((latency, before)) = device {
            // Emulated device: sleep once per block read THIS probe did.
            // The thread-local tally attributes reads exactly to the
            // calling worker, so concurrent probes on one shard never
            // smear into each other's sleep time — the emulation is
            // deterministic at any pool size.
            let reads = chronorank_storage::IoCounter::thread_reads() - before;
            if reads > 0 {
                std::thread::sleep(latency.saturating_mul(reads.min(u32::MAX as u64) as u32));
            }
        }
        Ok(top.into_iter().map(|(id, s)| (self.global_ids[id as usize], s)).collect())
    }
}

impl ShardProbe for Shard {
    /// Queries that collapse onto the same [`ProbeKey`] are answered by
    /// **one** probe whose result is cloned to every group member, so the
    /// result cache sees exactly one lookup per group per window (the
    /// probe-dedup regression test pins this). Bit-identical to answering
    /// every query alone: the key holds the whole probe input.
    fn answer_batch(&self, window: &[(ServeQuery, Route)]) -> Vec<(ShardAnswer, Option<bool>)> {
        let mut first_of: HashMap<ProbeKey, usize> = HashMap::with_capacity(window.len());
        let mut out: Vec<(ShardAnswer, Option<bool>)> = Vec::with_capacity(window.len());
        for (q, route) in window {
            let key = ProbeKey::new(q, *route, self.built.breakpoints.as_ref());
            let answered = match first_of.entry(key) {
                Entry::Occupied(e) => out[*e.get()].clone(),
                Entry::Vacant(e) => {
                    e.insert(out.len());
                    self.answer(*q, *route, key)
                }
            };
            out.push(answered);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::IoCounter;
    use chronorank_workloads::{DatasetGenerator, TempConfig, TempGenerator};

    fn shard() -> (TemporalSet, Shard) {
        let set =
            TempGenerator::new(TempConfig { objects: 200, avg_segments: 40, ..Default::default() })
                .generate_set();
        let cfg = ServeConfig { cache_capacity: 0, ..Default::default() };
        let ids = (0..set.num_objects() as ObjectId).collect();
        let shard = Shard::build(&set, ids, &cfg).unwrap();
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
