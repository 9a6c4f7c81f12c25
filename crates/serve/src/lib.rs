//! # chronorank-serve — sharded, cost-routed query serving with result caching
//!
//! The paper's evaluation (§5) is about answering aggregate top-k queries
//! over large temporal data (`m ≈ 1.5M`, `N = 10⁸`); this crate is the
//! layer that serves a *stream* of such queries. Its [`Engine`] is the one
//! engine body — a [`ServeEngine`] is one over immutable shards, and
//! `chronorank-live`'s ingest engine owns one over live shards — that
//!
//! 1. **shards** a [`TemporalSet`] into `W` partitions (round-robin by
//!    object id) that a [`WorkerPool`] builds concurrently and owns, one
//!    worker thread per shard: worker `i` answers shard `i`'s part of
//!    every query, all shards in parallel, and the shard-local top-k lists
//!    are k-way merged ([`merge_ranked`]; exact, because shards partition
//!    the objects). There is one query body, [`Engine::execute`]: a
//!    *window* of queries goes to every shard's worker as one job
//!    ([`WorkerPool::scatter_gather`]) and comes back as one [`Answer`]
//!    per query; [`Engine::query`] and its routed / spanned variants are
//!    windows of one. It takes `&self`, so an engine is shared across
//!    caller threads;
//! 2. **routes** each query with a cost-based [`Planner`] built on
//!    [`chronorank_core::cost_model`] (the paper's Figure-3 table as
//!    executable formulas). Per query `(t1, t2, k, tolerance)` it picks:
//!
//!    | tolerance | route | paper cost (Fig. 3) |
//!    |-----------|-------|---------------------|
//!    | exact | EXACT3 (§2) | `O(log_B N + m/B)` |
//!    | `ε`-budget, `α = 1` ranks | APPX1 (§3.2) | `O(k/B + log_B r)` |
//!    | `ε`-budget, loose ranks | APPX2 (§3.2) | `O(k log r)` |
//!    | `ε`-budget, tight ranks, no APPX1 | APPX2+ (§3.3) | `O(k log r log_B n)` |
//!
//!    with an exact fallback whenever the budget is unsatisfiable (`ε`
//!    below the achieved breakpoint `ε`, `k > kmax`, or no built method
//!    gives the ranks asked for). A default [`MethodSet`] builds EXACT3
//!    and APPX2 only: APPX2+ pays for its prefix file only on Meme-shaped
//!    sets above about 30 k objects per shard, so a tight-ranks query gets
//!    EXACT3's exact answer unless the caller opts in to APPX1 or APPX2+;
//! 3. **caches** every answer in a shard-local [`ResultCache`] on its
//!    [`ProbeKey`]: the *snapped* breakpoint pair `(B(t1), B(t2), k)` on
//!    APPX1/APPX2, whose answers depend only on the snapped interval, the
//!    raw interval on EXACT3 and APPX2+ — so hot intervals are answered
//!    without touching any index. A live shard runs the same cache (its
//!    §4 staleness account charged by appends), window dedup
//!    ([`dedup_window`]) and id arithmetic ([`to_local`], [`to_global`]):
//!    the two shards differ only in how one probe is answered;
//! 4. **reports** per-route throughput and latency, cache hit rates, and
//!    cross-thread aggregated [`chronorank_storage::IoStats`] snapshots in
//!    a [`ServeReport`].
//!
//! ## Example
//!
//! ```
//! use chronorank_serve::{ServeConfig, ServeEngine, ServeQuery};
//! use chronorank_core::TemporalSet;
//! use chronorank_curve::PiecewiseLinear;
//!
//! let curves: Vec<_> = (0..32)
//!     .map(|i| {
//!         PiecewiseLinear::from_points(&[(0.0, i as f64), (100.0, (32 - i) as f64)]).unwrap()
//!     })
//!     .collect();
//! let set = TemporalSet::from_curves(curves).unwrap();
//! let engine =
//!     ServeEngine::new(&set, ServeConfig { workers: 4, ..Default::default() }).unwrap();
//! // An exact query and an approximate one (ε-budget 5% of total mass).
//! let exact = engine.query(ServeQuery::exact(10.0, 60.0, 5)).unwrap();
//! let appx = engine.query(ServeQuery::approx(10.0, 60.0, 5, 0.05)).unwrap();
//! assert_eq!(exact.len(), 5);
//! assert_eq!(appx.len(), 5);
//! println!("{}", engine.report());
//! ```
//!
//! [`TemporalSet`]: chronorank_core::TemporalSet

#![forbid(unsafe_code)]

mod cache;
mod config;
mod engine;
mod obs;
mod planner;
mod query;
mod report;
mod shard;

pub use cache::{CacheCounters, ResultCache};
pub use config::ServeConfig;
pub use engine::{
    merge_ranked, partition, to_global, to_local, Answer, Engine, QueryCounters, ServeEngine,
    ServeError, WorkerPool,
};
pub use obs::ShardGauges;
pub use planner::{
    merge_profiles, Freshness, MethodSet, Planner, PlannerParams, Route, RouteProfiles,
};
pub use query::{ServeQuery, Tolerance};
pub use report::{rate, RouteStats, ServeReport};
pub use shard::{
    assemble_route_methods, build_route_methods, build_route_methods_with_handles, dedup_window,
    BuildStages, BuiltRoutes, PlusRescore, ProbeKey, Shard, ShardAnswer, ShardProbe,
};

/// Render a `catch_unwind` payload into a readable error message. Shared
/// by every layer that converts panics into `Err`s (this crate's pool
/// workers and shard builds, `chronorank-live`'s shard boots, applies and
/// generation builds).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}
