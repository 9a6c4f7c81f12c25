//! Serve-tier instrumentation: pre-registered handles the engine bumps
//! on its hot paths, plus the slow-query flight recorder.
//!
//! Every handle is resolved once, at engine construction — the scatter
//! hot path never touches the registry mutex. With a
//! [`Registry::noop`] source every operation below degenerates to a
//! branch on `None`; `tests/obs_counts.rs` pins what the live side adds
//! per query (two metric updates, three with the result cache, and no
//! heap allocation).

use crate::planner::Route;
use crate::shard::BuildStages;
use chronorank_obs::{CacheOutcome, Counter, FlightRecorder, Histogram, Registry};

/// How many [`chronorank_obs::QueryTrace`]s the engine retains.
pub(crate) const RECORDER_CAPACITY: usize = 64;
/// Default slow-query threshold: queries at or above this many µs are
/// traced. Tunable per engine via
/// [`crate::ServeEngine::set_slow_query_threshold_us`].
pub(crate) const DEFAULT_SLOW_QUERY_US: u64 = 1_000;

/// The serve engine's observability handles (see module docs).
pub(crate) struct ServeObs {
    pub registry: Registry,
    /// End-to-end latency per route, µs.
    pub route_latency_us: [Histogram; 5],
    /// Planner decisions per route.
    pub route_decisions: [Counter; 5],
    /// Queries every shard answered from its result cache, and queries
    /// at least one shard's cache missed (either counts a query once,
    /// whatever its route; a shard without a cache counts nothing).
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub recorder: FlightRecorder,
}

impl ServeObs {
    /// Count a window's folded per-query cache outcomes: at most one
    /// update per counter, not one per shard or query.
    pub fn cache_outcomes(&self, outcomes: &[CacheOutcome]) {
        let add = |counter: &Counter, of: fn(&CacheOutcome) -> bool| {
            let n = outcomes.iter().filter(|o| of(o)).count() as u64;
            if n > 0 {
                counter.add(n);
            }
        };
        add(&self.cache_hits, |o| *o == CacheOutcome::Hit);
        add(&self.cache_misses, |o| matches!(o, CacheOutcome::Miss | CacheOutcome::Partial));
    }

    /// Resolve every handle against `registry`. A no-op registry yields
    /// no-op handles and a no-op recorder.
    pub fn attach(registry: &Registry) -> Self {
        let latency = |route: Route| {
            registry.histogram_with(
                "chronorank_serve_route_latency_us",
                "end-to-end serve latency per planner route, microseconds",
                &[("route", route.name())],
            )
        };
        let decisions = |route: Route| {
            registry.counter_with(
                "chronorank_serve_route_total",
                "planner routing decisions per route",
                &[("route", route.name())],
            )
        };
        let recorder = if registry.is_noop() {
            FlightRecorder::noop()
        } else {
            FlightRecorder::new(RECORDER_CAPACITY, DEFAULT_SLOW_QUERY_US)
        };
        Self {
            registry: registry.clone(),
            route_latency_us: Route::ALL.map(latency),
            route_decisions: Route::ALL.map(decisions),
            cache_hits: registry.counter(
                "chronorank_serve_cache_hits_total",
                "queries every shard answered from its result cache",
            ),
            cache_misses: registry.counter(
                "chronorank_serve_cache_misses_total",
                "queries at least one shard's result cache missed",
            ),
            recorder,
        }
    }
}

/// The gauges both engines' `sync_obs` write, by one
/// [`ShardGauges::sync`].
#[derive(Debug, Clone, Copy)]
pub struct ShardGauges {
    /// Shard count.
    pub workers: usize,
    /// Queries answered.
    pub queries: u64,
    /// Result-cache hits and lookups, summed over shards.
    pub cache: (u64, u64),
    /// Bytes across the shards' installed indexes.
    pub index_bytes: u64,
    /// Build time per stage and B2 sweeps, summed over shards and builds.
    pub build_stages: BuildStages,
    /// Bytes of the files each route reads, summed over shards.
    pub route_bytes: [u64; 5],
}

impl ShardGauges {
    /// Set `chronorank_{tier}_{workers, queries, cache_hits,
    /// cache_lookups, index_bytes}`, `chronorank_{tier}_{build}_stage_us`
    /// by stage, `chronorank_{tier}_{build}_b2_sweeps` and
    /// `chronorank_{tier}_route_index_bytes` by route in `registry`.
    pub fn sync(&self, registry: &Registry, tier: &str, build: &str) {
        let name = |gauge: &str| format!("chronorank_{tier}_{gauge}");
        let g = |gauge: &str, help: &str, v| registry.gauge(&name(gauge), help).set_u64(v);
        let per = |gauge: &str, help: &str, label, v| {
            registry.gauge_with(&name(gauge), help, &[label]).set_u64(v);
        };
        g("workers", "shard count", self.workers as u64);
        g("queries", "queries answered", self.queries);
        g("cache_hits", "shard result-cache hits", self.cache.0);
        g("cache_lookups", "shard result-cache lookups", self.cache.1);
        g("index_bytes", "bytes across the shards' installed indexes", self.index_bytes);
        let help = "index build time per stage, summed over shards and builds, microseconds";
        for (stage, us) in self.build_stages.stage_us() {
            per(&format!("{build}_stage_us"), help, ("stage", stage), us);
        }
        let help = "sweeps the BREAKPOINTS2 count fit ran, summed over shards and builds";
        g(&format!("{build}_b2_sweeps"), help, self.build_stages.b2_sweeps);
        let help = "bytes of the files each route reads, summed over shards (a shared file counts for every route using it: EXACT1 is the EXACT3 tree)";
        for route in Route::ALL {
            per("route_index_bytes", help, ("route", route.name()), self.route_bytes[route.idx()]);
        }
    }
}
