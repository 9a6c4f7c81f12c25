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
