//! Aggregated serving statistics.

use crate::planner::Route;
use crate::shard::BuildStages;
use chronorank_storage::IoStats;

/// Per-route serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteStats {
    /// Queries the planner sent down this route.
    pub queries: u64,
    /// Coordinator-side wall seconds spent on those queries (for streams,
    /// the stream's elapsed time is apportioned evenly over its queries).
    pub secs: f64,
}

/// A snapshot of everything the engine has served so far.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Worker (shard) count.
    pub workers: usize,
    /// Total queries answered.
    pub queries: u64,
    /// Total coordinator wall seconds across all queries/streams.
    pub elapsed_secs: f64,
    /// Per-route counters, [`Route::ALL`] order.
    pub routes: [RouteStats; 5],
    /// Shard-level result-cache hits (one lookup per shard per cacheable
    /// query).
    pub cache_hits: u64,
    /// Shard-level result-cache lookups.
    pub cache_lookups: u64,
    /// Block IOs summed over every shard's indexes (cumulative snapshots,
    /// merged with the `IoStats: Sum` helper).
    pub io: IoStats,
    /// Bytes of index structures across all shards.
    pub index_bytes: u64,
    /// Wall seconds the engine spent building all shards (concurrent
    /// workers overlap, so this is less than the per-shard sum).
    pub build_secs: f64,
    /// Where the build went, per stage, summed over shards (so up to
    /// `workers ×` [`ServeReport::build_secs`]).
    pub build_stages: BuildStages,
}

impl ServeReport {
    /// Overall queries per second (0 when nothing was served).
    pub fn qps(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.queries as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Cache hit rate over cacheable lookups (0 when none happened).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups > 0 {
            self.cache_hits as f64 / self.cache_lookups as f64
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve report: W = {}, {} queries in {:.3}s ({:.0} q/s)",
            self.workers,
            self.queries,
            self.elapsed_secs,
            self.qps()
        )?;
        writeln!(
            f,
            "  cache: {}/{} shard lookups hit ({:.1}%)",
            self.cache_hits,
            self.cache_lookups,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "  io: {} block reads, {} writes | index: {:.1} MiB | build {:.2}s",
            self.io.reads,
            self.io.writes,
            self.index_bytes as f64 / (1 << 20) as f64,
            self.build_secs
        )?;
        writeln!(f, "  build stages: {}", self.build_stages)?;
        for (route, rs) in Route::ALL.iter().zip(&self.routes) {
            if rs.queries > 0 {
                writeln!(
                    f,
                    "  {:>7}: {:>7} queries, {:.3} ms avg",
                    route.name(),
                    rs.queries,
                    1000.0 * rs.secs / rs.queries as f64
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let r = ServeReport {
            workers: 2,
            queries: 0,
            elapsed_secs: 0.0,
            routes: [RouteStats::default(); 5],
            cache_hits: 0,
            cache_lookups: 0,
            io: IoStats::default(),
            index_bytes: 0,
            build_secs: 0.0,
            build_stages: BuildStages::default(),
        };
        assert_eq!(r.qps(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        let text = r.to_string();
        assert!(text.contains("W = 2"));
    }

    #[test]
    fn display_lists_active_routes_only() {
        let mut routes = [RouteStats::default(); 5];
        routes[Route::Appx2.idx()] = RouteStats { queries: 10, secs: 0.01 };
        let r = ServeReport {
            workers: 4,
            queries: 10,
            elapsed_secs: 0.01,
            routes,
            cache_hits: 30,
            cache_lookups: 40,
            io: IoStats { reads: 5, ..Default::default() },
            index_bytes: 1 << 20,
            build_secs: 0.5,
            build_stages: BuildStages::default(),
        };
        let text = r.to_string();
        assert!(text.contains("APPX2"), "{text}");
        assert!(!text.contains("EXACT1"), "{text}");
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!(r.qps() > 0.0);
    }
}
