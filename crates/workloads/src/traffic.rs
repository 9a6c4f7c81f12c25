//! Multi-client traffic plans for closed-loop load generation.
//!
//! A network serving tier is not driven by one query stream but by `C`
//! concurrent **closed-loop clients**: each keeps a bounded number of
//! requests in flight and issues the next one only as answers return, so
//! offered load adapts to service capacity instead of queueing without
//! bound (the classic closed-loop load-generator model).
//!
//! [`ClosedLoopTraffic`] produces the *plan* for such a fleet: one
//! deterministic query stream per client, dealt round-robin from a single
//! [`QueryWorkload`] — so the fleet as a whole asks exactly the workload's
//! query population (hotspots stay shared across clients, which is what
//! makes a server-side result cache see realistic cross-client reuse),
//! while each client holds a different interleaving of it. The driver
//! (e.g. the benchmark's `zipf_wire` workload) maps each stream onto one
//! connection.

use crate::query::{QueryInterval, QueryWorkload, QueryWorkloadConfig};

/// Configuration for [`ClosedLoopTraffic`].
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Concurrent closed-loop clients `C` (≥ 1).
    pub clients: usize,
    /// Queries *per client* (the fleet issues `clients ×` this).
    pub queries_per_client: usize,
    /// The shared query population all clients draw from.
    pub workload: QueryWorkloadConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self { clients: 4, queries_per_client: 100, workload: QueryWorkloadConfig::default() }
    }
}

/// A deterministic per-client split of one query workload (see module
/// docs).
#[derive(Debug, Clone)]
pub struct ClosedLoopTraffic {
    streams: Vec<Vec<QueryInterval>>,
    hotspots: Vec<QueryInterval>,
}

impl ClosedLoopTraffic {
    /// Build the plan over the data domain `[t_min, t_max]`.
    pub fn new(config: TrafficConfig, t_min: f64, t_max: f64) -> Self {
        assert!(config.clients >= 1, "need at least one client");
        let workload = QueryWorkload::new(
            QueryWorkloadConfig {
                count: config.clients * config.queries_per_client,
                ..config.workload
            },
            t_min,
            t_max,
        );
        let all = workload.generate();
        let mut streams = vec![Vec::with_capacity(config.queries_per_client); config.clients];
        for (i, q) in all.into_iter().enumerate() {
            streams[i % config.clients].push(q);
        }
        Self { streams, hotspots: workload.hotspots() }
    }

    /// One query stream per client, client order. Every stream has
    /// exactly `queries_per_client` entries.
    pub fn streams(&self) -> &[Vec<QueryInterval>] {
        &self.streams
    }

    /// The hotspot intervals shared by every client's stream (empty for a
    /// uniform workload) — warm these once for steady-state measurements.
    pub fn hotspots(&self) -> &[QueryInterval] {
        &self.hotspots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::IntervalPattern;

    fn config(clients: usize, per: usize) -> TrafficConfig {
        TrafficConfig {
            clients,
            queries_per_client: per,
            workload: QueryWorkloadConfig {
                span_fraction: 0.2,
                k: 5,
                seed: 13,
                pattern: IntervalPattern::Zipf { hotspots: 4, exponent: 1.0, background: 0.1 },
                ..Default::default()
            },
        }
    }

    #[test]
    fn deals_the_whole_population_round_robin() {
        let plan = ClosedLoopTraffic::new(config(3, 20), 0.0, 1000.0);
        assert_eq!(plan.streams().len(), 3);
        assert!(plan.streams().iter().all(|s| s.len() == 20));
        assert_eq!(plan.streams.iter().map(Vec::len).sum::<usize>(), 60);
        // The union of the streams is exactly the underlying workload.
        let workload = QueryWorkload::new(
            QueryWorkloadConfig { count: 60, ..config(3, 20).workload },
            0.0,
            1000.0,
        );
        let all = workload.generate();
        for (i, q) in all.iter().enumerate() {
            assert_eq!(plan.streams()[i % 3][i / 3], *q);
        }
    }

    #[test]
    fn clients_share_hotspots_but_not_orderings() {
        let plan = ClosedLoopTraffic::new(config(2, 200), 0.0, 500.0);
        assert_eq!(plan.hotspots().len(), 4);
        let hits = |stream: &[QueryInterval]| {
            stream.iter().filter(|q| plan.hotspots().contains(q)).count()
        };
        // Both clients hammer the same hot intervals...
        assert!(hits(&plan.streams()[0]) > 100);
        assert!(hits(&plan.streams()[1]) > 100);
        // ...but hold different interleavings of the population.
        assert_ne!(plan.streams()[0], plan.streams()[1]);
    }

    #[test]
    fn plan_is_deterministic() {
        let a = ClosedLoopTraffic::new(config(4, 25), 0.0, 100.0);
        let b = ClosedLoopTraffic::new(config(4, 25), 0.0, 100.0);
        assert_eq!(a.streams(), b.streams());
    }
}
