//! The slow-query flight recorder: a fixed-capacity ring of structured
//! per-query traces.
//!
//! The recorder sits *off* the hot path by construction: callers first
//! compare a query's elapsed time against [`FlightRecorder::threshold_us`]
//! (one relaxed atomic load) and only a qualifying slow query pays the
//! ring's mutex — a push and maybe a pop, never an index probe.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a query interacted with the shard result caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Every shard answered from its cache.
    Hit,
    /// No shard answered from its cache (cold keys).
    Miss,
    /// Some shards hit, some missed.
    Partial,
    /// No shard consulted a result cache (caching is off).
    Bypass,
}

impl CacheOutcome {
    /// Stable lowercase name (trace rendering and tests).
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Partial => "partial",
            CacheOutcome::Bypass => "bypass",
        }
    }

    /// Fold one shard's hit/miss into a query-level outcome.
    pub fn fold(self, shard_hit: bool) -> CacheOutcome {
        match (self, shard_hit) {
            (CacheOutcome::Bypass, true) => CacheOutcome::Hit,
            (CacheOutcome::Bypass, false) => CacheOutcome::Miss,
            (CacheOutcome::Hit, true) => CacheOutcome::Hit,
            (CacheOutcome::Miss, false) => CacheOutcome::Miss,
            _ => CacheOutcome::Partial,
        }
    }
}

/// IO a query caused, as a plain counter delta (mirrors
/// `chronorank_storage::IoStats` without the dependency).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoDelta {
    /// Block reads.
    pub reads: u64,
    /// Block writes.
    pub writes: u64,
    /// WAL appends.
    pub wal_writes: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
}

/// One shard's contribution to a query's fan-out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSpan {
    /// Shard index.
    pub shard: usize,
    /// Wall time the shard's probe took, in µs.
    pub elapsed_us: u64,
    /// Block reads the probe performed (thread-attributed).
    pub reads: u64,
    /// Whether this shard answered from its result cache.
    pub cache_hit: bool,
}

/// A structured record of one (slow) query.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Route name the planner chose (`"EXACT1"`, `"APPX2"`, …).
    pub route: &'static str,
    /// Query interval.
    pub t1: f64,
    /// Query interval.
    pub t2: f64,
    /// Requested k.
    pub k: usize,
    /// End-to-end latency in µs (for streams: the slowest shard span).
    pub total_us: u64,
    /// Query-level cache outcome folded over all shards.
    pub cache: CacheOutcome,
    /// Per-shard fan-out timings, shard order.
    pub shards: Vec<ShardSpan>,
    /// IO the query caused across all shards.
    pub io: IoDelta,
}

struct RecorderInner {
    capacity: usize,
    threshold_us: AtomicU64,
    ring: Mutex<VecDeque<QueryTrace>>,
}

/// Fixed-capacity ring buffer of [`QueryTrace`]s (see module docs).
#[derive(Clone, Default)]
pub struct FlightRecorder(Option<Arc<RecorderInner>>);

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("len", &self.len())
            .field("threshold_us", &self.threshold_us())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` qualifying traces; queries
    /// at or above `threshold_us` qualify.
    pub fn new(capacity: usize, threshold_us: u64) -> Self {
        FlightRecorder(Some(Arc::new(RecorderInner {
            capacity: capacity.max(1),
            threshold_us: AtomicU64::new(threshold_us),
            ring: Mutex::new(VecDeque::new()),
        })))
    }

    /// A recorder that drops everything (no-op instrumentation).
    pub fn noop() -> Self {
        FlightRecorder(None)
    }

    /// The current slow-query threshold in µs.
    pub fn threshold_us(&self) -> u64 {
        self.0.as_ref().map_or(u64::MAX, |r| r.threshold_us.load(Ordering::Relaxed))
    }

    /// Re-arm the slow-query threshold (µs). `0` records every query.
    pub fn set_threshold_us(&self, us: u64) {
        if let Some(r) = &self.0 {
            r.threshold_us.store(us, Ordering::Relaxed);
        }
    }

    /// Whether a query of `total_us` qualifies — the hot-path gate, one
    /// relaxed load.
    #[inline]
    pub fn qualifies(&self, total_us: u64) -> bool {
        match &self.0 {
            Some(r) => total_us >= r.threshold_us.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Record a trace (caller has already checked [`Self::qualifies`];
    /// re-checked here so direct calls stay correct).
    pub fn record(&self, trace: QueryTrace) {
        let Some(r) = &self.0 else { return };
        if trace.total_us < r.threshold_us.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = r.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() == r.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Traces currently held, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        match &self.0 {
            Some(r) => r
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Traces currently held.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |r| r.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take-and-clear: every held trace, oldest first, leaving the ring
    /// empty. A scraper that drains never re-reports the same slow
    /// query.
    pub fn drain(&self) -> Vec<QueryTrace> {
        match &self.0 {
            Some(r) => {
                let mut ring = r.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                std::mem::take(&mut *ring).into()
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(total_us: u64) -> QueryTrace {
        QueryTrace {
            route: "EXACT3",
            t1: 0.0,
            t2: 1.0,
            k: 5,
            total_us,
            cache: CacheOutcome::Bypass,
            shards: vec![ShardSpan { shard: 0, elapsed_us: total_us, reads: 2, cache_hit: false }],
            io: IoDelta { reads: 2, ..Default::default() },
        }
    }

    #[test]
    fn ring_keeps_only_the_newest_capacity_traces() {
        let rec = FlightRecorder::new(3, 0);
        for us in 1..=5u64 {
            rec.record(trace(us));
        }
        let kept: Vec<u64> = rec.snapshot().iter().map(|t| t.total_us).collect();
        assert_eq!(kept, vec![3, 4, 5]);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn threshold_filters_fast_queries() {
        let rec = FlightRecorder::new(8, 100);
        assert!(!rec.qualifies(99));
        assert!(rec.qualifies(100));
        rec.record(trace(99));
        rec.record(trace(250));
        assert_eq!(rec.len(), 1);
        rec.set_threshold_us(0);
        rec.record(trace(1));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn noop_recorder_drops_everything() {
        let rec = FlightRecorder::noop();
        assert!(!rec.qualifies(u64::MAX));
        rec.record(trace(u64::MAX));
        assert!(rec.is_empty());
        assert_eq!(rec.threshold_us(), u64::MAX);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn drain_takes_and_clears() {
        let rec = FlightRecorder::new(4, 0);
        rec.record(trace(1));
        rec.record(trace(2));
        let drained: Vec<u64> = rec.drain().iter().map(|t| t.total_us).collect();
        assert_eq!(drained, vec![1, 2], "oldest first");
        assert!(rec.is_empty(), "drain leaves the ring empty");
        assert!(rec.drain().is_empty(), "second drain sees nothing");
        rec.record(trace(3));
        assert_eq!(rec.len(), 1, "recorder keeps working after a drain");
    }

    #[test]
    fn cache_outcome_folds_across_shards() {
        use CacheOutcome::*;
        assert_eq!(Bypass.fold(true).fold(true), Hit);
        assert_eq!(Bypass.fold(false).fold(false), Miss);
        assert_eq!(Bypass.fold(true).fold(false), Partial);
        assert_eq!(Partial.fold(true), Partial);
    }
}
