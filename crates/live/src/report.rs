//! Live-engine statistics: ingest throughput, rebuild behaviour, and the
//! reader-side evidence that epoch swaps never block queries.

use chronorank_serve::BuildStages;
use chronorank_storage::IoStats;

/// Bucket upper bounds (µs) of [`PauseHistogram`]; the last bucket is
/// open-ended.
pub const PAUSE_BUCKETS_US: [u64; 5] = [50, 200, 1_000, 5_000, 20_000];

/// Histogram of epoch-swap pauses — the only moments a shard does anything
/// besides serving: install the new generation handle, prune the absorbed
/// tail, invalidate the cache. The whole point of off-thread generation
/// builds is that every sample lands in the microsecond buckets while the
/// builds themselves take milliseconds to seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PauseHistogram {
    /// Counts per bucket: `< 50µs, < 200µs, < 1ms, < 5ms, < 20ms, ≥ 20ms`.
    pub buckets: [u64; 6],
    /// Largest observed pause.
    pub max_us: u64,
}

impl PauseHistogram {
    /// Record one pause of `us` microseconds.
    pub fn record(&mut self, us: u64) {
        let slot = PAUSE_BUCKETS_US.iter().position(|&hi| us < hi).unwrap_or(5);
        self.buckets[slot] += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Total recorded pauses.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Merge another histogram in (for cross-shard aggregation).
    pub fn merge(&mut self, other: &PauseHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// A snapshot of everything an [`crate::IngestEngine`] did so far.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Shard count.
    pub workers: usize,
    /// Appended records accepted (WAL-durable).
    pub appends: u64,
    /// Durable group-commits (one WAL sync each).
    pub batches: u64,
    /// Queries answered.
    pub queries: u64,
    /// Caller wall seconds across queries.
    pub elapsed_secs: f64,
    /// WAL traffic (`wal_writes` / `wal_bytes` — the ingest path's own
    /// IO attribution, separate from index reads).
    pub wal: IoStats,
    /// Index IO summed over every shard's current generation.
    pub index_io: IoStats,
    /// Completed generation rebuilds across all shards.
    pub rebuilds: u64,
    /// Shards with a rebuild in flight at snapshot time.
    pub rebuilds_in_flight: u64,
    /// Bytes of index structures across all published generations.
    pub index_bytes: u64,
    /// Wall seconds spent *off-thread* building generations (overlaps
    /// serving; not a pause).
    pub build_secs: f64,
    /// Where that build time went, per stage, across all generations.
    pub build_stages: BuildStages,
    /// Epoch-swap pauses (the reader-visible cost of a rebuild).
    pub swap_pause: PauseHistogram,
    /// Queries answered while some shard had a rebuild in flight — the
    /// non-blocking-readers evidence.
    pub queries_during_rebuild: u64,
    /// Shard-cache hits.
    pub cache_hits: u64,
    /// Shard-cache lookups.
    pub cache_lookups: u64,
    /// Cache entries dropped because appends made them ε-stale.
    pub cache_invalidations: u64,
    /// Appended segments currently waiting in mutable tails.
    pub tail_segments: u64,
    /// Bytes held by the shards' columnar tails (offset table + columns).
    pub tail_bytes: u64,
    /// Objects with a non-empty appended tail.
    pub tail_objects: u64,
    /// Σ mass the serving generations were built over.
    pub built_mass: f64,
    /// Current total mass, appends included.
    pub live_mass: f64,
    /// Highest generation published by any shard.
    pub generations: u64,
    /// Checkpoints taken (WAL truncations).
    pub checkpoints: u64,
    /// Shards whose frozen generation was reopened page-for-page from the
    /// checkpoint image at boot (0 on a fresh build or mismatched config).
    pub preloaded_shards: u64,
}

impl LiveReport {
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

    /// Fraction the live mass has grown past the built generations —
    /// the ε re-validation headroom (`0` right after every shard rebuilt).
    pub fn mass_growth(&self) -> f64 {
        if self.built_mass > 0.0 {
            (self.live_mass - self.built_mass).max(0.0) / self.built_mass
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for LiveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "live report: W = {}, {} appends in {} batches, {} queries ({:.0} q/s)",
            self.workers,
            self.appends,
            self.batches,
            self.queries,
            self.qps()
        )?;
        writeln!(
            f,
            "  wal: {} block flushes, {} payload bytes | index io: {} reads",
            self.wal.wal_writes, self.wal.wal_bytes, self.index_io.reads
        )?;
        writeln!(
            f,
            "  rebuilds: {} ({:.2}s off-thread), swap pauses: {} (max {} µs), \
             {} queries served mid-rebuild",
            self.rebuilds,
            self.build_secs,
            self.swap_pause.count(),
            self.swap_pause.max_us,
            self.queries_during_rebuild
        )?;
        writeln!(f, "  build stages: {}", self.build_stages)?;
        writeln!(
            f,
            "  cache: {}/{} hits ({:.1}%), {} ε-invalidations | tail: {} segments \
             over {} objects ({} bytes), mass growth {:.1}%",
            self.cache_hits,
            self.cache_lookups,
            100.0 * self.cache_hit_rate(),
            self.cache_invalidations,
            self.tail_segments,
            self.tail_objects,
            self.tail_bytes,
            100.0 * self.mass_growth()
        )?;
        writeln!(
            f,
            "  durability: {} checkpoints, {}/{} shards preloaded from image",
            self.checkpoints, self.preloaded_shards, self.workers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_merge() {
        let mut h = PauseHistogram::default();
        for us in [1, 49, 50, 199, 999, 4_999, 19_999, 1_000_000] {
            h.record(us);
        }
        assert_eq!(h.buckets, [2, 2, 1, 1, 1, 1]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.max_us, 1_000_000);
        let mut other = PauseHistogram::default();
        other.record(10);
        other.merge(&h);
        assert_eq!(other.count(), 9);
        assert_eq!(other.buckets[0], 3);
        assert_eq!(other.max_us, 1_000_000);
    }

    #[test]
    fn report_rates_handle_zero_denominators() {
        let r = LiveReport {
            workers: 2,
            appends: 0,
            batches: 0,
            queries: 0,
            elapsed_secs: 0.0,
            wal: IoStats::default(),
            index_io: IoStats::default(),
            rebuilds: 0,
            rebuilds_in_flight: 0,
            index_bytes: 0,
            build_secs: 0.0,
            build_stages: BuildStages::default(),
            swap_pause: PauseHistogram::default(),
            queries_during_rebuild: 0,
            cache_hits: 0,
            cache_lookups: 0,
            cache_invalidations: 0,
            tail_segments: 0,
            tail_bytes: 0,
            tail_objects: 0,
            built_mass: 0.0,
            live_mass: 0.0,
            generations: 0,
            checkpoints: 0,
            preloaded_shards: 0,
        };
        assert_eq!(r.qps(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
        assert_eq!(r.mass_growth(), 0.0);
        assert!(r.to_string().contains("W = 2"));
    }
}
