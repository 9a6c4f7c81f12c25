//! The three metric primitives: counter, gauge, log-bucketed histogram.
//!
//! Every handle is a cheap clone around an `Option<Arc<_>>`: a `Some`
//! handle updates shared atomics with `Relaxed` ordering, a `None` handle
//! (from [`crate::Registry::noop`]) is a no-op whose cost is one branch.
//! That makes "instrumented vs. uninstrumented" a comparison a test can
//! run against identical code (`tests/obs_counts.rs`).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A real counter, unattached to any registry (mostly for tests).
    pub fn new() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A handle whose operations do nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A point-in-time value (signed, set semantics).
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicI64>>);

impl Gauge {
    /// A real gauge, unattached to any registry (mostly for tests).
    pub fn new() -> Self {
        Gauge(Some(Arc::new(AtomicI64::new(0))))
    }

    /// A handle whose operations do nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Saturating overwrite from an unsigned source (counters mirrored as
    /// point-in-time views).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(i64::try_from(v).unwrap_or(i64::MAX));
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Sub-bucket precision: 2^5 = 32 sub-buckets per power of two, so any
/// recorded value lands in a bucket within ~3% of its true magnitude —
/// tight enough that the p50/p95/p99 snapshots are honest at the
/// single-digit-percent level.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Values below `SUB_COUNT` get exact unit buckets; above, 32 log
/// sub-buckets per power of two up to `u64::MAX`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// Bucket index of `v` (HDR-style: exact below 32, log-linear above).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
    let major = (msb - SUB_BITS + 1) as usize;
    let minor = ((v >> (msb - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
    major * SUB_COUNT as usize + minor
}

/// Lower bound of bucket `idx` — the representative value quantile
/// queries report.
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return idx;
    }
    let major = idx / SUB_COUNT;
    let minor = idx % SUB_COUNT;
    (SUB_COUNT + minor) << (major - 1)
}

pub(crate) struct HistogramInner {
    buckets: Vec<AtomicU64>, // BUCKETS cells
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log-bucketed histogram of `u64` samples (latencies in
/// microseconds, batch sizes, …).
///
/// Recording touches three relaxed atomics and one `fetch_max` — no
/// mutex anywhere, so any number of worker threads can record into one
/// shared histogram without serialising (the "sharding" is the atomic
/// bucket array itself: concurrent recorders only contend when they hit
/// the very same bucket, and even then only on a relaxed RMW).
#[derive(Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramInner>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("p50", &snap.p50)
            .field("p99", &snap.p99)
            .field("max", &snap.max)
            .finish()
    }
}

impl Histogram {
    /// A real histogram, unattached to any registry (mostly for tests).
    pub fn new() -> Self {
        Histogram(Some(Arc::new(HistogramInner {
            buckets: std::iter::repeat_with(|| AtomicU64::new(0)).take(BUCKETS).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        })))
    }

    /// A handle whose operations do nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(inner) = &self.0 {
            inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            inner.count.fetch_add(1, Ordering::Relaxed);
            inner.sum.fetch_add(v, Ordering::Relaxed);
            inner.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A consistent-enough point-in-time view with p50/p95/p99/max.
    /// (Concurrent recorders may land between the bucket walk and the
    /// counter loads; quantiles are clamped to recorded data.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(inner) = &self.0 else { return HistogramSnapshot::default() };
        let counts: Vec<u64> = inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let mut rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            for (idx, c) in counts.iter().enumerate() {
                if *c >= rank {
                    return bucket_floor(idx);
                }
                rank -= c;
            }
            bucket_floor(BUCKETS - 1)
        };
        HistogramSnapshot {
            count: total,
            sum: inner.sum.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// What [`Histogram::snapshot`] reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (same unit as the samples).
    pub sum: u64,
    /// Median (bucket lower bound, within ~3%).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample ever recorded (exact).
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(-3);
        assert_eq!(g.get(), -3);
        g.set_u64(u64::MAX);
        assert_eq!(g.get(), i64::MAX);
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.add(99);
        assert_eq!(c.get(), 0);
        let h = Histogram::noop();
        h.record(123);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn buckets_are_monotone_and_within_tolerance() {
        // Every value maps to a bucket whose floor is <= the value and
        // within ~2^-SUB_BITS relative error; bucket indexes never
        // regress as values grow.
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off << shift.saturating_sub(3)));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_of(v);
            assert!(idx >= last, "bucket index regressed at {v}");
            last = idx;
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            if v >= SUB_COUNT {
                let rel = (v - floor) as f64 / v as f64;
                assert!(rel <= 1.0 / SUB_COUNT as f64 + 1e-12, "error {rel} at {v}");
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_floor(bucket_of(v)), v);
        }
    }

    #[test]
    fn snapshot_quantiles_track_uniform_data() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 10_000);
        // Log buckets: quantiles within ~4% below the true value.
        for (got, want) in [(s.p50, 5_000.0), (s.p95, 9_500.0), (s.p99, 9_900.0)] {
            let got = got as f64;
            assert!(got <= want && got >= want * 0.95, "quantile {got} vs {want}");
        }
    }

    #[test]
    fn snapshot_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4_000);
    }
}
