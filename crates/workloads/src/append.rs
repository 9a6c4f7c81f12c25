//! Append traces: replay any dataset generator as a live ingest stream.
//!
//! The paper's §4 update model receives segments at each object's right
//! time edge. [`AppendStream`] turns the output of *any*
//! [`DatasetGenerator`] (temp / stock / meme / randomwalk) into that
//! shape deterministically: each object keeps its first points as the
//! **base** (the state a live system is bootstrapped from) and the
//! remaining points become a time-ordered trace of
//! [`AppendRecord`]s — so a streamed-ingest run over the trace must end in
//! *exactly* the set the generator would have produced in bulk, which is
//! what `tests/live_agreement.rs` exploits.
//!
//! Knobs: the base fraction, the **batch size** (records per durable
//! group-commit), and an **arrival skew** — `0` replays in strict global
//! time order, larger values interleave objects Zipf-burstily (hot objects
//! flood first), always preserving each object's own time order so every
//! prefix of the trace is a valid temporal set.
//!
//! [`AppendStream::hotspot`] additionally interleaves a query workload
//! between batches, producing the mixed read/write [`LiveOp`] traffic a
//! live serving system actually faces.

use crate::query::{QueryInterval, QueryWorkload, QueryWorkloadConfig};
use crate::DatasetGenerator;
use chronorank_core::{AppendRecord, TemporalObject, TemporalSet};
use chronorank_curve::PiecewiseLinear;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`AppendStream`].
#[derive(Debug, Clone, Copy)]
pub struct AppendStreamConfig {
    /// Fraction of each object's points kept in the base set (clamped so
    /// every base curve keeps at least 2 points).
    pub base_fraction: f64,
    /// Records per batch (one durable group-commit each).
    pub batch: usize,
    /// Arrival skew: `0` = strict global time order; larger values draw
    /// the next record from object queues Zipf-weighted by object id
    /// (`weight ∝ (id+1)^-skew`), modelling bursty per-object arrival.
    pub skew: f64,
    /// Seed for the skewed interleaving (unused when `skew == 0`).
    pub seed: u64,
}

impl Default for AppendStreamConfig {
    fn default() -> Self {
        Self { base_fraction: 0.5, batch: 32, skew: 0.0, seed: 11 }
    }
}

/// One operation of a mixed live trace (see [`AppendStream::hotspot`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LiveOp {
    /// One batch of appends (a single durable group-commit).
    Appends(Vec<AppendRecord>),
    /// One `top-k(t1, t2, k)` query.
    Query(QueryInterval),
}

/// A deterministic append trace over a generated dataset (see module docs).
#[derive(Debug, Clone)]
pub struct AppendStream {
    base: Vec<TemporalObject>,
    full: Vec<TemporalObject>,
    records: Vec<AppendRecord>,
    config: AppendStreamConfig,
}

impl AppendStream {
    /// Split `generator`'s dataset into a base set plus an append trace.
    pub fn from_generator(generator: &impl DatasetGenerator, config: AppendStreamConfig) -> Self {
        Self::new(generator.generate(), config)
    }

    /// Split explicit objects into a base set plus an append trace.
    pub fn new(full: Vec<TemporalObject>, config: AppendStreamConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.base_fraction), "base fraction in [0,1]");
        assert!(config.batch >= 1, "batch size must be at least 1");
        assert!(config.skew >= 0.0, "skew must be non-negative");
        // Per-object split: base prefix (≥ 2 points) + pending tail queue.
        let mut base = Vec::with_capacity(full.len());
        let mut queues: Vec<Vec<AppendRecord>> = Vec::with_capacity(full.len());
        for o in &full {
            let n = o.curve.num_points();
            let keep = ((n as f64 * config.base_fraction).ceil() as usize).clamp(2, n);
            let pts: Vec<(f64, f64)> = (0..keep).map(|j| o.curve.point(j)).collect();
            let curve = PiecewiseLinear::from_points(&pts).expect("prefix of a valid curve");
            base.push(TemporalObject { id: o.id, curve });
            queues.push(
                (keep..n)
                    .map(|j| {
                        let (t, v) = o.curve.point(j);
                        AppendRecord { object: o.id, t, v }
                    })
                    .collect(),
            );
        }
        let records = interleave(queues, &config);
        Self { base, full, records, config }
    }

    /// The bootstrap state: every object truncated to its base prefix.
    pub fn base_set(&self) -> TemporalSet {
        TemporalSet::from_objects(self.base.clone()).expect("base objects are valid")
    }

    /// The final state (identical to the generator's bulk output).
    pub fn full_set(&self) -> TemporalSet {
        TemporalSet::from_objects(self.full.clone()).expect("full objects are valid")
    }

    /// The whole trace in arrival order.
    pub fn records(&self) -> &[AppendRecord] {
        &self.records
    }

    /// The trace chunked into batches of the configured size (the last may
    /// be short).
    pub fn batches(&self) -> impl Iterator<Item = &[AppendRecord]> {
        self.records.chunks(self.config.batch)
    }

    /// The configuration in use.
    pub fn config(&self) -> AppendStreamConfig {
        self.config
    }

    /// A mixed read/write trace: every append batch followed by
    /// `queries_per_batch` queries drawn from `query_cfg` (typically a
    /// [`crate::IntervalPattern::Zipf`] hotspot pattern) over the *full*
    /// data domain — right-edge queries keep landing on freshly appended
    /// data. `query_cfg.count` is ignored; the trace sizes it.
    pub fn hotspot(&self, query_cfg: QueryWorkloadConfig, queries_per_batch: usize) -> Vec<LiveOp> {
        let full = self.full_set();
        let n_batches = self.records.len().div_ceil(self.config.batch);
        let workload = QueryWorkload::new(
            QueryWorkloadConfig { count: n_batches * queries_per_batch, ..query_cfg },
            full.t_min(),
            full.t_max(),
        );
        let mut queries = workload.generate().into_iter();
        let mut ops = Vec::with_capacity(n_batches * (1 + queries_per_batch));
        for batch in self.batches() {
            ops.push(LiveOp::Appends(batch.to_vec()));
            for _ in 0..queries_per_batch {
                if let Some(q) = queries.next() {
                    ops.push(LiveOp::Query(q));
                }
            }
        }
        ops
    }
}

/// Merge per-object queues into one arrival order (see
/// [`AppendStreamConfig::skew`]). Every queue is already time-ascending,
/// so any interleaving keeps per-object monotonicity.
fn interleave(queues: Vec<Vec<AppendRecord>>, config: &AppendStreamConfig) -> Vec<AppendRecord> {
    let total: usize = queues.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    if config.skew == 0.0 {
        // Strict global time order (ties: smaller object id first) via a
        // k-way min-heap over queue heads.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cursors = vec![0usize; queues.len()];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, q)| Reverse((ordered_bits(q[0].t), i as u32)))
            .collect();
        while let Some(Reverse((_, i))) = heap.pop() {
            let i = i as usize;
            out.push(queues[i][cursors[i]]);
            cursors[i] += 1;
            if let Some(rec) = queues[i].get(cursors[i]) {
                heap.push(Reverse((ordered_bits(rec.t), i as u32)));
            }
        }
    } else {
        // Zipf-weighted object draws among the non-empty queues.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut cursors = vec![0usize; queues.len()];
        let mut alive: Vec<usize> = (0..queues.len()).filter(|&i| !queues[i].is_empty()).collect();
        while !alive.is_empty() {
            let weights: Vec<f64> =
                alive.iter().map(|&i| ((i + 1) as f64).powf(-config.skew)).collect();
            let total_w: f64 = weights.iter().sum();
            let mut u = rng.random_unit() * total_w;
            let mut pick = alive.len() - 1;
            for (slot, w) in weights.iter().enumerate() {
                if u < *w {
                    pick = slot;
                    break;
                }
                u -= w;
            }
            let i = alive[pick];
            out.push(queues[i][cursors[i]]);
            cursors[i] += 1;
            if cursors[i] == queues[i].len() {
                alive.swap_remove(pick);
            }
        }
    }
    out
}

/// Map a finite time to a sort key preserving order (times are generator
/// outputs: finite, and non-negative in practice; the bit trick handles
/// negatives too).
fn ordered_bits(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntervalPattern, StockConfig, StockGenerator, TempConfig, TempGenerator};

    fn stream(skew: f64) -> AppendStream {
        let generator =
            TempGenerator::new(TempConfig { objects: 12, avg_segments: 20, seed: 3, dropout: 0.0 });
        AppendStream::from_generator(
            &generator,
            AppendStreamConfig { base_fraction: 0.4, batch: 16, skew, seed: 5 },
        )
    }

    #[test]
    fn replaying_the_trace_reproduces_the_bulk_set() {
        for skew in [0.0, 1.2] {
            let s = stream(skew);
            let mut live = s.base_set();
            assert!(live.num_segments() < s.full_set().num_segments());
            for &rec in s.records() {
                live.apply(rec).unwrap();
            }
            let full = s.full_set();
            assert_eq!(live.num_segments(), full.num_segments(), "skew {skew}");
            // Mass is maintained incrementally during appends, so it only
            // agrees up to floating-point association; the curves (and
            // therefore all answers) must agree exactly.
            let (ml, mf) = (live.total_mass(), full.total_mass());
            assert!((ml - mf).abs() <= 1e-9 * (1.0 + mf.abs()), "skew {skew}: {ml} vs {mf}");
            for (a, b) in live.objects().iter().zip(full.objects()) {
                assert_eq!(a, b, "skew {skew}");
            }
        }
    }

    #[test]
    fn zero_skew_is_globally_time_ordered() {
        let s = stream(0.0);
        for w in s.records().windows(2) {
            assert!(w[0].t <= w[1].t, "{:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn any_skew_preserves_per_object_order_and_multiset() {
        let flat = stream(0.0);
        let skewed = stream(2.0);
        assert_eq!(flat.records().len(), skewed.records().len());
        let mut last_t = [f64::NEG_INFINITY; 12];
        for rec in skewed.records() {
            assert!(rec.t > last_t[rec.object as usize], "per-object order broken");
            last_t[rec.object as usize] = rec.t;
        }
        // Same records, different order (with high skew, object 0 floods
        // early — the orders genuinely differ).
        let key = |r: &AppendRecord| (r.object, r.t.to_bits(), r.v.to_bits());
        let mut a: Vec<_> = flat.records().iter().map(key).collect();
        let mut b: Vec<_> = skewed.records().iter().map(key).collect();
        assert_ne!(a, b, "skew must change the interleaving");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "skew must not change the record multiset");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = stream(1.0);
        let b = stream(1.0);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn batches_cover_the_trace() {
        let s = stream(0.0);
        let n: usize = s.batches().map(<[AppendRecord]>::len).sum();
        assert_eq!(n, s.records().len());
        assert!(s.batches().all(|b| b.len() <= 16));
        assert!(s.batches().count() >= 2);
    }

    #[test]
    fn hotspot_interleaves_queries_between_batches() {
        let generator =
            StockGenerator::new(StockConfig { objects: 8, days: 6, readings_per_day: 4, seed: 9 });
        let s = AppendStream::from_generator(
            &generator,
            AppendStreamConfig { base_fraction: 0.5, batch: 10, ..Default::default() },
        );
        let qcfg = QueryWorkloadConfig {
            span_fraction: 0.3,
            k: 4,
            seed: 13,
            pattern: IntervalPattern::Zipf { hotspots: 3, exponent: 1.0, background: 0.2 },
            ..Default::default()
        };
        let ops = s.hotspot(qcfg, 2);
        let n_batches = s.batches().count();
        let appends = ops.iter().filter(|op| matches!(op, LiveOp::Appends(_))).count();
        let queries = ops.iter().filter(|op| matches!(op, LiveOp::Query(_))).count();
        assert_eq!(appends, n_batches);
        assert_eq!(queries, 2 * n_batches);
        assert!(matches!(ops[0], LiveOp::Appends(_)), "trace starts with data");
        // Deterministic.
        assert_eq!(ops, s.hotspot(qcfg, 2));
        // Appended records inside ops reproduce the trace.
        let replayed: Vec<AppendRecord> = ops
            .iter()
            .filter_map(|op| match op {
                LiveOp::Appends(b) => Some(b.clone()),
                LiveOp::Query(_) => None,
            })
            .flatten()
            .collect();
        assert_eq!(replayed.as_slice(), s.records());
    }
}
