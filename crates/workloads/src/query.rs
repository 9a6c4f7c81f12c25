//! Query workload generation (paper §5 setup: "we generated 100 random
//! queries and report the average", with query span `(t2 − t1) = 20%·T` by
//! default).
//!
//! Besides the paper's uniform placement, [`IntervalPattern::Zipf`]
//! generates a skewed stream in which a few *hotspot* intervals are asked
//! over and over — the traffic shape a serving layer's result cache is
//! built for (see `chronorank-serve`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One `top-k(t1, t2, sum)` query instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryInterval {
    /// Query start.
    pub t1: f64,
    /// Query end.
    pub t2: f64,
    /// Requested answer size.
    pub k: usize,
}

/// How query intervals are placed over the data domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalPattern {
    /// Independent uniform placement — the paper's §5 workload.
    Uniform,
    /// Zipf-skewed hotspots: `hotspots` fixed popular intervals are drawn
    /// once (uniformly, from the seed), then each query repeats hotspot
    /// `j` with probability ∝ `1/(j+1)^exponent` — except that with
    /// probability `background` it is a fresh uniform interval instead.
    /// Models the repeated popular time ranges of real traffic.
    Zipf {
        /// Number of distinct hot intervals (≥ 1).
        hotspots: usize,
        /// Skew `s` of the Zipf law (`0` = uniform over the hotspots;
        /// typical web traffic ≈ 1).
        exponent: f64,
        /// Probability in `[0, 1]` of an unskewed background query.
        background: f64,
    },
}

/// Configuration for [`QueryWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct QueryWorkloadConfig {
    /// Number of queries (paper: 100).
    pub count: usize,
    /// Query interval length as a fraction of the data span (paper: 0.2).
    pub span_fraction: f64,
    /// The `k` of every query (paper default 50).
    pub k: usize,
    /// RNG seed (the stream is fully deterministic given the config).
    pub seed: u64,
    /// Interval placement: uniform or Zipf-skewed hotspots.
    pub pattern: IntervalPattern,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        Self { count: 100, span_fraction: 0.2, k: 50, seed: 7, pattern: IntervalPattern::Uniform }
    }
}

/// Deterministic random query generator over a given time domain.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    config: QueryWorkloadConfig,
    t_min: f64,
    t_max: f64,
}

impl QueryWorkload {
    /// Workload over `[t_min, t_max]`.
    pub fn new(config: QueryWorkloadConfig, t_min: f64, t_max: f64) -> Self {
        assert!(t_max > t_min, "empty data domain");
        assert!((0.0..=1.0).contains(&config.span_fraction), "fraction in [0,1]");
        if let IntervalPattern::Zipf { hotspots, exponent, background } = config.pattern {
            assert!(hotspots >= 1, "need at least one hotspot");
            assert!(exponent >= 0.0, "Zipf exponent must be non-negative");
            assert!((0.0..=1.0).contains(&background), "background prob in [0,1]");
        }
        Self { config, t_min, t_max }
    }

    /// The hotspot intervals a [`IntervalPattern::Zipf`] stream repeats, in
    /// popularity order (empty for [`IntervalPattern::Uniform`]). Exposed
    /// so cache tests and benches can assert on reuse.
    pub fn hotspots(&self) -> Vec<QueryInterval> {
        match self.config.pattern {
            IntervalPattern::Uniform => Vec::new(),
            IntervalPattern::Zipf { hotspots, .. } => {
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                (0..hotspots).map(|_| self.uniform(&mut rng)).collect()
            }
        }
    }

    /// Generate the configured queries.
    pub fn generate(&self) -> Vec<QueryInterval> {
        let c = self.config;
        let mut rng = StdRng::seed_from_u64(c.seed);
        match c.pattern {
            IntervalPattern::Uniform => (0..c.count).map(|_| self.uniform(&mut rng)).collect(),
            IntervalPattern::Zipf { hotspots, exponent, background } => {
                // Hotspots are drawn first so `hotspots()` (fresh RNG, same
                // seed) reproduces them exactly.
                let hot: Vec<QueryInterval> =
                    (0..hotspots).map(|_| self.uniform(&mut rng)).collect();
                let mut cum = Vec::with_capacity(hotspots);
                let mut total = 0.0;
                for j in 0..hotspots {
                    total += ((j + 1) as f64).powf(-exponent);
                    cum.push(total);
                }
                (0..c.count)
                    .map(|_| {
                        if rng.random_unit() < background {
                            self.uniform(&mut rng)
                        } else {
                            let u = rng.random_unit() * total;
                            let j = cum.partition_point(|&w| w < u).min(hotspots - 1);
                            hot[j]
                        }
                    })
                    .collect()
            }
        }
    }

    /// Chunk the generated stream into admission windows of `window`
    /// queries (the last window may be shorter) — the unit a batching
    /// execution layer (`execute`) admits at once. A Zipf-skewed
    /// stream chunked this way yields windows that repeat hotspot
    /// intervals, exactly the shape shared-probe batch execution
    /// amortizes.
    pub fn windows(&self, window: usize) -> Vec<Vec<QueryInterval>> {
        assert!(window >= 1, "window must hold at least one query");
        self.generate().chunks(window).map(<[QueryInterval]>::to_vec).collect()
    }

    /// One uniformly placed interval of the configured length.
    fn uniform(&self, rng: &mut StdRng) -> QueryInterval {
        let c = self.config;
        let span = self.t_max - self.t_min;
        let len = span * c.span_fraction;
        let slack = (span - len).max(0.0);
        let t1 = self.t_min + if slack > 0.0 { rng.random_range(0.0..slack) } else { 0.0 };
        QueryInterval { t1, t2: t1 + len, k: c.k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn queries_stay_inside_domain_with_exact_length() {
        let w = QueryWorkload::new(
            QueryWorkloadConfig {
                count: 50,
                span_fraction: 0.2,
                k: 10,
                seed: 1,
                ..Default::default()
            },
            100.0,
            200.0,
        );
        let qs = w.generate();
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert!(q.t1 >= 100.0 && q.t2 <= 200.0 + 1e-9);
            assert!((q.t2 - q.t1 - 20.0).abs() < 1e-9);
            assert_eq!(q.k, 10);
        }
        // Not all identical.
        assert!(qs.iter().any(|q| (q.t1 - qs[0].t1).abs() > 1e-6));
    }

    #[test]
    fn full_span_fraction_yields_whole_domain() {
        let w = QueryWorkload::new(
            QueryWorkloadConfig {
                count: 3,
                span_fraction: 1.0,
                k: 5,
                seed: 2,
                ..Default::default()
            },
            0.0,
            10.0,
        );
        for q in w.generate() {
            assert_eq!((q.t1, q.t2), (0.0, 10.0));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = QueryWorkloadConfig::default();
        let a = QueryWorkload::new(cfg, 0.0, 1000.0).generate();
        let b = QueryWorkload::new(cfg, 0.0, 1000.0).generate();
        assert_eq!(a, b);
        let zipf = QueryWorkloadConfig {
            pattern: IntervalPattern::Zipf { hotspots: 8, exponent: 1.0, background: 0.2 },
            ..Default::default()
        };
        let a = QueryWorkload::new(zipf, 0.0, 1000.0).generate();
        let b = QueryWorkload::new(zipf, 0.0, 1000.0).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn windows_chunk_the_stream_in_order() {
        let cfg = QueryWorkloadConfig { count: 10, ..Default::default() };
        let w = QueryWorkload::new(cfg, 0.0, 1000.0);
        let flat = w.generate();
        let windows = w.windows(4);
        assert_eq!(windows.iter().map(Vec::len).collect::<Vec<_>>(), vec![4, 4, 2]);
        assert_eq!(windows.concat(), flat);
    }

    #[test]
    fn zipf_stream_reuses_hotspots_in_popularity_order() {
        let cfg = QueryWorkloadConfig {
            count: 2000,
            pattern: IntervalPattern::Zipf { hotspots: 5, exponent: 1.0, background: 0.0 },
            ..Default::default()
        };
        let w = QueryWorkload::new(cfg, 0.0, 500.0);
        let hot = w.hotspots();
        assert_eq!(hot.len(), 5);
        let qs = w.generate();
        // Every query is one of the hotspots (background = 0)…
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for q in &qs {
            assert!(hot.contains(q), "non-hotspot query in a pure Zipf stream");
            *counts.entry(q.t1.to_bits()).or_default() += 1;
        }
        // …and popularity follows the Zipf order: #1 strictly beats #5,
        // and is within loose bounds of its 1/H_5 ≈ 0.438 share.
        let c0 = counts[&hot[0].t1.to_bits()];
        let c4 = counts[&hot[4].t1.to_bits()];
        assert!(c0 > c4, "hotspot 0 ({c0}) must beat hotspot 4 ({c4})");
        let share = c0 as f64 / qs.len() as f64;
        assert!((0.3..0.6).contains(&share), "top-hotspot share {share}");
    }

    #[test]
    fn zipf_background_mixes_in_fresh_intervals() {
        let cfg = QueryWorkloadConfig {
            count: 1000,
            pattern: IntervalPattern::Zipf { hotspots: 3, exponent: 1.0, background: 0.5 },
            ..Default::default()
        };
        let w = QueryWorkload::new(cfg, 0.0, 500.0);
        let hot = w.hotspots();
        let qs = w.generate();
        let bg = qs.iter().filter(|q| !hot.contains(q)).count();
        let frac = bg as f64 / qs.len() as f64;
        assert!((0.4..0.6).contains(&frac), "background fraction {frac}");
        for q in &qs {
            assert!(q.t1 >= 0.0 && q.t2 <= 500.0 + 1e-9);
        }
    }
}
