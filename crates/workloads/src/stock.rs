//! Stock transaction-volume dataset — the introduction's second motivating
//! example ("find the top-20 stocks having the largest total transaction
//! volumes from 02/05/2011 to 02/07/2011").
//!
//! Objects are tickers; the curve is intraday trading volume: lognormal
//! per-stock base liquidity, a U-shaped intraday profile (busy open/close),
//! day-to-day volume persistence, and occasional news-driven volume spikes.

use crate::util::gaussian;
use crate::DatasetGenerator;
use chronorank_core::{ObjectId, TemporalObject};
use chronorank_curve::PiecewiseLinear;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`StockGenerator`].
#[derive(Debug, Clone, Copy)]
pub struct StockConfig {
    /// Number of tickers.
    pub objects: usize,
    /// Number of trading days.
    pub days: usize,
    /// Readings per day (e.g. 8 = hourly during the session).
    pub readings_per_day: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StockConfig {
    fn default() -> Self {
        Self { objects: 500, days: 30, readings_per_day: 8, seed: 42 }
    }
}

/// Generates the stock-volume dataset (see module docs).
#[derive(Debug, Clone)]
pub struct StockGenerator {
    config: StockConfig,
}

impl StockGenerator {
    /// Create a generator for `config`.
    pub fn new(config: StockConfig) -> Self {
        assert!(config.objects > 0);
        assert!(config.days >= 1);
        assert!(config.readings_per_day >= 2);
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> StockConfig {
        self.config
    }
}

impl DatasetGenerator for StockGenerator {
    fn generate(&self) -> Vec<TemporalObject> {
        let c = self.config;
        let mut rng = StdRng::seed_from_u64(c.seed);
        let mut out = Vec::with_capacity(c.objects);
        for id in 0..c.objects {
            // Lognormal base liquidity: a few mega-caps dominate.
            let base = (10.0 + 1.8 * gaussian(&mut rng)).exp() / 1e3;
            let mut daily_level = 1.0f64;
            let mut points: Vec<(f64, f64)> = Vec::with_capacity(c.days * c.readings_per_day + 1);
            for day in 0..c.days {
                // Volume persistence + occasional news spike.
                daily_level = (0.8 * daily_level + 0.2 * (1.0 + 0.3 * gaussian(&mut rng))).abs();
                let spike = if rng.random_range(0.0..1.0) < 0.03 {
                    rng.random_range(2.0..8.0)
                } else {
                    1.0
                };
                for r in 0..c.readings_per_day {
                    let frac = r as f64 / (c.readings_per_day - 1) as f64;
                    // U-shape: high at open and close, low midday.
                    let u = 1.0 + 1.2 * (2.0 * frac - 1.0).powi(2);
                    let t = day as f64 + 0.3 + 0.5 * frac; // session 0.3–0.8 of the day
                    let noise = (1.0 + 0.2 * gaussian(&mut rng)).max(0.05);
                    let v = base * daily_level * spike * u * noise;
                    points.push((t, v.max(0.0)));
                }
            }
            let curve = PiecewiseLinear::from_points(&points).expect("increasing times");
            out.push(TemporalObject { id: id as ObjectId, curve });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let g = StockGenerator::new(StockConfig {
            objects: 40,
            days: 10,
            readings_per_day: 8,
            seed: 3,
        });
        let set = g.generate_set();
        assert_eq!(set.num_objects(), 40);
        // 80 points per object → 79 segments.
        assert_eq!(set.num_segments(), 40 * 79);
        assert!(!set.has_negative());
        assert!(set.span() <= 10.0);
    }

    #[test]
    fn liquidity_is_heavy_tailed_across_tickers() {
        let g = StockGenerator::new(StockConfig::default());
        let set = g.generate_set();
        let mut totals: Vec<f64> = set.objects().iter().map(|o| o.curve.total()).collect();
        totals.sort_by(f64::total_cmp);
        let median = totals[totals.len() / 2];
        let top = totals[totals.len() - 1];
        assert!(top > 20.0 * median, "top {top} vs median {median}");
    }

    #[test]
    fn intraday_u_shape_visible() {
        let g =
            StockGenerator::new(StockConfig { objects: 1, days: 1, readings_per_day: 9, seed: 11 });
        let objs = g.generate();
        let c = &objs[0].curve;
        // Open and close readings should on average beat midday.
        let open = c.values()[0];
        let close = *c.values().last().unwrap();
        let mid = c.values()[4];
        assert!(open > mid * 0.8 && close > mid * 0.8, "U-shape too weak");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = StockConfig { objects: 5, days: 3, readings_per_day: 4, seed: 77 };
        assert_eq!(StockGenerator::new(cfg).generate(), StockGenerator::new(cfg).generate());
    }
}
