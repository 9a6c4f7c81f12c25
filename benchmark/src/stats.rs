//! Slice aggregation: every timed phase is a fixed operation count cut
//! into one warm-up slice plus measured slices. A rate is the median
//! slice rate and a percentile is the median of the per-slice
//! percentiles, so one scheduler hiccup pollutes one slice, not the run.

/// One reported number with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The reported value: a median (of set-ups, the mean of the middle
    /// half) unless the metric is a plain count.
    pub value: f64,
    /// Samples behind the value (operations, not slices).
    pub n: u64,
    /// First and third quartile of the slice-level values.
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    /// A number that is not a distribution (a count, a size, one timing).
    pub fn single(value: f64) -> Self {
        Self { value, n: 1, q1: value, q3: value }
    }

    /// A mean or a ratio taken over `n` operations.
    pub fn over(value: f64, n: u64) -> Self {
        Self { n, ..Self::single(value) }
    }

    /// The same measurement in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Self { value: self.value * factor, q1: self.q1 * factor, q3: self.q3 * factor, n: self.n }
    }

    /// Median and quartiles of `values`, one per slice or repeat; `n`
    /// counts the operations behind them.
    pub fn of(values: &[f64], n: u64) -> Self {
        let (q1, value, q3) = quartiles(values);
        Self { value, n, q1, q3 }
    }
}

/// `p`-th percentile (0..=1) of an ascending slice by the nearest-rank
/// rule `sorted[floor((len-1)·p)]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// Median of unsorted values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by linear interpolation between closest ranks at
/// positions `(n+1)·{¼,½,¾}` — the rule of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance spread is
/// defined by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |frac: f64| {
        let pos = (v.len() + 1) as f64 * frac - 1.0;
        let lo = pos.floor().clamp(0.0, (v.len() - 1) as f64) as usize;
        let hi = (lo + 1).min(v.len() - 1);
        let w = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo] + (v[hi] - v[lo]) * w
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Mean of the middle half: the lowest and the highest quarter (rounded
/// down) are dropped. For repeated set-ups, which on the reference host
/// come from two populations (its CPUs run at one of two speeds, a
/// quarter apart, for seconds at a time): a median jumps from one to the
/// other when the mix crosses one half, this moves with the mix.
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// One measured slice: how long it ran and each operation's latency.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub elapsed_s: f64,
    pub latencies_us: Vec<f64>,
}

/// Aggregate of the measured slices of one phase (the warm-up slice is
/// never handed in).
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    pub rate_per_s: Measured,
    pub p50_us: Measured,
    pub p95_us: Measured,
    pub p99_us: Measured,
}

/// Median slice rate and median-of-slice percentiles.
pub fn aggregate(slices: &[Slice]) -> PhaseStats {
    assert!(!slices.is_empty(), "a phase needs at least one measured slice");
    let n: u64 = slices.iter().map(|s| s.latencies_us.len() as u64).sum();
    let mut rates = Vec::new();
    let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for s in slices {
        let mut sorted = s.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        rates.push(sorted.len() as f64 / s.elapsed_s.max(1e-9));
        p50.push(percentile(&sorted, 0.50));
        p95.push(percentile(&sorted, 0.95));
        p99.push(percentile(&sorted, 0.99));
    }
    PhaseStats {
        rate_per_s: Measured::of(&rates, n),
        p50_us: Measured::of(&p50, n),
        p95_us: Measured::of(&p95, n),
        p99_us: Measured::of(&p99, n),
    }
}

/// Rate and percentiles over all measured slices pooled — for a phase
/// whose slices differ by design (a live ingest grows its data and runs
/// its rebuilds in some slices and not others), where the median slice
/// flips between regimes but the whole phase does a fixed amount of work.
/// Quartiles still come from the slices, so the regimes stay visible.
pub fn aggregate_pooled(slices: &[Slice]) -> PhaseStats {
    let per_slice = aggregate(slices);
    let mut all: Vec<f64> = slices.iter().flat_map(|s| s.latencies_us.iter().copied()).collect();
    all.sort_by(f64::total_cmp);
    let total_s: f64 = slices.iter().map(|s| s.elapsed_s).sum();
    let pooled = |value: f64, from: Measured| Measured { value, ..from };
    PhaseStats {
        rate_per_s: pooled(all.len() as f64 / total_s.max(1e-9), per_slice.rate_per_s),
        p50_us: pooled(percentile(&all, 0.50), per_slice.p50_us),
        p95_us: pooled(percentile(&all, 0.95), per_slice.p95_us),
        p99_us: pooled(percentile(&all, 0.99), per_slice.p99_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_rule() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&[9.0, 1.0, 2.0, 3.0, 100.0]), (2.0 + 3.0 + 9.0) / 3.0);
        assert_eq!(midmean(&[4.0, 2.0]), 3.0);
        assert_eq!(midmean(&[7.0]), 7.0);
        // Two populations, three of nine in the faster one: between them.
        let mixed = [1.0, 1.0, 1.0, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3];
        assert!((midmean(&mixed) - (1.0 + 4.0 * 1.3) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 49.0);
        assert_eq!(percentile(&v, 0.99), 98.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn one_polluted_slice_moves_neither_rate_nor_percentile() {
        let clean = |_| Slice { elapsed_s: 1.0, latencies_us: vec![10.0; 1000] };
        let mut slices: Vec<Slice> = (0..5).map(clean).collect();
        // A hiccup: one slice takes 3x as long and its tail explodes.
        slices[2].elapsed_s = 3.0;
        slices[2].latencies_us[990..].fill(5000.0);
        let agg = aggregate(&slices);
        assert_eq!(agg.rate_per_s.value, 1000.0);
        assert_eq!(agg.p50_us.value, 10.0);
        assert_eq!(agg.p99_us.value, 10.0);
        assert_eq!(agg.rate_per_s.n, 5000);
        // The spread still shows in the quartiles.
        assert!(agg.rate_per_s.q1 < 1000.0);
        // Pooled, the hiccup counts for what it cost.
        let pooled = aggregate_pooled(&slices);
        assert!((pooled.rate_per_s.value - 5000.0 / 7.0).abs() < 1e-9);
        assert_eq!(pooled.p50_us.value, 10.0);
        assert_eq!((pooled.rate_per_s.n, pooled.rate_per_s.q1), (5000, agg.rate_per_s.q1));
    }
}
