//! Piecewise-linear curves: the paper's `g_i`.

use crate::error::{CurveError, Result};
use crate::segment::Segment;
use crate::{Time, Value};

/// A validated piecewise-linear function: `n+1` points with strictly
/// increasing, finite time stamps define `n` segments. The curve is defined
/// on its own domain `[start, end] ⊆ [0, T]`; everything outside contributes
/// nothing to integrals (the paper's objects need not span the whole time
/// domain, nor align with each other).
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    times: Vec<Time>,
    values: Vec<Value>,
}

impl PiecewiseLinear {
    /// Build from `(time, value)` points. At least two points; times must be
    /// strictly increasing; everything must be finite.
    pub fn from_points(points: &[(Time, Value)]) -> Result<Self> {
        let times: Vec<f64> = points.iter().map(|p| p.0).collect();
        let values: Vec<f64> = points.iter().map(|p| p.1).collect();
        Self::from_times_values(times, values)
    }

    /// Build from parallel `times` / `values` vectors (zero-copy variant).
    pub fn from_times_values(times: Vec<Time>, values: Vec<Value>) -> Result<Self> {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        if times.len() < 2 {
            return Err(CurveError::TooFewPoints(times.len()));
        }
        for (i, (&t, &v)) in times.iter().zip(values.iter()).enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(CurveError::NonFinite { index: i });
            }
            if i > 0 && t <= times[i - 1] {
                return Err(CurveError::NotIncreasing { index: i, time: t, prev: times[i - 1] });
            }
        }
        Ok(Self { times, values })
    }

    /// Number of segments `n_i`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.times.len() - 1
    }

    /// Number of points (`n_i + 1`).
    #[inline]
    pub fn num_points(&self) -> usize {
        self.times.len()
    }

    /// Left end of the domain (`t_{i,0}`).
    #[inline]
    pub fn start(&self) -> Time {
        self.times[0]
    }

    /// Right end of the domain (`t_{i,n_i}`).
    #[inline]
    pub fn end(&self) -> Time {
        *self.times.last().expect("non-empty")
    }

    /// `(start, end)`.
    #[inline]
    pub fn domain(&self) -> (Time, Time) {
        (self.start(), self.end())
    }

    /// The `j`-th point `(t_{i,j}, v_{i,j})`, `j ∈ [0, n_i]`.
    #[inline]
    pub fn point(&self, j: usize) -> (Time, Value) {
        (self.times[j], self.values[j])
    }

    /// Raw time stamps.
    #[inline]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// Raw values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The `j`-th segment `g_{i,j+1}` (0-based here), `j ∈ [0, n_i)`.
    #[inline]
    pub fn segment(&self, j: usize) -> Segment {
        Segment {
            t0: self.times[j],
            v0: self.values[j],
            t1: self.times[j + 1],
            v1: self.values[j + 1],
        }
    }

    /// Iterate all segments left to right.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.num_segments()).map(|j| self.segment(j))
    }

    /// Index of the segment whose half-open span `[t_j, t_{j+1})` contains
    /// `t` (the final segment is closed on the right). `None` outside the
    /// domain. These half-open semantics guarantee a stabbing query returns
    /// exactly one segment per object, as EXACT3 requires.
    pub fn locate(&self, t: Time) -> Option<usize> {
        if t < self.start() || t > self.end() {
            return None;
        }
        if t == self.end() {
            return Some(self.num_segments() - 1);
        }
        // partition_point: count of times <= t; segment index is count-1.
        let idx = self.times.partition_point(|&x| x <= t);
        Some(idx - 1)
    }

    /// Evaluate `g_i(t)`, `None` outside the domain.
    pub fn eval(&self, t: Time) -> Option<Value> {
        let j = self.locate(t)?;
        Some(self.segment(j).eval(t))
    }

    /// `σ_i(a, b) = ∫_a^b g_i(t) dt`, clipped to the curve's domain.
    /// Cost is `O(log n + q)` where `q` is the number of overlapping
    /// segments (this is what EXACT1 pays per object).
    pub fn integral(&self, a: Time, b: Time) -> f64 {
        if b <= a {
            return 0.0;
        }
        let lo = a.max(self.start());
        let hi = b.min(self.end());
        if hi <= lo {
            return 0.0;
        }
        let first = self.locate(lo).expect("clamped inside domain");
        let mut acc = 0.0;
        for j in first..self.num_segments() {
            let seg = self.segment(j);
            if seg.t0 >= hi {
                break;
            }
            acc += seg.integral_clipped(lo, hi);
        }
        acc
    }

    /// `∫_a^b |g_i(t)| dt` (Section 4 negative-score extension).
    pub fn abs_integral(&self, a: Time, b: Time) -> f64 {
        if b <= a {
            return 0.0;
        }
        let lo = a.max(self.start());
        let hi = b.min(self.end());
        if hi <= lo {
            return 0.0;
        }
        let first = self.locate(lo).expect("clamped inside domain");
        let mut acc = 0.0;
        for j in first..self.num_segments() {
            let seg = self.segment(j);
            if seg.t0 >= hi {
                break;
            }
            acc += seg.abs_integral_clipped(lo, hi);
        }
        acc
    }

    /// Total integral over the whole domain, `σ_i(0, T)`.
    pub fn total(&self) -> f64 {
        self.segments().map(|s| s.integral_full()).sum()
    }

    /// Total absolute integral.
    pub fn total_abs(&self) -> f64 {
        let (a, b) = self.domain();
        self.abs_integral(a, b)
    }

    /// Prefix sums `P[ℓ] = σ_i(t_{i,0}, t_{i,ℓ})` for `ℓ ∈ [0, n_i]`
    /// (`P[0] = 0`). This is exactly the quantity EXACT2/EXACT3 store in
    /// their data entries (`σ_i(I_{i,ℓ})`), computed in one sweep.
    pub fn prefix_sums(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_points());
        out.push(0.0);
        let mut acc = 0.0;
        for seg in self.segments() {
            acc += seg.integral_full();
            out.push(acc);
        }
        out
    }

    /// Cumulative integral from the domain start to `t` (clamped), given
    /// precomputed [`PiecewiseLinear::prefix_sums`]. `O(log n)` — the Eq. (2)
    /// building block.
    pub fn cumulative_at(&self, prefix: &[f64], t: Time) -> f64 {
        debug_assert_eq!(prefix.len(), self.num_points());
        if t <= self.start() {
            return 0.0;
        }
        if t >= self.end() {
            return prefix[self.num_segments()];
        }
        let j = self.locate(t).expect("inside domain");
        prefix[j] + self.segment(j).integral_clipped(self.times[j], t)
    }

    /// `σ_i(a, b)` in `O(log n)` via prefix sums (Eq. (2) identity).
    pub fn integral_prefix(&self, prefix: &[f64], a: Time, b: Time) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.cumulative_at(prefix, b) - self.cumulative_at(prefix, a)
    }

    /// Smallest `t ≥ from` with `∫_from^t g_i = target` (`target > 0`),
    /// walking segments from `from` and solving the final crossing inside a
    /// segment. `None` when the curve's remaining mass is below `target`.
    /// This is the whole-curve version of
    /// [`Segment::time_to_accumulate`](crate::Segment::time_to_accumulate).
    pub fn time_to_accumulate(&self, from: Time, target: f64) -> Option<Time> {
        debug_assert!(target > 0.0);
        let from = from.max(self.start());
        if from >= self.end() {
            return None;
        }
        let first = self.locate(from).expect("clamped inside domain");
        let mut need = target;
        for j in first..self.num_segments() {
            let seg = self.segment(j);
            let lo = from.max(seg.t0);
            let available = seg.integral_clipped(lo, seg.t1);
            if available >= need {
                return seg.time_to_accumulate(lo, need);
            }
            need -= available;
        }
        None
    }

    /// Longest segment duration (EXACT1 needs this to bound its scan-back).
    pub fn max_segment_duration(&self) -> f64 {
        self.segments().map(|s| s.duration()).fold(0.0, f64::max)
    }

    /// Append a point, extending the curve to the right (the paper's update
    /// model: "updates only at the current time instance").
    pub fn append(&mut self, t: Time, v: Value) -> Result<()> {
        if !t.is_finite() || !v.is_finite() {
            return Err(CurveError::NonFinite { index: self.num_points() });
        }
        if t <= self.end() {
            return Err(CurveError::AppendNotAfterEnd { end: self.end(), time: t });
        }
        self.times.push(t);
        self.values.push(v);
        Ok(())
    }

    /// Minimum value over the domain (attained at a vertex).
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value over the domain (attained at a vertex).
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    fn curve() -> PiecewiseLinear {
        // (0,0) -> (2,4) -> (5,1) -> (6,1)
        PiecewiseLinear::from_points(&[(0.0, 0.0), (2.0, 4.0), (5.0, 1.0), (6.0, 1.0)]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            PiecewiseLinear::from_points(&[(0.0, 1.0)]),
            Err(CurveError::TooFewPoints(1))
        ));
        assert!(matches!(
            PiecewiseLinear::from_points(&[(0.0, 1.0), (0.0, 2.0)]),
            Err(CurveError::NotIncreasing { index: 1, .. })
        ));
        assert!(matches!(
            PiecewiseLinear::from_points(&[(0.0, 1.0), (3.0, 2.0), (2.0, 0.0)]),
            Err(CurveError::NotIncreasing { index: 2, .. })
        ));
        assert!(matches!(
            PiecewiseLinear::from_points(&[(0.0, f64::NAN), (1.0, 2.0)]),
            Err(CurveError::NonFinite { index: 0 })
        ));
    }

    #[test]
    fn basic_accessors() {
        let c = curve();
        assert_eq!(c.num_segments(), 3);
        assert_eq!(c.num_points(), 4);
        assert_eq!(c.domain(), (0.0, 6.0));
        assert_eq!(c.point(1), (2.0, 4.0));
        assert_eq!(c.segment(1), Segment::new(2.0, 4.0, 5.0, 1.0));
        assert_eq!(c.segments().count(), 3);
    }

    #[test]
    fn locate_half_open_semantics() {
        let c = curve();
        assert_eq!(c.locate(0.0), Some(0));
        assert_eq!(c.locate(1.99), Some(0));
        assert_eq!(c.locate(2.0), Some(1)); // boundary belongs to the right
        assert_eq!(c.locate(5.0), Some(2));
        assert_eq!(c.locate(6.0), Some(2)); // curve end closes the last
        assert_eq!(c.locate(-0.1), None);
        assert_eq!(c.locate(6.1), None);
    }

    #[test]
    fn eval_interpolates() {
        let c = curve();
        assert_eq!(c.eval(1.0), Some(2.0));
        assert_eq!(c.eval(3.5), Some(2.5));
        assert_eq!(c.eval(5.5), Some(1.0));
        assert_eq!(c.eval(9.0), None);
    }

    #[test]
    fn integral_whole_domain_matches_total() {
        let c = curve();
        // areas: seg0 = 4, seg1 = 7.5, seg2 = 1 → 12.5
        assert!(approx_eq(c.total(), 12.5, 1e-12));
        assert!(approx_eq(c.integral(0.0, 6.0), 12.5, 1e-12));
        assert!(approx_eq(c.integral(-100.0, 100.0), 12.5, 1e-12));
    }

    #[test]
    fn integral_subinterval() {
        let c = curve();
        // [1, 3]: seg0 part ∫_1^2 2t dt = 3; seg1 part ∫_2^3 (4-(t-2)) dt = 3.5
        assert!(approx_eq(c.integral(1.0, 3.0), 6.5, 1e-12));
        // empty and inverted intervals
        assert_eq!(c.integral(3.0, 3.0), 0.0);
        assert_eq!(c.integral(4.0, 3.0), 0.0);
    }

    #[test]
    fn prefix_sums_match_segment_areas() {
        let c = curve();
        let p = c.prefix_sums();
        assert_eq!(p.len(), 4);
        assert!(approx_eq(p[0], 0.0, 1e-12));
        assert!(approx_eq(p[1], 4.0, 1e-12));
        assert!(approx_eq(p[2], 11.5, 1e-12));
        assert!(approx_eq(p[3], 12.5, 1e-12));
    }

    #[test]
    fn integral_prefix_agrees_with_direct_integral() {
        let c = curve();
        let p = c.prefix_sums();
        for &(a, b) in
            &[(0.0, 6.0), (1.0, 3.0), (2.0, 2.5), (-1.0, 4.0), (5.9, 8.0), (0.0, 0.0), (3.0, 1.0)]
        {
            assert!(
                approx_eq(c.integral_prefix(&p, a, b), c.integral(a, b), 1e-12),
                "interval [{a}, {b}]"
            );
        }
    }

    #[test]
    fn abs_integral_on_mixed_sign_curve() {
        // (0,-1) -> (2,1): crosses zero at t=1; two triangles of area 0.5.
        let c = PiecewiseLinear::from_points(&[(0.0, -1.0), (2.0, 1.0)]).unwrap();
        assert!(approx_eq(c.integral(0.0, 2.0), 0.0, 1e-12));
        assert!(approx_eq(c.abs_integral(0.0, 2.0), 1.0, 1e-12));
        assert!(approx_eq(c.total_abs(), 1.0, 1e-12));
    }

    #[test]
    fn append_extends_and_validates() {
        let mut c = curve();
        assert!(matches!(c.append(6.0, 0.0), Err(CurveError::AppendNotAfterEnd { .. })));
        assert!(matches!(c.append(7.0, f64::INFINITY), Err(CurveError::NonFinite { .. })));
        c.append(8.0, 3.0).unwrap();
        assert_eq!(c.num_segments(), 4);
        assert_eq!(c.end(), 8.0);
        // new trapezoid from (6,1) to (8,3): area 4
        assert!(approx_eq(c.total(), 16.5, 1e-12));
    }

    #[test]
    fn max_segment_duration_and_extrema() {
        let c = curve();
        assert_eq!(c.max_segment_duration(), 3.0);
        assert_eq!(c.min_value(), 0.0);
        assert_eq!(c.max_value(), 4.0);
    }

    #[test]
    fn time_to_accumulate_walks_segments() {
        let c = curve(); // total 12.5, prefix [0, 4, 11.5, 12.5]
                         // target 4 from 0 → exactly the first vertex t=2.
        let t = c.time_to_accumulate(0.0, 4.0).unwrap();
        assert!(approx_eq(c.integral(0.0, t), 4.0, 1e-9), "t={t}");
        // target inside second segment.
        let t = c.time_to_accumulate(0.0, 8.0).unwrap();
        assert!(approx_eq(c.integral(0.0, t), 8.0, 1e-9), "t={t}");
        assert!(t > 2.0 && t < 5.0);
        // from an interior start.
        let t = c.time_to_accumulate(3.0, 2.0).unwrap();
        assert!(approx_eq(c.integral(3.0, t), 2.0, 1e-9), "t={t}");
        // more than the remaining mass.
        assert!(c.time_to_accumulate(0.0, 13.0).is_none());
        assert!(c.time_to_accumulate(5.9, 1.0).is_none());
        assert!(c.time_to_accumulate(6.0, 0.5).is_none());
    }

    #[test]
    fn integral_clipped_to_partial_domain_overlap() {
        let c = PiecewiseLinear::from_points(&[(10.0, 2.0), (20.0, 2.0)]).unwrap();
        assert!(approx_eq(c.integral(0.0, 15.0), 10.0, 1e-12));
        assert!(approx_eq(c.integral(15.0, 100.0), 10.0, 1e-12));
        assert_eq!(c.integral(0.0, 10.0), 0.0);
        assert_eq!(c.integral(20.0, 30.0), 0.0);
    }
}
