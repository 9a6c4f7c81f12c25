//! Approximation-quality metrics (paper §5, "Setup").
//!
//! The evaluation reports two quality measures for every approximate
//! method:
//!
//! * **precision/recall** between the approximate answer `Ã` and the exact
//!   answer `A` — equal by construction since both have `k` members;
//! * the **approximation ratio** `σ̃_i(t1,t2) / σ_i(t1,t2)` averaged over
//!   the objects returned in `Ã`.

use crate::object::TemporalSet;
use crate::topk::TopK;
use crate::Result;

/// `|A ∩ Ã| / |A|`. With both answers of size `k`, precision = recall
/// (paper: "the precision and the recall will have the same denominator").
pub fn precision(exact: &TopK, approx: &TopK) -> f64 {
    if exact.is_empty() {
        return if approx.is_empty() { 1.0 } else { 0.0 };
    }
    let exact_ids: std::collections::HashSet<_> = exact.ids().into_iter().collect();
    let hits = approx.ids().iter().filter(|id| exact_ids.contains(id)).count();
    hits as f64 / exact.len() as f64
}

/// Statistics of per-object approximation ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioStats {
    /// Mean of `σ̃/σ` over returned objects with `σ ≠ 0`.
    pub mean: f64,
    /// Smallest observed ratio.
    pub min: f64,
    /// Largest observed ratio.
    pub max: f64,
    /// Objects skipped because the true score was (numerically) zero.
    pub skipped: usize,
}

/// Approximation ratios `σ̃_i / σ_i` for every object the approximate
/// answer returned, with `σ_i` recomputed exactly from the set. An id the
/// set does not hold is an error ([`crate::CoreError::NoSuchObject`]), not
/// a skipped object.
pub fn approximation_ratio(
    set: &TemporalSet,
    approx: &TopK,
    t1: f64,
    t2: f64,
) -> Result<RatioStats> {
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut skipped = 0usize;
    let scale = set.total_mass().max(1.0);
    for &(id, approx_score) in approx.entries() {
        let truth = set.score(id, t1, t2)?;
        if truth.abs() <= 1e-12 * scale {
            skipped += 1;
            continue;
        }
        let ratio = approx_score / truth;
        sum += ratio;
        n += 1;
        min = min.min(ratio);
        max = max.max(ratio);
    }
    if n == 0 {
        return Ok(RatioStats { mean: 1.0, min: 1.0, max: 1.0, skipped });
    }
    Ok(RatioStats { mean: sum / n as f64, min, max, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_set;
    use crate::topk::TopK;

    #[test]
    fn precision_counts_overlap() {
        let a = TopK::from_ranked(vec![(0, 3.0), (1, 2.0), (2, 1.0)]);
        let b = TopK::from_ranked(vec![(0, 3.0), (2, 2.0), (5, 1.0)]);
        assert!((precision(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(precision(&a, &a), 1.0);
        let empty = TopK::from_ranked(vec![]);
        assert_eq!(precision(&empty, &empty), 1.0);
        assert_eq!(precision(&empty, &a), 0.0);
    }

    #[test]
    fn perfect_scores_give_unit_ratio() {
        let set = small_set();
        let exact = set.top_k_bruteforce(2.0, 10.0, 3);
        let stats = approximation_ratio(&set, &exact, 2.0, 10.0).unwrap();
        assert!((stats.mean - 1.0).abs() < 1e-12);
        assert!((stats.min - 1.0).abs() < 1e-12);
        assert!((stats.max - 1.0).abs() < 1e-12);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn inflated_scores_show_in_ratio() {
        let set = small_set();
        let exact = set.top_k_bruteforce(2.0, 10.0, 2);
        let doubled =
            TopK::from_ranked(exact.entries().iter().map(|&(id, s)| (id, 2.0 * s)).collect());
        let stats = approximation_ratio(&set, &doubled, 2.0, 10.0).unwrap();
        assert!((stats.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_truth_scores_are_skipped() {
        let set = small_set();
        // Object 5 is the all-zero curve.
        let fake = TopK::from_ranked(vec![(5, 0.5)]);
        let stats = approximation_ratio(&set, &fake, 2.0, 10.0).unwrap();
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.mean, 1.0);
    }

    #[test]
    fn an_unknown_object_is_an_error_not_a_skip() {
        let set = small_set();
        let m = set.num_objects() as crate::ObjectId;
        let bogus = TopK::from_ranked(vec![(m, 0.5)]);
        assert!(matches!(
            approximation_ratio(&set, &bogus, 2.0, 10.0),
            Err(crate::CoreError::NoSuchObject(id)) if id == m
        ));
    }
}
