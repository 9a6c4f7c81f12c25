//! Top-k answers and the common ranking interface.

use crate::agg::AggKind;
use crate::error::Result;
use crate::object::ObjectId;
use chronorank_storage::IoStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An ordered top-k answer `A(k, t1, t2)`: `(object, score)` pairs in
/// descending score order (ties broken by ascending object id, so answers
/// are deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    entries: Vec<(ObjectId, f64)>,
}

impl TopK {
    /// Wrap pre-ranked entries (descending score; used by index internals).
    pub fn from_ranked(entries: Vec<(ObjectId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].1 >= w[1].1));
        Self { entries }
    }

    /// Number of returned objects (≤ requested `k`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no objects were returned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `j`-th ranked object and score (0-based; the paper's `A(j)`).
    pub fn rank(&self, j: usize) -> (ObjectId, f64) {
        self.entries[j]
    }

    /// Ranked `(object, score)` pairs.
    pub fn entries(&self) -> &[(ObjectId, f64)] {
        &self.entries
    }

    /// Ranked object ids.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.entries.iter().map(|&(id, _)| id).collect()
    }

    /// Ranked scores.
    pub fn scores(&self) -> Vec<f64> {
        self.entries.iter().map(|&(_, s)| s).collect()
    }

    /// Divide every score by `len` — converts `sum` answers to `avg`
    /// answers (identical ordering for positive-length intervals).
    pub(crate) fn into_avg(mut self, len: f64) -> Self {
        debug_assert!(len > 0.0);
        for e in &mut self.entries {
            e.1 /= len;
        }
        self
    }
}

/// Heap item ordered so the **worst** retained candidate is at the top of a
/// `BinaryHeap` (max-heap): lower score = greater, and among equal scores a
/// *larger* id = greater (so ties keep the smallest ids).
#[derive(PartialEq)]
pub(crate) struct WorstFirst(pub(crate) f64, pub(crate) ObjectId);

impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(self.1.cmp(&other.1))
    }
}

/// Select the top `k` scores from an iterator with a size-`k` min-heap —
/// the `O(x log k)` priority-queue step every method in the paper ends
/// with. Deterministic: score ties are broken by smaller object id. A `k`
/// past the input's length returns the whole input: the heap is sized by
/// what the input can fill, never by `k` alone.
pub(crate) fn top_k_from_scores(scores: impl Iterator<Item = (ObjectId, f64)>, k: usize) -> TopK {
    if k == 0 {
        return TopK { entries: Vec::new() };
    }
    let (lower, upper) = scores.size_hint();
    let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::with_capacity(k.min(upper.unwrap_or(lower)));
    for (id, s) in scores {
        if heap.len() < k {
            heap.push(WorstFirst(s, id));
        } else if let Some(top) = heap.peek() {
            // Replace the current worst if strictly better (or same score
            // with smaller id).
            if WorstFirst(s, id) < *top {
                heap.pop();
                heap.push(WorstFirst(s, id));
            }
        }
    }
    let mut entries: Vec<(ObjectId, f64)> =
        heap.into_iter().map(|WorstFirst(s, id)| (id, s)).collect();
    entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    TopK { entries }
}

/// Push into a size-capped top-k heap (used by the QUERY1/QUERY2 builders
/// to maintain one top-`kmax` list per materialized interval).
pub(crate) fn capped_push(heap: &mut BinaryHeap<WorstFirst>, cap: usize, score: f64, id: ObjectId) {
    if cap == 0 {
        return;
    }
    if heap.len() < cap {
        heap.push(WorstFirst(score, id));
    } else if let Some(top) = heap.peek() {
        if WorstFirst(score, id) < *top {
            heap.pop();
            heap.push(WorstFirst(score, id));
        }
    }
}

/// Drain a capped heap into `(id, score)` pairs sorted by descending score
/// (ties: ascending id).
pub(crate) fn heap_into_desc(heap: BinaryHeap<WorstFirst>) -> Vec<(ObjectId, f64)> {
    let mut v: Vec<(ObjectId, f64)> = heap.into_iter().map(|WorstFirst(s, id)| (id, s)).collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// The interface every ranking method implements — exact
/// ([`crate::Exact1`], [`crate::Exact2`], [`crate::Exact3`]) and
/// approximate ([`crate::ApproxIndex`]).
pub trait RankMethod {
    /// Short method name as used in the paper ("EXACT3", "APPX2+", …).
    fn name(&self) -> String;

    /// Answer `top-k(t1, t2, agg)`.
    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK>;

    /// Index size in bytes on the storage device.
    fn size_bytes(&self) -> u64;

    /// Cumulative block IOs performed by this method's storage.
    fn io_stats(&self) -> IoStats;

    /// Reset the IO counters (e.g. before measuring one query).
    fn reset_io(&self);

    /// Flush and empty all caches so the next query runs cold.
    fn drop_caches(&self) -> Result<()>;
}

/// Validate a query interval, shared by all methods.
pub(crate) fn check_interval(t1: f64, t2: f64) -> Result<()> {
    if !t1.is_finite() || !t2.is_finite() {
        return Err(crate::CoreError::BadQuery(format!(
            "query interval must be finite, got [{t1}, {t2}]"
        )));
    }
    if t2 < t1 {
        return Err(crate::CoreError::BadQuery(format!(
            "query interval reversed: t2 = {t2} < t1 = {t1}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_top_k_with_ties_by_id() {
        let scores = vec![(0u32, 5.0), (1, 7.0), (2, 5.0), (3, 9.0), (4, 7.0)];
        let top = top_k_from_scores(scores.into_iter(), 3);
        assert_eq!(top.entries(), &[(3, 9.0), (1, 7.0), (4, 7.0)]);
        assert_eq!(top.rank(0), (3, 9.0));
        assert_eq!(top.ids(), vec![3, 1, 4]);
        assert_eq!(top.scores(), vec![9.0, 7.0, 7.0]);
    }

    #[test]
    fn tie_at_cutoff_prefers_smaller_id() {
        let scores = vec![(9u32, 1.0), (2, 1.0), (5, 1.0), (1, 1.0)];
        let top = top_k_from_scores(scores.into_iter(), 2);
        assert_eq!(top.ids(), vec![1, 2]);
    }

    #[test]
    fn k_larger_than_m_returns_all() {
        let scores = vec![(0u32, 1.0), (1, 2.0)];
        let top = top_k_from_scores(scores.into_iter(), 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top.ids(), vec![1, 0]);
    }

    #[test]
    fn k_zero_is_empty() {
        let top = top_k_from_scores(vec![(0u32, 1.0)].into_iter(), 0);
        assert!(top.is_empty());
    }

    #[test]
    fn into_avg_divides_scores() {
        let top = TopK::from_ranked(vec![(0, 10.0), (1, 5.0)]).into_avg(5.0);
        assert_eq!(top.scores(), vec![2.0, 1.0]);
    }

    #[test]
    fn check_interval_validates() {
        assert!(check_interval(0.0, 1.0).is_ok());
        assert!(check_interval(1.0, 1.0).is_ok());
        assert!(check_interval(2.0, 1.0).is_err());
        assert!(check_interval(f64::NAN, 1.0).is_err());
        assert!(check_interval(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn negative_scores_rank_correctly() {
        let scores = vec![(0u32, -5.0), (1, -1.0), (2, -3.0)];
        let top = top_k_from_scores(scores.into_iter(), 2);
        assert_eq!(top.ids(), vec![1, 2]);
    }
}
