//! The temporal database model: objects and object sets.

use crate::error::{CoreError, Result};
use crate::streambuild::{scan_stats, StreamStats};
use chronorank_curve::{ColumnarTail, PiecewiseLinear, Segment};
use chronorank_index::IndexError;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Object identifier; objects are dense `0..m` within a [`TemporalSet`].
pub type ObjectId = u32;

/// One temporal object `o_i`: an id plus its score curve `g_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalObject {
    /// Dense id in `[0, m)`.
    pub id: ObjectId,
    /// The piecewise-linear score function.
    pub curve: PiecewiseLinear,
}

/// The id rule of every object stream, resident or streamed: the object at
/// `position` carries id `position`. Every streaming constructor's push
/// loop checks it before indexing per-object state by id.
pub(crate) fn check_id(position: usize, o: &TemporalObject) -> Result<()> {
    if o.id as usize != position {
        return Err(CoreError::BadQuery(format!(
            "object ids must be dense and ordered: position {position} holds id {}",
            o.id
        )));
    }
    Ok(())
}

/// One §4 update: a new reading `(t, v)` extending `object` at its right
/// time edge (the segment from the object's previous endpoint to `(t, v)`).
///
/// This is the unit the live ingest path moves around — appended to the
/// write-ahead log, shipped to shards, replayed on recovery — so it is
/// plain `Copy` data with a fixed-width byte encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendRecord {
    /// The object being extended.
    pub object: ObjectId,
    /// New right edge (must exceed the object's current end time).
    pub t: f64,
    /// Score value at `t`.
    pub v: f64,
}

impl AppendRecord {
    /// Byte length of [`AppendRecord::encode`]'s output.
    pub const ENCODED_LEN: usize = 20;

    /// Fixed-width little-endian encoding (object, t, v).
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[..4].copy_from_slice(&self.object.to_le_bytes());
        out[4..12].copy_from_slice(&self.t.to_bits().to_le_bytes());
        out[12..20].copy_from_slice(&self.v.to_bits().to_le_bytes());
        out
    }

    /// Inverse of [`AppendRecord::encode`]; `None` on a length mismatch.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        Some(Self {
            object: ObjectId::from_le_bytes(bytes[..4].try_into().ok()?),
            t: f64::from_bits(u64::from_le_bytes(bytes[4..12].try_into().ok()?)),
            v: f64::from_bits(u64::from_le_bytes(bytes[12..20].try_into().ok()?)),
        })
    }
}

/// The temporal database: `m` objects over a common time domain `[0, T]`
/// (objects need not individually span the whole domain, nor align their
/// segment boundaries — the paper explicitly permits heterogeneous
/// segmentations).
///
/// The set is the ground-truth, in-memory representation that all index
/// structures are built from; it also serves as the oracle for correctness
/// tests ([`TemporalSet::score`] / [`TemporalSet::top_k_bruteforce`]).
#[derive(Debug, Clone)]
pub struct TemporalSet {
    objects: Vec<TemporalObject>,
    /// What [`scan_stats`] reports over `objects` — a resident set is one
    /// more object stream — kept current by [`TemporalSet::append_segment`].
    stats: StreamStats,
}

impl TemporalSet {
    /// Build a set from curves; ids are assigned positionally.
    pub fn from_curves(curves: Vec<PiecewiseLinear>) -> Result<Self> {
        let objects = curves
            .into_iter()
            .enumerate()
            .map(|(i, curve)| TemporalObject { id: i as ObjectId, curve })
            .collect();
        Self::from_objects(objects)
    }

    /// Build a set from objects whose ids must be dense `0..m` in order.
    pub fn from_objects(objects: Vec<TemporalObject>) -> Result<Self> {
        if objects.is_empty() {
            return Err(CoreError::BadQuery("a temporal set needs at least one object".into()));
        }
        for (position, o) in objects.iter().enumerate() {
            check_id(position, o)?;
        }
        let stats = scan_stats(&objects);
        Ok(Self { objects, stats })
    }

    /// Number of objects `m`.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Total number of segments `N`.
    pub fn num_segments(&self) -> u64 {
        self.stats.num_segments
    }

    /// Left edge of the global time domain.
    pub fn t_min(&self) -> f64 {
        self.stats.t_min
    }

    /// Right edge of the global time domain (`T`).
    pub fn t_max(&self) -> f64 {
        self.stats.t_max
    }

    /// `t_max - t_min`.
    pub fn span(&self) -> f64 {
        self.stats.t_max - self.stats.t_min
    }

    /// `M = Σ_i ∫ |g_i|` — the paper's total mass, absolute-valued per §4.
    pub fn total_mass(&self) -> f64 {
        self.stats.total_mass
    }

    /// True when any curve dips below zero.
    pub fn has_negative(&self) -> bool {
        self.stats.has_negative
    }

    /// Longest single segment duration across all objects.
    pub fn max_segment_duration(&self) -> f64 {
        self.stats.max_segment_duration
    }

    /// Borrow an object.
    pub fn object(&self, id: ObjectId) -> Result<&TemporalObject> {
        self.objects.get(id as usize).ok_or(CoreError::NoSuchObject(id))
    }

    /// All objects, id order.
    pub fn objects(&self) -> &[TemporalObject] {
        &self.objects
    }

    /// Every segment of the set in global start-time order (see
    /// [`TimeOrdered`]) — what a resident EXACT1 / EXACT3 build loads its
    /// tree from. A resident BREAKPOINTS2 sweep runs the same merge over
    /// the `|g_i|` curves and keeps only its object order.
    pub fn time_ordered(&self) -> TimeOrdered<'_> {
        TimeOrdered::new(self.objects.iter().map(|o| (o.curve.times(), o.curve.values())).collect())
    }

    /// `σ_i(t1, t2)`: the ground-truth aggregate score of one object.
    pub fn score(&self, id: ObjectId, t1: f64, t2: f64) -> Result<f64> {
        Ok(self.object(id)?.curve.integral(t1, t2))
    }

    /// Ground-truth `top-k(t1, t2, sum)` by brute force over all objects —
    /// the paper's EXACT1 semantics without any index; `O(m log n + Σ q_i)`
    /// compute. Used as the oracle in tests and quality metrics.
    pub fn top_k_bruteforce(&self, t1: f64, t2: f64, k: usize) -> crate::TopK {
        let scores = self.objects.iter().map(|o| (o.id, o.curve.integral(t1, t2)));
        crate::topk::top_k_from_scores(scores, k)
    }

    /// Append a segment to object `id` (the paper's §4 update model: a new
    /// segment extending the object at the current time edge). Set-level
    /// statistics (`M`, `N`, `T`, …) are maintained incrementally.
    pub fn append_segment(&mut self, id: ObjectId, t: f64, v: f64) -> Result<()> {
        let idx = id as usize;
        if idx >= self.objects.len() {
            return Err(CoreError::NoSuchObject(id));
        }
        let curve = &mut self.objects[idx].curve;
        let (prev_t, prev_v) = curve.point(curve.num_points() - 1);
        curve.append(t, v)?;
        self.stats.num_segments += 1;
        self.stats.t_max = self.stats.t_max.max(t);
        self.stats.max_segment_duration = self.stats.max_segment_duration.max(t - prev_t);
        // Absolute mass of the new trapezoid (exact, including sign change).
        let seg = chronorank_curve::Segment::new(prev_t, prev_v, t, v);
        self.stats.total_mass += seg.abs_integral_clipped(prev_t, t);
        self.stats.has_negative |= v < 0.0;
        Ok(())
    }

    /// Apply one [`AppendRecord`] (the §4 update model as shipped by the
    /// live ingest path).
    pub fn apply(&mut self, rec: AppendRecord) -> Result<()> {
        self.append_segment(rec.object, rec.t, rec.v)
    }

    /// Serialize every curve with exact `f64` bits: `m`, then per object
    /// the point count followed by its `(t, v)` pairs — a blob of the
    /// set's size for a caller that writes one out. Nothing in the
    /// workspace parses it back: a live checkpoint stores the columnar
    /// form ([`TemporalSet::to_columnar`]), whose reader checks every count
    /// against the blob's length before it allocates.
    pub fn to_bytes(&self) -> Vec<u8> {
        let total_points: usize = self.objects.iter().map(|o| o.curve.num_points()).sum();
        let mut out = Vec::with_capacity(4 + 4 * self.objects.len() + 16 * total_points);
        out.extend_from_slice(&(self.objects.len() as u32).to_le_bytes());
        for o in &self.objects {
            out.extend_from_slice(&(o.curve.num_points() as u32).to_le_bytes());
            for (&t, &v) in o.curve.times().iter().zip(o.curve.values()) {
                out.extend_from_slice(&t.to_bits().to_le_bytes());
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Freeze every curve into columnar (structure-of-arrays) storage —
    /// the live tier's mutable-tail representation and the checkpoint
    /// image's `live_set` section format. Point bits are copied verbatim.
    pub fn to_columnar(&self) -> ColumnarTail {
        let mut ct = ColumnarTail::new();
        for o in &self.objects {
            ct.push_object(o.curve.times(), o.curve.values())
                .expect("set curves are already validated");
        }
        ct
    }

    /// Rebuild a row-form set from columnar storage (ids positional, as
    /// [`TemporalSet::from_curves`]). Inverse of
    /// [`TemporalSet::to_columnar`] bit-for-bit; statistics are recomputed
    /// from the same point bits.
    pub fn from_columnar(ct: &ColumnarTail) -> Result<Self> {
        let (mut times, mut values) = (Vec::new(), Vec::new());
        let objects = (0..ct.num_objects())
            .map(|i| {
                ct.copy_points(i, &mut times, &mut values);
                let curve = PiecewiseLinear::from_times_values(times.clone(), values.clone())?;
                Ok(TemporalObject { id: i as ObjectId, curve })
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_objects(objects)
    }

    /// The set as it looked when object `i` ended at `ends[i]`: every
    /// curve truncated to its point-prefix with `t ≤ ends[i]`. Because the
    /// §4 update model only ever extends curves at the right edge, this
    /// prefix is **bit-identical** to the historical snapshot — which is
    /// how a persisted generation's approximate indexes are rebuilt
    /// deterministically from the recovered live set plus the frozen-end
    /// stamps, without persisting a second copy of the curves.
    pub fn truncated_at(&self, ends: &[f64]) -> Result<Self> {
        if ends.len() != self.objects.len() {
            return Err(CoreError::BadQuery(format!(
                "frozen-end table covers {} objects, set holds {}",
                ends.len(),
                self.objects.len()
            )));
        }
        let objects = self
            .objects
            .iter()
            .zip(ends)
            .map(|(o, &end)| {
                let keep = o.curve.times().partition_point(|&t| t <= end);
                if keep < 2 {
                    return Err(CoreError::BadQuery(format!(
                        "frozen end {end} precedes object {}'s second point",
                        o.id
                    )));
                }
                let curve = PiecewiseLinear::from_times_values(
                    o.curve.times()[..keep].to_vec(),
                    o.curve.values()[..keep].to_vec(),
                )?;
                Ok(TemporalObject { id: o.id, curve })
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_objects(objects)
    }
}

/// A resident set's segments in global start-time order, without sorting
/// them: every curve is already in `t0` order, so an `m`-way merge of
/// per-object cursors keyed `(t0 by total_cmp, object position)` — an
/// object's start times strictly increase, so the segment position never
/// has to break a tie — yields exactly the sequence a stable sort by `t0`
/// over an object-major push produces, which is what
/// `chronorank_index::ExternalSorter` (stable run sort, run index as the
/// merge tie-break) hands the streamed builds. Memory is `O(m)`, `64·m`
/// bytes: the borrowed point columns, the heap, each object's next segment
/// and its running prefix sum. The resident EXACT1 / EXACT3 loaders read
/// it, and so does a resident BREAKPOINTS2 run, which keeps only the
/// object of each segment (4 bytes a segment) and replays that order once
/// per sweep of a count fit.
///
/// Yields `(object, segment, prefix)`, `prefix` being `σ_i` through the end
/// of that segment — the running sum of [`Segment::integral_full`] in
/// segment order, the value EXACT3 stores beside each entry. A non-finite
/// start time is refused with the sorter's error when the merge reaches it
/// (a validated curve holds none).
pub struct TimeOrdered<'a> {
    /// Per object, its `(times, values)` point columns.
    columns: Vec<(&'a [f64], &'a [f64])>,
    /// One head per object with segments left: `(t0 in total order, object)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per object, the segment its head stands for.
    next: Vec<usize>,
    prefix: Vec<f64>,
}

/// `f64::total_cmp` order as unsigned integers: negatives flipped whole,
/// the sign bit set on the rest.
fn total_order_bits(t: f64) -> u64 {
    t.to_bits() ^ ((t.to_bits() as i64 >> 63) as u64 | 1 << 63)
}

impl<'a> TimeOrdered<'a> {
    /// Merge objects given as point columns (`n + 1` points = `n`
    /// segments; ids are positions).
    pub(crate) fn new(columns: Vec<(&'a [f64], &'a [f64])>) -> Self {
        let heap = columns
            .iter()
            .zip(0u32..)
            .filter(|((times, _), _)| times.len() >= 2)
            .map(|((times, _), obj)| Reverse((total_order_bits(times[0]), obj)))
            .collect();
        Self { next: vec![0; columns.len()], prefix: vec![0.0; columns.len()], heap, columns }
    }
}

impl Iterator for TimeOrdered<'_> {
    type Item = Result<(ObjectId, Segment, f64)>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut head = self.heap.peek_mut()?;
        let obj = head.0 .1;
        let (times, values) = self.columns[obj as usize];
        let j = self.next[obj as usize];
        self.next[obj as usize] = j + 1;
        // Re-key the head in place (one sift) while the object has more.
        if j + 2 < times.len() {
            head.0 .0 = total_order_bits(times[j + 1]);
            drop(head);
        } else {
            PeekMut::pop(head);
        }
        let seg = Segment { t0: times[j], v0: values[j], t1: times[j + 1], v1: values[j + 1] };
        if !seg.t0.is_finite() {
            return Some(Err(IndexError::BadInput("record key must be finite".into()).into()));
        }
        let prefix = &mut self.prefix[obj as usize];
        *prefix += seg.integral_full();
        Some(Ok((obj, seg, *prefix)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_curve::numeric::approx_eq;

    fn set() -> TemporalSet {
        let c0 = PiecewiseLinear::from_points(&[(0.0, 1.0), (10.0, 1.0)]).unwrap(); // area 10
        let c1 = PiecewiseLinear::from_points(&[(2.0, 0.0), (6.0, 4.0), (8.0, 0.0)]).unwrap(); // area 12
        let c2 = PiecewiseLinear::from_points(&[(5.0, 2.0), (15.0, 2.0)]).unwrap(); // area 20
        TemporalSet::from_curves(vec![c0, c1, c2]).unwrap()
    }

    #[test]
    fn stats_are_computed() {
        let s = set();
        assert_eq!(s.num_objects(), 3);
        assert_eq!(s.num_segments(), 4);
        assert_eq!(s.t_min(), 0.0);
        assert_eq!(s.t_max(), 15.0);
        assert_eq!(s.span(), 15.0);
        assert!(approx_eq(s.total_mass(), 42.0, 1e-12));
        assert!(!s.has_negative());
        assert_eq!(s.max_segment_duration(), 10.0);
    }

    #[test]
    fn id_validation() {
        let c = PiecewiseLinear::from_points(&[(0.0, 1.0), (1.0, 1.0)]).unwrap();
        let bad = vec![TemporalObject { id: 5, curve: c }];
        assert!(TemporalSet::from_objects(bad).is_err());
        assert!(TemporalSet::from_objects(vec![]).is_err());
    }

    #[test]
    fn scores_and_bruteforce_topk() {
        let s = set();
        // On [4, 8]: o0 = 4, o1 = ∫_4^6 (t-2) + ∫_6^8 (4-2(t-6)) = 6+4 = 10...
        // o1 on [4,6]: values 2→4 → area 6; [6,8]: 4→0 → area 4; total 10.
        // o2 on [5,8]: 2*3 = 6.
        assert!(approx_eq(s.score(0, 4.0, 8.0).unwrap(), 4.0, 1e-12));
        assert!(approx_eq(s.score(1, 4.0, 8.0).unwrap(), 10.0, 1e-12));
        assert!(approx_eq(s.score(2, 4.0, 8.0).unwrap(), 6.0, 1e-12));
        let top = s.top_k_bruteforce(4.0, 8.0, 2);
        assert_eq!(top.ids(), vec![1, 2]);
        assert!(s.score(99, 0.0, 1.0).is_err());
    }

    #[test]
    fn figure2_example() {
        // Reproduce the paper's Figure 2 claims: the top-2(t1,t2,sum) answer
        // is {o3, o1}; and A(1, t2, t3) = {o1} even though o1 is never an
        // instant top-1(t) for any t in [t2, t3].
        let o1 = PiecewiseLinear::from_points(&[(0.0, 5.0), (10.0, 5.0)]).unwrap();
        let o2 = PiecewiseLinear::from_points(&[
            (0.0, 1.0),
            (3.0, 2.0),
            (4.0, 9.0),
            (5.0, 2.0),
            (6.0, 0.5),
            (8.0, 5.5),
            (10.0, 6.0),
        ])
        .unwrap();
        let o3 = PiecewiseLinear::from_points(&[(0.0, 8.0), (6.0, 8.0), (10.0, 1.9)]).unwrap();
        let s = TemporalSet::from_curves(vec![o1, o2, o3]).unwrap();
        // Over [1, 6] (the figure's [t1, t2]): o3 = 40, o1 = 25, o2 ≈ 15.6.
        let top = s.top_k_bruteforce(1.0, 6.0, 2);
        assert_eq!(top.ids(), vec![2, 0], "answer must be (o3, o1)");
        // Over [6, 10] (the figure's [t2, t3]): o1 = 20 beats o3 = 19.8 and
        // o2 = 17.5, yet at every instant either o3 (early) or o2 (late) is
        // above o1's constant 5.
        let top = s.top_k_bruteforce(6.0, 10.0, 1);
        assert_eq!(top.ids(), vec![0]);
        for i in 0..=40 {
            let t = 6.0 + i as f64 * 0.1;
            let v1 = s.object(0).unwrap().curve.eval(t).unwrap();
            let v2 = s.object(1).unwrap().curve.eval(t).unwrap();
            let v3 = s.object(2).unwrap().curve.eval(t).unwrap();
            assert!(v2.max(v3) >= v1, "o1 must never be instant top-1 (t={t})");
        }
    }

    #[test]
    fn append_segment_maintains_stats() {
        let mut s = set();
        let m_before = s.total_mass();
        s.append_segment(0, 14.0, 3.0).unwrap(); // trapezoid (1+3)/2*4 = 8
        assert_eq!(s.num_segments(), 5);
        assert!(approx_eq(s.total_mass(), m_before + 8.0, 1e-12));
        assert_eq!(s.t_max(), 15.0); // still dominated by o2
        s.append_segment(0, 20.0, 3.0).unwrap();
        assert_eq!(s.t_max(), 20.0);
        assert!(s.append_segment(9, 30.0, 0.0).is_err());
        assert!(s.append_segment(0, 1.0, 0.0).is_err(), "must extend rightward");
    }

    #[test]
    fn appending_to_a_cloned_set_leaves_the_original_bit_for_bit() {
        let original = set();
        let bits = |s: &TemporalSet| -> Vec<u64> {
            let columns = s.objects().iter().flat_map(|o| [o.curve.times(), o.curve.values()]);
            columns.flatten().map(|x| x.to_bits()).collect()
        };
        let before = bits(&original);
        let mut clone = original.clone();
        for (a, b) in original.objects().iter().zip(clone.objects()) {
            assert_eq!(a.curve.times().as_ptr(), b.curve.times().as_ptr(), "columns are shared");
        }
        clone.append_segment(1, 9.5, -2.0).unwrap();
        assert_eq!(bits(&original), before);
        assert_eq!((original.num_segments(), original.t_max()), (4, 15.0));
        assert!(!original.has_negative());
        assert_eq!(clone.object(1).unwrap().curve.point(3), (9.5, -2.0));
        assert_eq!(clone.num_segments(), 5);
        assert!(clone.has_negative());
    }

    #[test]
    fn append_record_roundtrips_bit_exactly() {
        let rec = AppendRecord { object: 7, t: 123.456789e-3, v: -0.1 };
        let bytes = rec.encode();
        assert_eq!(bytes.len(), AppendRecord::ENCODED_LEN);
        let back = AppendRecord::decode(&bytes).unwrap();
        assert_eq!(back.object, rec.object);
        assert_eq!(back.t.to_bits(), rec.t.to_bits());
        assert_eq!(back.v.to_bits(), rec.v.to_bits());
        assert!(AppendRecord::decode(&bytes[..10]).is_none());
        // apply == append_segment.
        let mut a = set();
        let mut b = set();
        a.apply(AppendRecord { object: 0, t: 14.0, v: 3.0 }).unwrap();
        b.append_segment(0, 14.0, 3.0).unwrap();
        assert_eq!(a.total_mass().to_bits(), b.total_mass().to_bits());
        assert!(a.apply(AppendRecord { object: 99, t: 1.0, v: 0.0 }).is_err());
    }

    #[test]
    fn columnar_roundtrip_is_bit_identical() {
        let mut s = set();
        s.append_segment(1, 9.5, -2.0).unwrap();
        let ct = s.to_columnar();
        assert_eq!(ct.num_objects(), s.num_objects());
        let back = TemporalSet::from_columnar(&ct).unwrap();
        assert_eq!(back.num_objects(), s.num_objects());
        for (a, b) in s.objects().iter().zip(back.objects()) {
            assert_eq!(a.id, b.id);
            for j in 0..a.curve.num_points() {
                let (at, av) = a.curve.point(j);
                let (bt, bv) = b.curve.point(j);
                assert_eq!(at.to_bits(), bt.to_bits());
                assert_eq!(av.to_bits(), bv.to_bits());
            }
        }
        // Stats recompute from identical bits → identical stats.
        assert_eq!(back.total_mass().to_bits(), s.total_mass().to_bits());
        assert_eq!(back.num_segments(), s.num_segments());
        assert!(back.has_negative());
    }

    /// What the resident builds used to get from the sorter: every segment
    /// start in object-major push order, stably sorted by `t0.total_cmp`.
    fn stable_sort_order(columns: &[(&[f64], &[f64])]) -> Vec<(u32, usize)> {
        let mut pushed: Vec<(u32, usize)> = columns
            .iter()
            .zip(0u32..)
            .flat_map(|((times, _), obj)| (0..times.len().saturating_sub(1)).map(move |j| (obj, j)))
            .collect();
        pushed
            .sort_by(|a, b| columns[a.0 as usize].0[a.1].total_cmp(&columns[b.0 as usize].0[b.1]));
        pushed
    }

    proptest::proptest! {
        /// Objects start on a 4-point grid and step by 1 or 2, so start
        /// times collide across objects all the time; zero is `-0.0` for
        /// some objects and `+0.0` for others (`total_cmp` tells them
        /// apart, `==` does not); point counts 0 and 1 are objects with no
        /// segment, 2 is a single-segment object.
        #[test]
        fn time_ordered_is_a_stable_sort_by_t0_over_object_major_order(
            specs in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    0usize..4,
                    0usize..7,
                    proptest::collection::vec((1usize..3, -3.0f64..3.0), 7),
                ),
                1..12,
            ),
        ) {
            let objects: Vec<(Vec<f64>, Vec<f64>)> = specs
                .iter()
                .map(|(neg_zero, start, points, steps)| {
                    let mut at = *start;
                    steps[..*points]
                        .iter()
                        .map(|&(step, v)| {
                            let t = at as f64 - 2.0;
                            at += step;
                            (if t == 0.0 && *neg_zero { -0.0 } else { t }, v)
                        })
                        .unzip()
                })
                .collect();
            let columns: Vec<(&[f64], &[f64])> =
                objects.iter().map(|(t, v)| (t.as_slice(), v.as_slice())).collect();
            let want = stable_sort_order(&columns);
            let mut prefix = vec![0.0f64; columns.len()];
            let mut merged = TimeOrdered::new(columns.clone());
            for &(obj, j) in &want {
                let (times, values) = columns[obj as usize];
                let seg = Segment { t0: times[j], v0: values[j], t1: times[j + 1], v1: values[j + 1] };
                prefix[obj as usize] += seg.integral_full();
                let (got_obj, got, got_prefix) = merged.next().expect("a segment is missing").unwrap();
                let bits = |s: Segment| [s.t0, s.v0, s.t1, s.v1].map(f64::to_bits);
                proptest::prop_assert_eq!((got_obj, bits(got)), (obj, bits(seg)));
                proptest::prop_assert_eq!(got_prefix.to_bits(), prefix[obj as usize].to_bits());
            }
            proptest::prop_assert!(merged.next().is_none());
        }
    }

    #[test]
    fn time_ordered_refuses_a_non_finite_start_as_the_sorter_did() {
        use chronorank_index::ExternalSorter;
        use chronorank_storage::{Env, StoreConfig};
        let env = Env::mem(StoreConfig::default());
        let key = |rec: &[u8]| f64::from_le_bytes(rec.try_into().unwrap());
        let mut sorter =
            ExternalSorter::with_byte_budget(env.create_file("s").unwrap(), 8, 1 << 10, key)
                .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sorters = CoreError::from(sorter.push(&bad.to_le_bytes()).unwrap_err());
            let (times, values) = ([0.0, bad, 2.0], [1.0; 3]);
            let fine = ([0.5, 1.5], [1.0; 2]);
            let merged = TimeOrdered::new(vec![(&times, &values), (&fine.0, &fine.1)]);
            let errors: Vec<String> =
                merged.filter_map(|e| e.err()).map(|e| e.to_string()).collect();
            assert_eq!(errors, [sorters.to_string()], "t0 = {bad}");
        }
    }

    #[test]
    fn negative_detection() {
        let c = PiecewiseLinear::from_points(&[(0.0, -1.0), (1.0, 1.0)]).unwrap();
        let s = TemporalSet::from_curves(vec![c]).unwrap();
        assert!(s.has_negative());
        // |g| mass: two triangles 0.25 each.
        assert!(approx_eq(s.total_mass(), 0.5, 1e-12));
        let mut s = s;
        s.append_segment(0, 2.0, -1.0).unwrap(); // crosses zero again
        assert!(approx_eq(s.total_mass(), 1.0, 1e-12));
    }
}
