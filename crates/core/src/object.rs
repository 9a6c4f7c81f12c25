//! The temporal database model: objects and object sets.

use crate::error::{CoreError, Result};
use crate::streambuild::{scan_stats, StreamStats};
use chronorank_curve::{ColumnarTail, PiecewiseLinear, Segment};
use chronorank_index::IndexError;
use chronorank_storage::Reader;
use std::hint::select_unpredictable;

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
        let mut r = Reader::new(bytes);
        let rec = Self {
            object: r.u32("append object").ok()?,
            t: r.f64("append t").ok()?,
            v: r.f64("append v").ok()?,
        };
        r.end("append record").ok().map(|_| rec)
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
    /// tree from, and, recorded as a [`MergeOrder`], what a shard's
    /// BREAKPOINTS2 count fit replays.
    pub(crate) fn time_ordered(&self) -> TimeOrdered<'_> {
        TimeOrdered::new(columns(self.objects.iter().map(|o| &o.curve)))
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

    /// The set as a [`ColumnarTail`] with an empty append log — the live
    /// tier's mutable-tail representation, whose [`ColumnarTail::to_bytes`]
    /// is the checkpoint image's `live_set` section format. Copies no
    /// point: the store shares every curve's columns with the set.
    pub fn to_columnar(&self) -> ColumnarTail {
        ColumnarTail::from_curves(self.objects.iter().map(|o| o.curve.clone()).collect())
    }

    /// A row-form set of `ct`'s curves (ids positional, as
    /// [`TemporalSet::from_curves`]): an object with an empty append log
    /// shares its columns with the store, one with a log is copied
    /// ([`ColumnarTail::curve`]). Statistics are recomputed from the same
    /// point bits.
    pub fn from_columnar(ct: &ColumnarTail) -> Result<Self> {
        Self::from_curves((0..ct.num_objects()).map(|i| ct.curve(i)).collect())
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

/// Each curve's `(times, values)` point columns, in order.
pub(crate) fn columns<'a>(
    curves: impl IntoIterator<Item = &'a PiecewiseLinear>,
) -> Vec<(&'a [f64], &'a [f64])> {
    curves.into_iter().map(|c| (c.times(), c.values())).collect()
}

/// A resident set's segments in global start-time order, without sorting
/// them: every curve is already in `t0` order, so an `m`-way merge of
/// per-object cursors keyed `(t0 by total_cmp, object position)` — an
/// object's start times strictly increase, so the segment position never
/// has to break a tie — yields exactly the sequence a stable sort by `t0`
/// over an object-major push produces, which is what
/// `chronorank_index::ExternalSorter` (stable run sort, run index as the
/// merge tie-break) hands the streamed builds.
///
/// The merge is a loser tree over the objects, padded to a power of two
/// `P ≥ m` leaves. Each of its `P − 1` nodes holds the `(key, object)`
/// that lost the match played there, and the winner sits apart. A key is
/// `t0`'s total-order bits; a padded or exhausted leaf holds one above
/// every real key. The object breaks ties without being compared: leaves
/// run in object order, so at every node the left side's objects are the
/// lower ones, and a key climbing from the right loses a tie. A segment
/// costs one comparison per level, `⌈log₂ m⌉` in all: the winner's next key
/// climbs its leaf's path, and at each node the smaller key goes on up
/// and the larger stays, a swap taken by conditional moves rather than a
/// branch on the data. Memory is `O(m)`: the tree's `16·P` bytes (less
/// than `32·m`) and, per object, its borrowed point columns and its next
/// segment.
///
/// The resident EXACT1 / EXACT3 loaders read it. A shard's EXACT3 load
/// records the object of each segment as a [`MergeOrder`], which every
/// sweep of BREAKPOINTS2's count fit replays, so a shard build merges once.
///
/// Yields `(object, segment)`. A non-finite start time is refused with the
/// sorter's error when the merge reaches it (a validated curve holds
/// none).
pub(crate) struct TimeOrdered<'a> {
    /// Per object, its `(times, values)` point columns.
    columns: Vec<(&'a [f64], &'a [f64])>,
    /// `tree[0]` is the winner, `tree[n]` for `n` in `1..P` the loser at
    /// node `n`; leaf `i` sits below node `(P + i) / 2`.
    tree: Vec<(u64, u32)>,
    /// Per object, the segment its key stands for.
    next: Vec<usize>,
}

/// The key of a padded or exhausted leaf. Real keys are clamped below it,
/// which moves only a NaN with an all-ones payload, so every segment is
/// yielded (and a non-finite one refused) before the merge ends.
const DONE: u64 = u64::MAX;

/// `f64::total_cmp` order as unsigned integers: negatives flipped whole,
/// the sign bit set on the rest.
fn total_order_bits(t: f64) -> u64 {
    t.to_bits() ^ ((t.to_bits() as i64 >> 63) as u64 | 1 << 63)
}

/// The merge key of a segment starting at `t0`.
fn merge_key(t0: f64) -> u64 {
    total_order_bits(t0).min(DONE - 1)
}

impl<'a> TimeOrdered<'a> {
    /// Merge objects given as point columns (`n + 1` points = `n`
    /// segments; ids are positions).
    pub(crate) fn new(columns: Vec<(&'a [f64], &'a [f64])>) -> Self {
        let leaves = columns.len().next_power_of_two();
        // Play every match once, bottom-up: slot `P + i` is leaf `i`, slot
        // `n < P` the winner at node `n`, whose loser the tree keeps.
        let mut won = vec![(DONE, u32::MAX); 2 * leaves];
        for ((slot, (times, _)), obj) in won[leaves..].iter_mut().zip(&columns).zip(0u32..) {
            if times.len() >= 2 {
                *slot = (merge_key(times[0]), obj);
            }
        }
        let mut tree = vec![(DONE, u32::MAX); leaves];
        for n in (1..leaves).rev() {
            let (left, right) = (won[2 * n], won[2 * n + 1]);
            (won[n], tree[n]) = if right.0 < left.0 { (right, left) } else { (left, right) };
        }
        tree[0] = won[1];
        Self { next: vec![0; columns.len()], tree, columns }
    }
}

impl Iterator for TimeOrdered<'_> {
    type Item = Result<(ObjectId, Segment)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (key, obj) = self.tree[0];
        if key == DONE {
            return None;
        }
        let (times, values) = self.columns[obj as usize];
        let j = self.next[obj as usize];
        self.next[obj as usize] = j + 1;
        let seg = Segment { t0: times[j], v0: values[j], t1: times[j + 1], v1: values[j + 1] };
        // The object's next key climbs its leaf's path to the root.
        let mut climbing = (if j + 2 < times.len() { merge_key(seg.t1) } else { DONE }, obj);
        let tree = self.tree.as_mut_slice();
        let mut child = tree.len() + obj as usize;
        while child > 1 {
            let node = child / 2;
            let stored = tree[node];
            // From a right child, a tie goes to the lower objects on the left.
            let swap = stored.0 < climbing.0.saturating_add(child as u64 & 1);
            (tree[node], climbing) = (
                select_unpredictable(swap, climbing, stored),
                select_unpredictable(swap, stored, climbing),
            );
            child = node;
        }
        tree[0] = climbing;
        if !seg.t0.is_finite() {
            return Some(Err(IndexError::BadInput("record key must be finite".into()).into()));
        }
        Some(Ok((obj, seg)))
    }
}

/// The object of each of a set's segments, in the order the `m`-way merge
/// of its curves yields them (global `t0` order, ties in object order): 2
/// bytes a segment when the set has at most 2¹⁶ objects, else 4. Only core
/// fills one, by running that merge over the set it borrows
/// ([`crate::Exact3::build_recording_order`] records it while it loads),
/// so a BREAKPOINTS2 count fit replays it as its queue Q unchecked
/// ([`crate::Breakpoints::b2_with_count_stats_in_order`]).
pub struct MergeOrder<'s> {
    pub(crate) set: &'s TemporalSet,
    pub(crate) objects: ObjectIds,
}

/// A sequence of object ids, each stored in the narrowest width that holds
/// every id of its set.
pub(crate) enum ObjectIds {
    /// Ids of a set of at most 2¹⁶ objects.
    Narrow(Vec<u16>),
    /// Any ids.
    Wide(Vec<u32>),
}

impl ObjectIds {
    /// Room for `len` ids of a set of `objects` objects.
    pub(crate) fn with_capacity(objects: usize, len: usize) -> Self {
        if objects <= 1 << 16 {
            Self::Narrow(Vec::with_capacity(len))
        } else {
            Self::Wide(Vec::with_capacity(len))
        }
    }

    /// Append `obj`, which must be an id of the set this was sized for.
    pub(crate) fn push(&mut self, obj: ObjectId) {
        match self {
            Self::Narrow(ids) => ids.push(obj as u16),
            Self::Wide(ids) => ids.push(obj),
        }
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
    fn merge_order_ids_are_two_bytes_up_to_2_16_objects() {
        for (objects, narrow) in [(1, true), (1 << 16, true), ((1 << 16) + 1, false)] {
            let mut ids = ObjectIds::with_capacity(objects, 2);
            ids.push(0);
            ids.push(objects as u32 - 1);
            match ids {
                ObjectIds::Narrow(ids) => {
                    assert!(narrow, "{objects} objects");
                    assert_eq!(ids, [0, (objects - 1) as u16]);
                }
                ObjectIds::Wide(ids) => {
                    assert!(!narrow, "{objects} objects");
                    assert_eq!(ids, [0, objects as u32 - 1]);
                }
            }
        }
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

    #[test]
    fn to_columnar_and_back_share_every_curves_columns() {
        let s = set();
        let back = TemporalSet::from_columnar(&s.to_columnar()).unwrap();
        for (a, b) in s.objects().iter().zip(back.objects()) {
            assert_eq!(a.curve.times().as_ptr(), b.curve.times().as_ptr(), "object {}", a.id);
            assert_eq!(a.curve.values().as_ptr(), b.curve.values().as_ptr(), "object {}", a.id);
        }
    }

    #[test]
    fn from_columnar_shares_an_untouched_objects_columns_and_copies_a_logged_one() {
        let s = set();
        let mut ct = s.to_columnar();
        ct.append(1, 9.0, 1.0).unwrap();
        let back = TemporalSet::from_columnar(&ct).unwrap();
        for (a, b) in s.objects().iter().zip(back.objects()) {
            let shared = a.curve.times().as_ptr() == b.curve.times().as_ptr();
            assert_eq!(shared, a.curve.values().as_ptr() == b.curve.values().as_ptr());
            assert_eq!(shared, a.id != 1, "object {}", a.id);
        }
        assert_eq!(back.objects()[1].curve.times(), [2.0, 6.0, 8.0, 9.0]);
        assert_eq!(back.objects()[1].curve.values(), [0.0, 4.0, 0.0, 1.0]);
    }

    /// The checkpoint image's `live_set` section, byte for byte: `m`, the
    /// `m + 1` point offsets (`u32` LE), then every object's times, then
    /// every object's values (`f64` LE), logged points in place.
    #[test]
    fn live_set_image_bytes_are_pinned() {
        let c0 = PiecewiseLinear::from_points(&[(0.0, 1.0), (2.0, 3.0)]).unwrap();
        let c1 = PiecewiseLinear::from_points(&[(1.0, -1.0), (4.0, 0.5)]).unwrap();
        let mut ct = TemporalSet::from_curves(vec![c0, c1]).unwrap().to_columnar();
        // Interleaved appends: object 1's log straddles object 0's.
        ct.append(1, 5.0, 2.0).unwrap();
        ct.append(0, 3.0, 0.1).unwrap();
        ct.append(1, 6.0, -4.0).unwrap();
        #[rustfmt::skip]
        let golden: Vec<u8> = vec![
            2, 0, 0, 0,                                     // m
            0, 0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0,             // offsets 0, 3, 7
            0, 0, 0, 0, 0, 0, 0x00, 0x00,                   // t 0.0
            0, 0, 0, 0, 0, 0, 0x00, 0x40,                   // t 2.0
            0, 0, 0, 0, 0, 0, 0x08, 0x40,                   // t 3.0 (log)
            0, 0, 0, 0, 0, 0, 0xf0, 0x3f,                   // t 1.0
            0, 0, 0, 0, 0, 0, 0x10, 0x40,                   // t 4.0
            0, 0, 0, 0, 0, 0, 0x14, 0x40,                   // t 5.0 (log)
            0, 0, 0, 0, 0, 0, 0x18, 0x40,                   // t 6.0 (log)
            0, 0, 0, 0, 0, 0, 0xf0, 0x3f,                   // v 1.0
            0, 0, 0, 0, 0, 0, 0x08, 0x40,                   // v 3.0
            0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, // v 0.1 (log)
            0, 0, 0, 0, 0, 0, 0xf0, 0xbf,                   // v -1.0
            0, 0, 0, 0, 0, 0, 0xe0, 0x3f,                   // v 0.5
            0, 0, 0, 0, 0, 0, 0x00, 0x40,                   // v 2.0 (log)
            0, 0, 0, 0, 0, 0, 0x10, 0xc0,                   // v -4.0 (log)
        ];
        assert_eq!(ct.to_bytes(), golden);
        let back = ColumnarTail::from_bytes(&golden).expect("golden image parses");
        assert_eq!(back.num_objects(), 2);
        assert_eq!(back.tail_segments(), 0);
        for i in 0..2 {
            assert_eq!(back.num_points(i), ct.num_points(i));
            for j in 0..ct.num_points(i) {
                let ((at, av), (bt, bv)) = (ct.point(i, j), back.point(i, j));
                assert_eq!((at.to_bits(), av.to_bits()), (bt.to_bits(), bv.to_bits()));
            }
        }
        assert_eq!(back.to_bytes(), golden);
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

    /// `(object, t0 bits)` of everything an iterator over segments yields.
    fn keys(items: impl Iterator<Item = Result<(ObjectId, Segment)>>) -> Result<Vec<(u32, u64)>> {
        items.map(|item| item.map(|(obj, seg)| (obj, seg.t0.to_bits()))).collect()
    }

    proptest::proptest! {
        /// Objects start on a 4-point grid and step by 1 or 2, so start
        /// times collide across objects all the time; zero is `-0.0` for
        /// some objects and `+0.0` for others (`total_cmp` tells them
        /// apart, `==` does not); point counts 0 and 1 are objects with no
        /// segment, 2 is a single-segment object. Some objects open at
        /// `-f64::MAX` and some start a last segment at `f64::MAX`, so the
        /// extremes tie too. Up to 39 objects: `m` crosses 2, 4, 8, 16 and
        /// 32, leaving padded leaves, and objects run out at different
        /// times, leaving exhausted ones.
        #[test]
        fn time_ordered_is_a_stable_sort_by_t0_over_object_major_order(
            specs in proptest::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    0usize..4,
                    0usize..7,
                    proptest::collection::vec((1usize..3, -3.0f64..3.0), 7),
                    0usize..4,
                ),
                1..40,
            ),
        ) {
            let objects: Vec<(Vec<f64>, Vec<f64>)> = specs
                .iter()
                .map(|(neg_zero, start, points, steps, edge)| {
                    let mut at = *start;
                    let (mut times, mut values): (Vec<f64>, Vec<f64>) = steps[..*points]
                        .iter()
                        .map(|&(step, v)| {
                            let t = at as f64 - 2.0;
                            at += step;
                            (if t == 0.0 && *neg_zero { -0.0 } else { t }, v)
                        })
                        .unzip();
                    match edge {
                        1 if !times.is_empty() => times[0] = -f64::MAX,
                        2 => {
                            times.extend([f64::MAX, f64::INFINITY]);
                            values.extend([1.0, 1.0]);
                        }
                        _ => {}
                    }
                    (times, values)
                })
                .collect();
            let columns: Vec<(&[f64], &[f64])> =
                objects.iter().map(|(t, v)| (t.as_slice(), v.as_slice())).collect();
            let want = stable_sort_order(&columns);
            let mut merged = TimeOrdered::new(columns.clone());
            for &(obj, j) in &want {
                let (times, values) = columns[obj as usize];
                let seg = Segment { t0: times[j], v0: values[j], t1: times[j + 1], v1: values[j + 1] };
                let (got_obj, got) = merged.next().expect("a segment is missing").unwrap();
                let bits = |s: Segment| [s.t0, s.v0, s.t1, s.v1].map(f64::to_bits);
                proptest::prop_assert_eq!((got_obj, bits(got)), (obj, bits(seg)));
            }
            proptest::prop_assert!(merged.next().is_none());
        }
    }

    #[test]
    fn time_ordered_over_one_object_is_its_segments_in_order() {
        let (times, values) = ([-1.0, 0.5, 2.0, 7.0], [1.0, -2.0, 3.0, 0.0]);
        let merged = keys(TimeOrdered::new(vec![(&times, &values)])).unwrap();
        assert_eq!(merged, [-1.0, 0.5, 2.0].map(|t: f64| (0, t.to_bits())));
        let (one_point, none) = ([3.0], [1.0]);
        assert_eq!(TimeOrdered::new(vec![(&one_point, &none)]).count(), 0);
        assert_eq!(TimeOrdered::new(vec![]).count(), 0);
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
