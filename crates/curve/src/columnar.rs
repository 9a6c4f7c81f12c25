//! Columnar (PAX-ish, structure-of-arrays) storage for mutable curve tails.
//!
//! The live tier rescores tail-touched objects on every exact query; doing
//! that by walking per-object `Vec<Segment>` curves is pure pointer-chasing.
//! [`ColumnarTail`] instead keeps all curve points in two shared column
//! arrays (`t`, `v`) with per-object offsets, split into an **epoch-frozen
//! base** (contiguous per object, built at construction or by
//! [`ColumnarTail::freeze`]) and an **append log** (shared columns plus
//! per-object index lists, since live appends from different objects
//! interleave). Freezing compacts the log back into the contiguous base,
//! exactly like a generation swap retires a tail.
//!
//! The integral kernels ([`ColumnarTail::integral`],
//! [`ColumnarTail::integral_batch`], [`ColumnarTail::integral_multi`])
//! evaluate the paper's §2 score `σ_i(t1,t2) = ∫ g_i` with a branch-light
//! inner loop: per-segment trapezoid contributions are computed into fixed
//! f64 lanes with a select instead of a branch, then reduced sequentially
//! left-to-right. The lane computation is independent per segment (LLVM
//! auto-vectorizes it); the sequential reduction preserves the scalar
//! path's association, so results are **bit-identical** to
//! [`PiecewiseLinear::integral`](crate::PiecewiseLinear::integral):
//!
//! * a non-overlapping segment's selected contribution is exactly `+0.0`,
//!   and the accumulator can never be `-0.0` (it starts at `+0.0`, and
//!   IEEE-754 `x + (+0.0) == x` and `(+0.0) + (-0.0) == +0.0`), so
//!   iterating a *superset* of the scalar loop's segment range never
//!   perturbs the sum;
//! * an overlapping segment's contribution repeats the scalar arithmetic
//!   operation-for-operation (select-form clipping via the shared
//!   `sel_max`/`sel_min` helpers, `slope = (v1-v0)/(t1-t0)`, trapezoid
//!   `0.5*(tr-tl)*(e(tl)+e(tr))`).
//!
//! The select (rather than clamping `tr-tl` to zero) matters: a
//! far-non-overlapping segment's extrapolated endpoint values can overflow
//! to infinity, and `0.0 * inf` would be NaN.

use crate::error::{CurveError, Result};
use crate::{Time, Value};

/// Lane width of the chunked contribution buffer. Eight f64 lanes cover one
/// AVX-512 register or two AVX2 registers; the exact value only affects
/// speed, never results (lanes are reduced sequentially either way).
const LANES: usize = 8;

/// Signed trapezoid contribution of the segment `(t0,v0)→(t1,v1)` clipped to
/// `[lo, hi]` — the paper's Eq. (1), written branch-light. Bit-identical to
/// [`Segment::integral_clipped`](crate::Segment::integral_clipped) when the
/// segment overlaps, exactly `+0.0` when it does not.
#[inline(always)]
fn seg_contrib(t0: f64, v0: f64, t1: f64, v1: f64, lo: f64, hi: f64) -> f64 {
    let tl = crate::sel_max(lo, t0);
    let tr = crate::sel_min(hi, t1);
    let slope = (v1 - v0) / (t1 - t0);
    let el = v0 + slope * (tl - t0);
    let er = v0 + slope * (tr - t0);
    let c = 0.5 * (tr - tl) * (el + er);
    // Select, not clamp: for a far-away segment `el`/`er` may be infinite
    // and `0.0 * inf` would poison the accumulator with NaN.
    if tr > tl {
        c
    } else {
        0.0
    }
}

/// Accumulate contributions of the contiguous point run `ts`/`vs` (segments
/// `j → j+1`), starting at segment `first` and clipped to `[lo, hi]`, into
/// `acc` — chunked into [`LANES`] independent lanes and reduced strictly
/// left-to-right.
///
/// One binary search (for `first`) is all a call ever pays: the chunked
/// loop takes a full chunk only while the chunk's *last* segment still
/// starts before `hi` (so no lane's division is wasted past the window
/// edge), and the scalar tail loop walks the straddling remainder with the
/// same early break the row path uses. The segments evaluated — and the
/// left-to-right add order — therefore match the scalar walk exactly.
#[inline]
fn accumulate_run(ts: &[f64], vs: &[f64], first: usize, lo: f64, hi: f64, acc: &mut f64) {
    debug_assert_eq!(ts.len(), vs.len());
    let n = ts.len().saturating_sub(1);
    let mut j = first;
    let mut buf = [0.0f64; LANES];
    while j + LANES <= n && ts[j + LANES - 1] < hi {
        // Fixed-size chunk views let the bounds checks hoist out of the
        // lane loop; per-lane computation is independent (no loop-carried
        // dependency), so the compiler is free to vectorize.
        let tc: &[f64; LANES + 1] = ts[j..j + LANES + 1].try_into().expect("chunk");
        let vc: &[f64; LANES + 1] = vs[j..j + LANES + 1].try_into().expect("chunk");
        for l in 0..LANES {
            buf[l] = seg_contrib(tc[l], vc[l], tc[l + 1], vc[l + 1], lo, hi);
        }
        // Sequential reduction preserves the scalar association.
        for &c in &buf {
            *acc += c;
        }
        j += LANES;
    }
    while j < n && ts[j] < hi {
        *acc += seg_contrib(ts[j], vs[j], ts[j + 1], vs[j + 1], lo, hi);
        j += 1;
    }
}

/// Structure-of-arrays storage for a set of piecewise-linear curves with
/// append-only mutable tails. See the module docs for layout and
/// bit-identity guarantees.
#[derive(Debug, Clone, Default)]
pub struct ColumnarTail {
    /// Per-object offsets into the base columns, length `m + 1`.
    start: Vec<u32>,
    /// Frozen time column (contiguous per object).
    base_t: Vec<f64>,
    /// Frozen value column (contiguous per object).
    base_v: Vec<f64>,
    /// Append-log time column, shared across objects in arrival order.
    log_t: Vec<f64>,
    /// Append-log value column, parallel to `log_t`.
    log_v: Vec<f64>,
    /// Per-object ascending index lists into the log columns.
    log_of: Vec<Vec<u32>>,
    /// Number of objects with a non-empty append log.
    touched: usize,
    /// Bumped by every [`ColumnarTail::freeze`].
    epoch: u64,
}

impl ColumnarTail {
    /// An empty store with no objects.
    pub fn new() -> Self {
        Self { start: vec![0], ..Self::default() }
    }

    /// Append a new object from parallel `times` / `values` slices, frozen
    /// into the base columns. Validation mirrors
    /// [`PiecewiseLinear::from_times_values`](crate::PiecewiseLinear::from_times_values).
    /// Returns the new object's id.
    pub fn push_object(&mut self, times: &[f64], values: &[f64]) -> Result<u32> {
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
        self.base_t.extend_from_slice(times);
        self.base_v.extend_from_slice(values);
        self.start.push(self.base_t.len() as u32);
        self.log_of.push(Vec::new());
        Ok((self.num_objects() - 1) as u32)
    }

    /// Number of objects `m`.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.start.len() - 1
    }

    /// True when the store holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_objects() == 0
    }

    /// Number of points of object `i` (base + log).
    #[inline]
    pub fn num_points(&self, i: usize) -> usize {
        (self.start[i + 1] - self.start[i]) as usize + self.log_of[i].len()
    }

    /// Total number of points across all objects.
    #[inline]
    pub fn total_points(&self) -> usize {
        self.base_t.len() + self.log_t.len()
    }

    /// The `j`-th point of object `i`, in time order across base then log.
    pub fn point(&self, i: usize, j: usize) -> (Time, Value) {
        let base_len = (self.start[i + 1] - self.start[i]) as usize;
        if j < base_len {
            let p = self.start[i] as usize + j;
            (self.base_t[p], self.base_v[p])
        } else {
            let idx = self.log_of[i][j - base_len] as usize;
            (self.log_t[idx], self.log_v[idx])
        }
    }

    /// Left end of object `i`'s domain.
    #[inline]
    fn start_time(&self, i: usize) -> Time {
        self.base_t[self.start[i] as usize]
    }

    /// Right end of object `i`'s domain (last base point or last log entry).
    #[inline]
    pub fn end_time(&self, i: usize) -> Time {
        match self.log_of[i].last() {
            Some(&idx) => self.log_t[idx as usize],
            None => self.base_t[self.start[i + 1] as usize - 1],
        }
    }

    /// Copy object `i`'s points (time order) into the supplied vectors,
    /// clearing them first. Used to materialize row-form snapshots.
    pub fn copy_points(&self, i: usize, out_t: &mut Vec<f64>, out_v: &mut Vec<f64>) {
        out_t.clear();
        out_v.clear();
        let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
        out_t.extend_from_slice(&self.base_t[s..e]);
        out_v.extend_from_slice(&self.base_v[s..e]);
        for &idx in &self.log_of[i] {
            out_t.push(self.log_t[idx as usize]);
            out_v.push(self.log_v[idx as usize]);
        }
    }

    /// Append a point to object `i`'s tail. Validation mirrors
    /// [`PiecewiseLinear::append`](crate::PiecewiseLinear::append); returns
    /// the previous right endpoint `(t, v)` so the caller can account the
    /// new segment's mass without re-reading columns.
    pub fn append(&mut self, i: usize, t: Time, v: Value) -> Result<(Time, Value)> {
        if !t.is_finite() || !v.is_finite() {
            return Err(CurveError::NonFinite { index: self.num_points(i) });
        }
        let end = self.end_time(i);
        if t <= end {
            return Err(CurveError::AppendNotAfterEnd { end, time: t });
        }
        let prev = match self.log_of[i].last() {
            Some(&idx) => (self.log_t[idx as usize], self.log_v[idx as usize]),
            None => {
                let p = self.start[i + 1] as usize - 1;
                (self.base_t[p], self.base_v[p])
            }
        };
        if self.log_of[i].is_empty() {
            self.touched += 1;
        }
        self.log_of[i].push(self.log_t.len() as u32);
        self.log_t.push(t);
        self.log_v.push(v);
        Ok(prev)
    }

    /// Total log points across all objects — each one is a tail segment.
    #[inline]
    pub fn tail_segments(&self) -> usize {
        self.log_t.len()
    }

    /// Number of objects with a non-empty append log.
    #[inline]
    pub fn tail_objects(&self) -> usize {
        self.touched
    }

    /// Heap bytes held by the append log (shared columns + index lists):
    /// their capacity, not just the points in them.
    pub fn tail_bytes(&self) -> usize {
        (self.log_t.capacity() + self.log_v.capacity()) * 8
            + self.log_of.iter().map(|l| l.capacity() * 4).sum::<usize>()
    }

    /// Current freeze epoch (bumped by every [`ColumnarTail::freeze`]).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compact the append log into the contiguous base columns, release the
    /// log's buffers, and bump the epoch — the columnar analogue of a
    /// generation swap retiring a tail. Integrals are unchanged
    /// bit-for-bit: the merged point sequence per object is identical, only
    /// its storage moves.
    pub fn freeze(&mut self) {
        self.epoch += 1;
        if self.log_t.is_empty() {
            return;
        }
        let m = self.num_objects();
        let total = self.base_t.len() + self.log_t.len();
        let mut nt = Vec::with_capacity(total);
        let mut nv = Vec::with_capacity(total);
        let mut nstart = Vec::with_capacity(m + 1);
        nstart.push(0u32);
        for i in 0..m {
            let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
            nt.extend_from_slice(&self.base_t[s..e]);
            nv.extend_from_slice(&self.base_v[s..e]);
            for &idx in &self.log_of[i] {
                nt.push(self.log_t[idx as usize]);
                nv.push(self.log_v[idx as usize]);
            }
            nstart.push(nt.len() as u32);
            self.log_of[i] = Vec::new();
        }
        self.base_t = nt;
        self.base_v = nv;
        self.start = nstart;
        self.log_t = Vec::new();
        self.log_v = Vec::new();
        self.touched = 0;
    }

    /// `σ_i(a, b)` for object `i`, bit-identical to
    /// [`PiecewiseLinear::integral`](crate::PiecewiseLinear::integral) on the
    /// same point sequence.
    pub fn integral(&self, i: usize, a: Time, b: Time) -> f64 {
        if b <= a {
            return 0.0;
        }
        let lo = a.max(self.start_time(i));
        let hi = b.min(self.end_time(i));
        if hi <= lo {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
        let ts = &self.base_t[s..e];
        let vs = &self.base_v[s..e];
        let nseg = ts.len() - 1;
        // One binary search finds the first candidate segment (every
        // overlapping segment j satisfies ts[j] < hi and ts[j+1] > lo);
        // the run itself stops chunk-by-chunk at the window's right edge.
        let first = ts.partition_point(|&x| x <= lo).saturating_sub(1);
        accumulate_run(ts, vs, first, lo, hi, &mut acc);
        // Tail: bridge segment (last base point → first log point) then the
        // gathered log run, all through the same accumulator so the add
        // sequence matches the whole-curve scalar walk.
        let log = &self.log_of[i];
        if !log.is_empty() {
            let (mut pt, mut pv) = (ts[nseg], vs[nseg]);
            for &idx in log {
                let (nt, nv) = (self.log_t[idx as usize], self.log_v[idx as usize]);
                acc += seg_contrib(pt, pv, nt, nv, lo, hi);
                pt = nt;
                pv = nv;
            }
        }
        acc
    }

    /// Batch rescore: `σ_i(a, b)` for every id in `ids`, appended to `out`.
    /// One columnar pass; each object's accumulator is independent, so the
    /// whole batch vectorizes without changing any per-object bits.
    pub fn integral_batch(&self, ids: &[u32], a: Time, b: Time, out: &mut Vec<f64>) {
        out.reserve(ids.len());
        for &id in ids {
            out.push(self.integral(id as usize, a, b));
        }
    }

    /// Candidates × intervals rescore: for each `(a, b)` in `windows` (the
    /// outer, row, dimension) score every id in `ids` (the inner, column,
    /// dimension), appending row-major to `out`
    /// (`out[w * ids.len() + c] = σ_{ids[c]}(windows[w])`).
    ///
    /// The traversal is object-major (every `(w, c)` cell is independent, so
    /// schedule is free): each candidate's column run is loaded **once** and
    /// stays cache-hot while all windows are scored against it, where a
    /// row-path engine answering one query at a time re-streams every curve
    /// per window. This schedule freedom — not different arithmetic — is
    /// the batch-rescoring win; every cell still carries the scalar path's
    /// exact bits.
    pub fn integral_multi(&self, ids: &[u32], windows: &[(Time, Time)], out: &mut Vec<f64>) {
        let base = out.len();
        out.resize(base + ids.len() * windows.len(), 0.0);
        for (c, &id) in ids.iter().enumerate() {
            for (w, &(a, b)) in windows.iter().enumerate() {
                out[base + w * ids.len() + c] = self.integral(id as usize, a, b);
            }
        }
    }

    /// Serialize the compacted (frozen-equivalent) form: object count,
    /// offsets, then the full `t` and `v` columns — the checkpoint image's
    /// columnar section format. Exact f64 bits are preserved.
    pub fn to_bytes(&self) -> Vec<u8> {
        let m = self.num_objects();
        let total = self.total_points();
        let mut out = Vec::with_capacity(4 + (m + 1) * 4 + total * 16);
        out.extend_from_slice(&(m as u32).to_le_bytes());
        let mut off = 0u32;
        out.extend_from_slice(&off.to_le_bytes());
        for i in 0..m {
            off += self.num_points(i) as u32;
            out.extend_from_slice(&off.to_le_bytes());
        }
        for i in 0..m {
            let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
            for &t in &self.base_t[s..e] {
                out.extend_from_slice(&t.to_le_bytes());
            }
            for &idx in &self.log_of[i] {
                out.extend_from_slice(&self.log_t[idx as usize].to_le_bytes());
            }
        }
        for i in 0..m {
            let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
            for &v in &self.base_v[s..e] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for &idx in &self.log_of[i] {
                out.extend_from_slice(&self.log_v[idx as usize].to_le_bytes());
            }
        }
        out
    }

    /// Parse [`ColumnarTail::to_bytes`] output; `None` on a length other
    /// than the counts imply, or malformed curves (offsets not monotone,
    /// <2 points, non-finite or non-increasing times). The counts are
    /// checked against the blob's length before anything is allocated, so
    /// an untrusted blob costs at most its own size.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let word = |at: usize| {
            let w = bytes.get(at..at.checked_add(4)?)?;
            Some(u32::from_le_bytes(w.try_into().expect("4 bytes")))
        };
        let m = word(0)? as usize;
        // The columns start past `m` and the m + 1 offsets.
        let cols = m.checked_mul(4)?.checked_add(8)?;
        let total = word(cols - 4)? as usize;
        if total.checked_mul(16).and_then(|n| n.checked_add(cols)) != Some(bytes.len()) {
            return None;
        }
        let start: Vec<u32> = bytes[4..cols]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
            .collect();
        // Every object needs ≥ 2 points.
        if start[0] != 0 || start.windows(2).any(|w| w[0].checked_add(2).is_none_or(|n| w[1] < n)) {
            return None;
        }
        let col = |at: usize| -> Vec<f64> {
            let c = bytes[at..at + 8 * total].chunks_exact(8);
            c.map(|x| f64::from_le_bytes(x.try_into().expect("8 bytes"))).collect()
        };
        let (base_t, base_v) = (col(cols), col(cols + 8 * total));
        for w in start.windows(2) {
            let (s, e) = (w[0] as usize, w[1] as usize);
            for j in s..e {
                if !base_t[j].is_finite() || !base_v[j].is_finite() {
                    return None;
                }
                if j > s && base_t[j] <= base_t[j - 1] {
                    return None;
                }
            }
        }
        Some(Self {
            start,
            base_t,
            base_v,
            log_t: Vec::new(),
            log_v: Vec::new(),
            log_of: vec![Vec::new(); m],
            touched: 0,
            epoch: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PiecewiseLinear;

    fn curves() -> Vec<PiecewiseLinear> {
        vec![
            PiecewiseLinear::from_points(&[(0.0, 0.0), (2.0, 4.0), (5.0, 1.0), (6.0, 1.0)])
                .unwrap(),
            PiecewiseLinear::from_points(&[(10.0, 2.0), (20.0, 2.0)]).unwrap(),
            PiecewiseLinear::from_points(&[(0.0, -1.0), (2.0, 1.0), (3.0, -5.0)]).unwrap(),
            PiecewiseLinear::from_points(&[
                (0.5, 3.0),
                (0.6, 2.9),
                (1.7, 0.1),
                (2.9, 7.5),
                (4.0, 7.5),
                (4.1, 0.0),
                (8.0, 2.25),
                (9.5, 1.0),
                (11.0, 4.0),
                (12.5, 0.5),
            ])
            .unwrap(),
        ]
    }

    fn build(curves: &[PiecewiseLinear]) -> ColumnarTail {
        let mut ct = ColumnarTail::new();
        for c in curves {
            ct.push_object(c.times(), c.values()).unwrap();
        }
        ct
    }

    fn windows() -> Vec<(f64, f64)> {
        vec![
            (0.0, 6.0),
            (-100.0, 100.0),
            (1.0, 3.0),
            (2.0, 2.5),
            (5.9, 8.0),
            (3.0, 3.0),
            (4.0, 1.0),
            (10.5, 19.0),
            (0.25, 12.75),
            (11.2, 11.3),
        ]
    }

    fn assert_bits(ct: &ColumnarTail, curves: &[PiecewiseLinear]) {
        for (i, c) in curves.iter().enumerate() {
            for &(a, b) in &windows() {
                let want = c.integral(a, b);
                let got = ct.integral(i, a, b);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "object {i} window [{a}, {b}]: scalar {want} vs columnar {got}"
                );
            }
        }
    }

    #[test]
    fn integral_bit_identical_to_scalar() {
        let cs = curves();
        assert_bits(&build(&cs), &cs);
    }

    #[test]
    fn integral_bit_identical_with_tails() {
        let mut cs = curves();
        let mut ct = build(&cs);
        // Interleaved appends land in the shared log columns out of
        // per-object order.
        let appends = [(0usize, 7.0, 2.0), (2, 4.5, 1.5), (0, 9.0, -1.0), (3, 13.0, 8.0)];
        for &(i, t, v) in &appends {
            cs[i].append(t, v).unwrap();
            let prev = ct.append(i, t, v).unwrap();
            assert_eq!(prev.0, cs[i].point(cs[i].num_points() - 2).0);
        }
        assert_bits(&ct, &cs);
        assert_eq!(ct.tail_segments(), 4);
        assert_eq!(ct.tail_objects(), 3);
        assert!(ct.tail_bytes() >= 4 * (8 + 8 + 4));
        // Freezing compacts the log without changing any result bits, and
        // hands its buffers back.
        ct.freeze();
        assert_eq!(ct.epoch(), 1);
        assert_eq!(ct.tail_segments(), 0);
        assert_eq!(ct.tail_objects(), 0);
        assert_eq!(ct.tail_bytes(), 0);
        assert_eq!(ct.log_t.capacity() + ct.log_v.capacity(), 0);
        assert!(ct.log_of.iter().all(|l| l.capacity() == 0));
        assert_bits(&ct, &cs);
    }

    #[test]
    fn accessors_match_row_form() {
        let cs = curves();
        let mut ct = build(&cs);
        ct.append(1, 30.0, 5.0).unwrap();
        assert_eq!(ct.num_objects(), 4);
        assert_eq!(ct.num_points(1), 3);
        assert_eq!(ct.point(1, 2), (30.0, 5.0));
        assert_eq!(ct.start_time(1), 10.0);
        assert_eq!(ct.end_time(1), 30.0);
        assert_eq!(ct.log_of[1].len(), 1);
        let (mut t, mut v) = (Vec::new(), Vec::new());
        ct.copy_points(1, &mut t, &mut v);
        assert_eq!(t, vec![10.0, 20.0, 30.0]);
        assert_eq!(v, vec![2.0, 2.0, 5.0]);
    }

    #[test]
    fn append_validates_like_pwl() {
        let mut ct = build(&curves());
        assert!(matches!(ct.append(0, 6.0, 0.0), Err(CurveError::AppendNotAfterEnd { .. })));
        assert!(matches!(ct.append(0, 7.0, f64::NAN), Err(CurveError::NonFinite { .. })));
        ct.append(0, 7.0, 1.0).unwrap();
        assert!(matches!(ct.append(0, 6.5, 1.0), Err(CurveError::AppendNotAfterEnd { .. })));
    }

    #[test]
    fn push_object_validates() {
        let mut ct = ColumnarTail::new();
        assert!(matches!(ct.push_object(&[1.0], &[2.0]), Err(CurveError::TooFewPoints(1))));
        assert!(matches!(
            ct.push_object(&[0.0, 0.0], &[1.0, 2.0]),
            Err(CurveError::NotIncreasing { index: 1, .. })
        ));
        assert!(matches!(
            ct.push_object(&[0.0, f64::INFINITY], &[1.0, 2.0]),
            Err(CurveError::NonFinite { index: 1 })
        ));
        assert!(ct.is_empty());
    }

    #[test]
    fn batch_and_multi_agree_with_single() {
        let cs = curves();
        let mut ct = build(&cs);
        ct.append(0, 7.25, 3.0).unwrap();
        let ids: Vec<u32> = (0..cs.len() as u32).collect();
        let ws = windows();
        let mut multi = Vec::new();
        ct.integral_multi(&ids, &ws, &mut multi);
        assert_eq!(multi.len(), ids.len() * ws.len());
        for (w, &(a, b)) in ws.iter().enumerate() {
            let mut batch = Vec::new();
            ct.integral_batch(&ids, a, b, &mut batch);
            for (c, &id) in ids.iter().enumerate() {
                let single = ct.integral(id as usize, a, b);
                assert_eq!(batch[c].to_bits(), single.to_bits());
                assert_eq!(multi[w * ids.len() + c].to_bits(), single.to_bits());
            }
        }
    }

    #[test]
    fn bytes_roundtrip_preserves_bits() {
        let cs = curves();
        let mut ct = build(&cs);
        ct.append(2, 5.5, -0.25).unwrap();
        let blob = ct.to_bytes();
        let back = ColumnarTail::from_bytes(&blob).expect("roundtrip");
        assert_eq!(back.num_objects(), ct.num_objects());
        for i in 0..ct.num_objects() {
            assert_eq!(back.num_points(i), ct.num_points(i));
            for j in 0..ct.num_points(i) {
                let (at, av) = ct.point(i, j);
                let (bt, bv) = back.point(i, j);
                assert_eq!(at.to_bits(), bt.to_bits());
                assert_eq!(av.to_bits(), bv.to_bits());
            }
        }
        // The reloaded store is fully frozen.
        assert_eq!(back.tail_segments(), 0);
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        let ct = build(&curves());
        let blob = ct.to_bytes();
        assert!(ColumnarTail::from_bytes(&blob[..blob.len() - 1]).is_none());
        assert!(ColumnarTail::from_bytes(&blob[..4]).is_none());
        let mut extra = blob.clone();
        extra.push(0);
        assert!(ColumnarTail::from_bytes(&extra).is_none());
        // Break time monotonicity of the first object.
        let mut bad = blob;
        let m = ct.num_objects();
        let col_at = 4 + (m + 1) * 4;
        bad[col_at..col_at + 8].copy_from_slice(&f64::MAX.to_le_bytes());
        assert!(ColumnarTail::from_bytes(&bad).is_none());
    }

    #[test]
    fn from_bytes_checks_counts_against_the_length_before_allocating() {
        // 2³² − 1 objects in a 4-byte blob, and one object whose offsets
        // claim 2³² − 1 points in a 12-byte one: sized from the counts,
        // the offset table or the columns would ask for 16 GiB or 32 GiB.
        let blob = |words: &[u32]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<_>>();
        assert!(ColumnarTail::from_bytes(&blob(&[u32::MAX])).is_none());
        assert!(ColumnarTail::from_bytes(&blob(&[1, 0, u32::MAX])).is_none());
        // Offsets whose `+ 2` would wrap, in a blob of the right length.
        let mut wrap = blob(&[2, 0, u32::MAX - 1, 2]);
        wrap.extend([0u8; 32]);
        assert!(ColumnarTail::from_bytes(&wrap).is_none());
    }

    #[test]
    fn empty_store_roundtrips() {
        let ct = ColumnarTail::new();
        let back = ColumnarTail::from_bytes(&ct.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.total_points(), 0);
    }
}
