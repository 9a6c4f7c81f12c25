//! The packed prefix-sum file APPX2+ re-scores from (paper §3.3).
//!
//! APPX2+ needs exactly one thing from EXACT2: `σ_i(t1, t2)` for the
//! candidates QUERY2 returns — per-object prefix sums, not a B+-tree per
//! object. This is those prefix sums without the forest: every object's
//! points `(t_{i,j}, v_{i,j}, σ_i(t_{i,0}, t_{i,j}))`, `j = 0..=n_i`, laid
//! out contiguously in id order at fill 1.0 in **one** [`PagedFile`], plus
//! an in-memory directory `first_record[i]` (`8·(m+1)` bytes, the analogue
//! of EXACT3's per-object metadata).
//!
//! A lookup binary-searches the pages of the object's run for the first
//! point with `t_{i,j} ≥ t` — the successor EXACT2's tree descent finds —
//! and applies the same Eq. (2) arithmetic,
//! `σ_i(I_{i,j}) − ∫_t^{t_{i,j}} g_{i,j}`, to the same stored bits, so
//! scores equal [`crate::Exact2::score_one`] bit for bit (EXACT2 stays the
//! oracle the tests compare against).
//!
//! Costs: size `24·(N + m)/B` blocks with no per-object page rounding;
//! construction one forward pass (streaming for free); a lookup reads
//! `⌈log₂ run-pages⌉ + 1` blocks, one of them only when the successor is
//! the first record of its page.

use crate::error::{CoreError, Result};
use crate::object::{ObjectId, TemporalObject};
use chronorank_curve::Segment;
use chronorank_storage::{PageId, PagedFile};

/// One point: `t f64 | v f64 | prefix f64`. Records never straddle a page.
const RECORD_LEN: usize = 24;

fn record_at(page: &[u8], slot: usize) -> (f64, f64, f64) {
    let f = |at: usize| f64::from_le_bytes(page[at..at + 8].try_into().expect("8 bytes"));
    let at = slot * RECORD_LEN;
    (f(at), f(at + 8), f(at + 16))
}

/// Writes a [`PackedPrefix`] in one forward pass over the objects.
pub struct PackedPrefixBuilder {
    file: PagedFile,
    page: Vec<u8>,
    /// Records already placed in `page`.
    filled: usize,
    first_record: Vec<u64>,
}

impl PackedPrefixBuilder {
    /// Start writing into `file` (must be empty).
    pub fn new(file: PagedFile) -> Self {
        let page = vec![0u8; file.block_size()];
        Self { file, page, filled: 0, first_record: vec![0] }
    }

    fn per_page(&self) -> usize {
        self.page.len() / RECORD_LEN
    }

    fn push_record(&mut self, t: f64, v: f64, prefix: f64) -> Result<()> {
        let at = self.filled * RECORD_LEN;
        self.page[at..at + 8].copy_from_slice(&t.to_le_bytes());
        self.page[at + 8..at + 16].copy_from_slice(&v.to_le_bytes());
        self.page[at + 16..at + 24].copy_from_slice(&prefix.to_le_bytes());
        self.filled += 1;
        if self.filled == self.per_page() {
            self.write_page()?;
        }
        Ok(())
    }

    fn write_page(&mut self) -> Result<()> {
        let id = self.file.allocate(1)?;
        self.file.write(id, &self.page)?;
        self.page.fill(0);
        self.filled = 0;
        Ok(())
    }

    /// Append the next object's run. Objects must arrive in dense id order.
    pub fn push(&mut self, o: &TemporalObject) -> Result<()> {
        if o.id as usize != self.first_record.len() - 1 {
            return Err(CoreError::BadQuery(format!(
                "packed prefix file expects object {} next, got {}",
                self.first_record.len() - 1,
                o.id
            )));
        }
        let (t0, v0) = o.curve.point(0);
        self.push_record(t0, v0, 0.0)?;
        // The same running sum EXACT2 stores, so the bits agree.
        let mut prefix = 0.0f64;
        for seg in o.curve.segments() {
            prefix += seg.integral_full();
            self.push_record(seg.t1, seg.v1, prefix)?;
        }
        let end = self.first_record[o.id as usize] + o.curve.num_points() as u64;
        self.first_record.push(end);
        Ok(())
    }

    /// Write the last partial page and hand back the finished structure.
    pub fn finish(mut self) -> Result<PackedPrefix> {
        if self.filled > 0 {
            self.write_page()?;
        }
        let per_page = self.per_page() as u64;
        Ok(PackedPrefix { file: self.file, first_record: self.first_record, per_page })
    }
}

/// Per-object prefix sums in one file (see module docs).
pub struct PackedPrefix {
    file: PagedFile,
    /// Object `i`'s points are records `first_record[i]..first_record[i+1]`.
    first_record: Vec<u64>,
    per_page: u64,
}

impl PackedPrefix {
    /// Number of objects.
    pub fn num_objects(&self) -> usize {
        self.first_record.len() - 1
    }

    /// The backing file.
    pub fn file(&self) -> &PagedFile {
        &self.file
    }

    /// Bytes on the device.
    pub fn size_bytes(&self) -> u64 {
        self.file.size_bytes()
    }

    /// A scorer that keeps the last page it read, so consecutive lookups
    /// landing on one page touch the pool once.
    pub fn scorer(&self) -> PackedScorer<'_> {
        PackedScorer { packed: self, page: vec![0u8; self.file.block_size()], loaded: None }
    }

    /// `σ_i(t1, t2)` for one object (Eq. (2)), bit-identical to
    /// [`crate::Exact2::score_one`].
    pub fn score_one(&self, id: ObjectId, t1: f64, t2: f64) -> Result<f64> {
        self.scorer().score_one(id, t1, t2)
    }
}

/// A [`PackedPrefix`] reader with one page of scratch.
pub struct PackedScorer<'a> {
    packed: &'a PackedPrefix,
    page: Vec<u8>,
    loaded: Option<PageId>,
}

impl PackedScorer<'_> {
    /// `σ_i(t1, t2)` for one object.
    pub fn score_one(&mut self, id: ObjectId, t1: f64, t2: f64) -> Result<f64> {
        if id as usize >= self.packed.num_objects() {
            return Err(CoreError::NoSuchObject(id));
        }
        Ok(self.cumulative(id, t2)? - self.cumulative(id, t1)?)
    }

    fn load(&mut self, page: PageId) -> Result<()> {
        if self.loaded != Some(page) {
            self.loaded = None;
            self.packed.file.read(page, &mut self.page)?;
            self.loaded = Some(page);
        }
        Ok(())
    }

    /// Cumulative integral of object `id` from its domain start to `t`
    /// (clamped): the successor point's prefix minus the part of its
    /// segment after `t`.
    fn cumulative(&mut self, id: ObjectId, t: f64) -> Result<f64> {
        let per_page = self.packed.per_page;
        let first = self.packed.first_record[id as usize];
        let end = self.packed.first_record[id as usize + 1];
        // Segment right endpoints are records `first+1..end`; find the
        // page holding the first one with `t_j ≥ t`.
        let (mut lo, mut hi) = ((first + 1) / per_page, (end - 1) / per_page);
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.load(mid)?;
            // `mid < hi`, so page `mid` is full and its last slot is ours.
            if record_at(&self.page, per_page as usize - 1).0 < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.load(lo)?;
        let base = lo * per_page;
        let (a, b) = ((first + 1).max(base) - base, end.min(base + per_page) - base);
        let (mut l, mut r) = (a as usize, b as usize);
        while l < r {
            let mid = (l + r) / 2;
            if record_at(&self.page, mid).0 < t {
                l = mid + 1;
            } else {
                r = mid;
            }
        }
        if l as u64 == b {
            // `t` is past the object's end: its total mass, the last prefix.
            return Ok(record_at(&self.page, l - 1).2);
        }
        let (tj, vj, prefix) = record_at(&self.page, l);
        let (tp, vp, _) = if l > 0 {
            record_at(&self.page, l - 1)
        } else {
            self.load(lo - 1)?;
            record_at(&self.page, per_page as usize - 1)
        };
        // Clipping handles `t` before the object's start: the whole first
        // segment is subtracted from its own area, giving 0.
        let seg = Segment { t0: tp, v0: vp, t1: tj, v1: vj };
        Ok(prefix - seg.integral_clipped(t, seg.t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact2::Exact2;
    use crate::test_support::{small_set, INTERVALS};
    use crate::{IndexConfig, TemporalSet};
    use chronorank_curve::PiecewiseLinear;
    use chronorank_storage::{Env, StoreConfig};

    fn pack(set: &TemporalSet, store: StoreConfig) -> PackedPrefix {
        let env = Env::mem(store);
        let mut b = PackedPrefixBuilder::new(env.create_file("prefix").unwrap());
        for o in set.objects() {
            b.push(o).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn scores_equal_exact2_bit_for_bit_on_the_small_set() {
        let set = small_set();
        let e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
        let packed = pack(&set, StoreConfig::default());
        assert_eq!(packed.num_objects(), set.num_objects());
        for id in 0..set.num_objects() as ObjectId {
            for &(a, b) in INTERVALS {
                let want = e2.score_one(id, a, b).unwrap();
                let got = packed.score_one(id, a, b).unwrap();
                assert_eq!(want.to_bits(), got.to_bits(), "object {id} [{a},{b}]");
            }
        }
        assert!(packed.score_one(99, 0.0, 1.0).is_err());
    }

    #[test]
    fn runs_that_span_many_small_pages_search_page_granularly() {
        // 120-byte blocks hold five records, so a 40-point run spans eight
        // pages and successors land on first slots, last slots and between.
        let store = StoreConfig { block_size: 120, pool_capacity: 4 };
        let curves: Vec<PiecewiseLinear> = (0..7)
            .map(|i| {
                let pts: Vec<(f64, f64)> = (0..(3 + 6 * i))
                    .map(|j| (i as f64 + j as f64 * 0.5, ((i * 7 + j * 3) % 11) as f64 - 2.0))
                    .collect();
                PiecewiseLinear::from_points(&pts).unwrap()
            })
            .collect();
        let set = TemporalSet::from_curves(curves).unwrap();
        let e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
        let packed = pack(&set, store);
        assert_eq!(packed.size_bytes(), (set.num_segments() + 7).div_ceil(5) * 120);
        let mut scorer = packed.scorer();
        for id in 0..set.num_objects() as ObjectId {
            for step in -4..60 {
                let t = step as f64 * 0.25;
                for b in [t, t + 0.25, t + 3.1, 1e9] {
                    let want = e2.score_one(id, t, b).unwrap();
                    let got = scorer.score_one(id, t, b).unwrap();
                    assert_eq!(want.to_bits(), got.to_bits(), "object {id} [{t},{b}]");
                }
            }
        }
    }

    #[test]
    fn a_lookup_reads_one_page_plus_the_log_of_its_run() {
        let store = StoreConfig { block_size: 120, pool_capacity: 4 };
        let pts: Vec<(f64, f64)> = (0..80).map(|j| (j as f64, 1.0)).collect();
        let set =
            TemporalSet::from_curves(vec![PiecewiseLinear::from_points(&pts).unwrap()]).unwrap();
        let env = Env::mem(store);
        let mut b = PackedPrefixBuilder::new(env.create_file("prefix").unwrap());
        b.push(&set.objects()[0]).unwrap();
        let packed = b.finish().unwrap();
        // 80 points over 16 pages: ⌈log₂ 16⌉ + 1 = 5 reads, one more when
        // the successor opens its page.
        for t in [0.5, 17.3, 40.0, 78.9, 100.0] {
            packed.file().drop_cache().unwrap();
            env.reset_io();
            packed.scorer().cumulative(0, t).unwrap();
            let reads = env.io_stats().reads;
            assert!((1..=6).contains(&reads), "t = {t}: {reads} reads");
        }
    }

    #[test]
    fn objects_must_arrive_in_id_order() {
        let set = small_set();
        let env = Env::mem(StoreConfig::default());
        let mut b = PackedPrefixBuilder::new(env.create_file("prefix").unwrap());
        assert!(b.push(&set.objects()[1]).is_err());
        b.push(&set.objects()[0]).unwrap();
        assert!(b.push(&set.objects()[0]).is_err());
    }
}
