//! EXACT1 — the improved baseline (paper §2).
//!
//! All `N` segments from all objects are indexed in **one B+-tree** keyed by
//! the left endpoint of the segment. A query `top-k(t1, t2, sum)` seeks the
//! first segment that can overlap `t1` and scans rightward until `t2`,
//! maintaining `m` running sums updated with the trapezoid formula Eq. (1),
//! then selects the top `k` with a size-`k` priority queue.
//!
//! Costs (paper Fig. 3): index `O(N/B)` blocks, construction
//! `O((N/B) log_B N)` IOs (external sort + bulk load), query
//! `O(log_B N + Σ_i q_i/B)` IOs where `q_i` counts `o_i`'s segments
//! overlapping the query window — `O(N/B)` in the worst case, which is
//! exactly the non-scalability the paper's Figure 16 shows.
//!
//! One honest deviation (`REPRODUCTION.md`, "Known deviations", item 6): a
//! left-endpoint B+-tree alone cannot find the segments *straddling* `t1`
//! in `O(log_B N)` IOs when segment spans are unbounded, so the scan starts
//! at `lower_bound(t1 − max_segment_duration)`; Eq. (1) contributes zero
//! for the non-overlapping prefix, preserving exactness.

use crate::agg::AggKind;
use crate::error::Result;
use crate::object::{ObjectId, TemporalObject, TemporalSet};
use crate::topk::{check_interval, top_k_from_scores, RankMethod, TopK};
use crate::IndexConfig;
use chronorank_curve::Segment;
use chronorank_index::{BPlusTree, ExternalSorter};
use chronorank_storage::{Env, IoStats, PagedFile};
use std::borrow::Borrow;

/// Segment record payload: `obj u32 | v0 f64 | t1 f64 | v1 f64`
/// (the key holds `t0`).
const PAYLOAD_LEN: usize = 4 + 8 + 8 + 8;
/// Sort record: key prefix + payload.
const RECORD_LEN: usize = 8 + PAYLOAD_LEN;

fn encode_payload(obj: ObjectId, s: Segment) -> [u8; PAYLOAD_LEN] {
    let mut out = [0u8; PAYLOAD_LEN];
    out[0..4].copy_from_slice(&obj.to_le_bytes());
    out[4..12].copy_from_slice(&s.v0.to_le_bytes());
    out[12..20].copy_from_slice(&s.t1.to_le_bytes());
    out[20..28].copy_from_slice(&s.v1.to_le_bytes());
    out
}

fn decode_payload(key: f64, p: &[u8]) -> (ObjectId, Segment) {
    let obj = u32::from_le_bytes(p[0..4].try_into().expect("4"));
    let v0 = f64::from_le_bytes(p[4..12].try_into().expect("8"));
    let t1 = f64::from_le_bytes(p[12..20].try_into().expect("8"));
    let v1 = f64::from_le_bytes(p[20..28].try_into().expect("8"));
    (obj, Segment { t0: key, v0, t1, v1 })
}

/// The EXACT1 index (see module docs).
pub struct Exact1 {
    env: Env,
    tree: BPlusTree,
    num_objects: usize,
    /// Read by every query, raised by appends.
    max_segment_duration: f64,
}

impl Exact1 {
    /// Build from a resident set, in memory. No sort: the set's curves are
    /// each in `t0` order already, so [`TemporalSet::time_ordered`] merges
    /// them into the bulk loader, and `m` and `Δmax` are the set's own.
    /// Every tree page is written once and none is read back, and the file
    /// is byte for byte what [`Exact1::build_streaming`] writes over the
    /// same objects — the merge yields the sorter's sequence, ties included
    /// (`tests/build_golden.rs`).
    pub fn build(set: &TemporalSet, config: IndexConfig) -> Result<Self> {
        let env = Env::mem(config.store);
        let merged = set.time_ordered().map(|entry| {
            let (obj, seg, _) = entry?;
            Ok((seg.t0, encode_payload(obj, seg)))
        });
        let tree = Self::load(&env, merged)?;
        let (num_objects, max_segment_duration) = (set.num_objects(), set.max_segment_duration());
        Ok(Self { env, tree, num_objects, max_segment_duration })
    }

    /// Build from an object stream, owned or borrowed, that is never
    /// materialized (the paper's construction preamble: its data sits on
    /// disk in object order): external-sort all `N` segments by left
    /// endpoint in runs of `sort_budget_bytes`, then bulk-load the
    /// B+-tree. `m` and `Δmax` are accumulated in the push loop.
    pub fn build_streaming<I>(env: Env, objects: I, sort_budget_bytes: u64) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Borrow<TemporalObject>,
    {
        let sort_file = env.create_scratch("exact1_sort")?;
        let key = |rec: &[u8]| f64::from_le_bytes(rec[..8].try_into().expect("8"));
        let mut sorter =
            ExternalSorter::with_byte_budget(sort_file, RECORD_LEN, sort_budget_bytes, key)?;
        let mut rec = [0u8; RECORD_LEN];
        let mut num_objects = 0usize;
        let mut max_dur = 0.0f64;
        for o in objects {
            let o: &TemporalObject = o.borrow();
            num_objects += 1;
            for seg in o.curve.segments() {
                max_dur = max_dur.max(seg.duration());
                rec[..8].copy_from_slice(&seg.t0.to_le_bytes());
                rec[8..].copy_from_slice(&encode_payload(o.id, seg));
                sorter.push(&rec)?;
            }
        }
        let mut stream = sorter.finish()?;
        let sorted = std::iter::from_fn(|| match stream.next_into(&mut rec) {
            Ok(true) => Some(Ok((key(&rec), rec[8..].try_into().expect("payload")))),
            Ok(false) => None,
            Err(e) => Some(Err(e.into())),
        });
        let tree = Self::load(&env, sorted)?;
        Ok(Self { env, tree, num_objects, max_segment_duration: max_dur })
    }

    /// The one loader loop: `(t0, payload)` entries in `t0` order — a
    /// sorted stream's or a resident set's merge — into the bulk loader.
    fn load(
        env: &Env,
        entries: impl Iterator<Item = Result<(f64, [u8; PAYLOAD_LEN])>>,
    ) -> Result<BPlusTree> {
        let mut loader = BPlusTree::bulk_loader(env.create_file("exact1_tree")?, PAYLOAD_LEN)?;
        for entry in entries {
            let (key, payload) = entry?;
            loader.push(key, &payload)?;
        }
        Ok(loader.finish()?)
    }

    /// Append a new segment for `obj` (the paper's §4 update:
    /// `O(log_B N)` IOs). The caller keeps the [`TemporalSet`] in sync via
    /// [`TemporalSet::append_segment`].
    pub fn append_segment(&mut self, obj: ObjectId, seg: Segment) -> Result<()> {
        self.tree.insert(seg.t0, &encode_payload(obj, seg))?;
        self.max_segment_duration = self.max_segment_duration.max(seg.duration());
        Ok(())
    }

    /// Number of indexed segments.
    pub fn num_segments(&self) -> u64 {
        self.tree.len()
    }

    /// The B+-tree's backing file — what a generation image captures
    /// page-for-page. Call [`Exact1::flush`] first so the pages are clean.
    pub fn tree_file(&self) -> &PagedFile {
        self.tree.file()
    }

    /// Persist tree metadata and flush dirty pages to the device.
    pub fn flush(&self) -> Result<()> {
        Ok(self.tree.flush()?)
    }

    /// Serialize the in-memory side state (`m` + the max segment duration
    /// as exact bits) for a generation image.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&(self.num_objects as u64).to_le_bytes());
        out.extend_from_slice(&self.max_segment_duration.to_le_bytes());
        out
    }

    /// Reopen from a page-captured tree file plus [`Exact1::meta_bytes`]
    /// — no set scan, no sort, no rebuild.
    pub fn open_parts(env: Env, file: PagedFile, bytes: &[u8]) -> Result<Self> {
        if bytes.len() != 16 {
            return Err(crate::CoreError::BadQuery("corrupt EXACT1 generation metadata".into()));
        }
        let num_objects = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        let max_dur = f64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let tree = BPlusTree::open(file)?;
        Ok(Self { env, tree, num_objects, max_segment_duration: max_dur })
    }
}

impl RankMethod for Exact1 {
    fn name(&self) -> String {
        "EXACT1".into()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        check_interval(t1, t2)?;
        let mut sums = vec![0.0f64; self.num_objects];
        // Segments overlapping [t1, t2] have t0 < t2 and t0 ≥ t1 − Δmax.
        let start = t1 - self.max_segment_duration;
        let mut cur = self.tree.seek(start)?;
        while cur.valid() {
            let key = cur.key();
            if key >= t2 {
                break;
            }
            let (obj, seg) = decode_payload(key, cur.payload());
            sums[obj as usize] += seg.integral_clipped(t1, t2);
            cur.advance()?;
        }
        let top = top_k_from_scores(sums.iter().enumerate().map(|(i, &s)| (i as ObjectId, s)), k);
        Ok(match agg {
            AggKind::Sum => top,
            AggKind::Avg if t2 > t1 => top.into_avg(t2 - t1),
            AggKind::Avg => top,
        })
    }

    fn size_bytes(&self) -> u64 {
        // The sort scratch is construction-only; the index is the tree.
        self.tree.size_bytes()
    }

    fn io_stats(&self) -> IoStats {
        self.env.io_stats()
    }

    fn reset_io(&self) {
        self.env.reset_io()
    }

    fn drop_caches(&self) -> Result<()> {
        self.tree.file().drop_cache()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_same_answer, small_set};

    #[test]
    fn matches_bruteforce_on_small_set() {
        let set = small_set();
        let idx = Exact1::build(&set, IndexConfig::default()).unwrap();
        assert_eq!(idx.num_segments(), set.num_segments());
        for &(a, b) in crate::test_support::INTERVALS {
            let want = set.top_k_bruteforce(a, b, 3);
            let got = idx.top_k(a, b, 3, AggKind::Sum).unwrap();
            assert_same_answer(&want, &got, &format!("EXACT1 [{a},{b}]"));
        }
    }

    #[test]
    fn a_resident_build_writes_each_tree_page_once_and_reads_none() {
        let set = crate::test_support::wavy_set(40, 30);
        let idx = Exact1::build(&set, IndexConfig::default()).unwrap();
        idx.flush().unwrap();
        assert_eq!(idx.env.num_files(), 1);
        let pages = idx.size_bytes() / idx.env.block_size() as u64;
        let io = idx.io_stats();
        assert_eq!((io.writes, io.reads), (pages, 0));
    }

    #[test]
    fn avg_divides_scores() {
        let set = small_set();
        let idx = Exact1::build(&set, IndexConfig::default()).unwrap();
        let sum = idx.top_k(1.0, 5.0, 2, AggKind::Sum).unwrap();
        let avg = idx.top_k(1.0, 5.0, 2, AggKind::Avg).unwrap();
        assert_eq!(sum.ids(), avg.ids());
        for (s, a) in sum.scores().iter().zip(avg.scores()) {
            assert!((s / 4.0 - a).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_bad_intervals() {
        let set = small_set();
        let idx = Exact1::build(&set, IndexConfig::default()).unwrap();
        assert!(idx.top_k(5.0, 1.0, 3, AggKind::Sum).is_err());
        assert!(idx.top_k(f64::NAN, 1.0, 3, AggKind::Sum).is_err());
    }

    #[test]
    fn update_then_query_sees_new_segment() {
        let mut set = small_set();
        let mut idx = Exact1::build(&set, IndexConfig::default()).unwrap();
        // Extend object 0 far to the right with a tall segment.
        let end = set.object(0).unwrap().curve.end();
        let v_end = set.object(0).unwrap().curve.eval(end).unwrap();
        set.append_segment(0, end + 10.0, 100.0).unwrap();
        idx.append_segment(0, Segment::new(end, v_end, end + 10.0, 100.0)).unwrap();
        let want = set.top_k_bruteforce(end, end + 10.0, 1);
        let got = idx.top_k(end, end + 10.0, 1, AggKind::Sum).unwrap();
        assert_same_answer(&want, &got, "EXACT1 after update");
        assert_eq!(got.ids(), vec![0]);
    }

    #[test]
    fn query_outside_domain_returns_zero_scores() {
        let set = small_set();
        let idx = Exact1::build(&set, IndexConfig::default()).unwrap();
        let got = idx.top_k(1e9, 2e9, 2, AggKind::Sum).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.scores().iter().all(|&s| s == 0.0));
    }
}
