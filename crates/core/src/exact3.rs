//! EXACT3 — one interval tree, two stabbing queries (paper §2, the best
//! exact method).
//!
//! Every segment `g_{i,ℓ}` contributes a data entry keyed by its own span
//! `I⁻_{i,ℓ} = [t_{i,ℓ−1}, t_{i,ℓ}]` with value `(g_{i,ℓ}, σ_i(I_{i,ℓ}))`
//! — the segment geometry plus the prefix sum *through* the segment. All
//! `N` entries live in a single external interval tree. Because each
//! object's intervals partition its domain, a stabbing query at `t`
//! returns **exactly one entry per alive object**, and
//!
//! ```text
//! cum_i(t) = σ_i(I_{i,ℓ}) − ∫_t^{t_{i,ℓ}} g_{i,ℓ}      (Eq. (2) rearranged)
//! σ_i(t1, t2) = cum_i(t2) − cum_i(t1)
//! ```
//!
//! so two stabbing queries — `O(log_B N + m/B)` IOs each — compute every
//! object's aggregate, and a size-`k` heap finishes the query. This is 2–3
//! orders of magnitude fewer IOs than EXACT1/EXACT2 at large `m` (paper
//! Figures 13–14). The `m/B` term is a layout property, not a given: the
//! bulk loader packs leaves by `hi` inside self-sized `lo` runs, and sends
//! segments longer than 8× the typical length to runs of their own length
//! band. A stab then reads ≈ 1.6× its `⌈alive/B⌉` output leaves on Temp,
//! and on Meme ≈ 0.3× of what pure `lo` order reads (≈ 0.4× with one
//! stream of runs), because long tails no longer widen every run (see
//! `chronorank_index`'s interval module, "the output term"). `B` itself is
//! a layout property too: a leaf stores each field as its offset from the
//! leaf's minimum of that field, in as few bits as the leaf needs, so the
//! 44-byte entry takes ≈ 31.9 bytes on Temp and ≈ 33.5 on Meme, bit for
//! bit (35.5 and 38.0 with XOR-coded bytes), and a Temp shard's stab reads
//! 24.9 blocks where XOR-coded rows read 26.8 and whole records 31
//! ("packed leaves" there).
//! The payload orders its fields `v0 | v1 | prefix | obj` so that each is
//! one 8-byte lane of a row.
//!
//! Objects whose domain does not cover a stab time contribute `0` (before
//! their start) or their total mass (after their end); per-object
//! `(start, end, total)` triples are kept in memory, exactly as EXACT1
//! keeps its `m` running sums in memory.
//!
//! A built index never changes. The paper's §4 right-edge appends are the
//! live engine's: it rescores appended segments from columns beside a
//! frozen EXACT3 and builds a fresh one when the mass doubles.

use crate::agg::AggKind;
use crate::error::{CoreError, Result};
use crate::object::{check_id, MergeOrder, ObjectId, ObjectIds, TemporalObject, TemporalSet};
use crate::topk::{check_interval, top_k_from_scores, RankMethod, TopK};
use crate::IndexConfig;
use chronorank_curve::Segment;
use chronorank_index::{ExternalSorter, IndexError, IntervalBulkLoader, IntervalTree};
use chronorank_storage::{Env, IoStats, PagedFile, Reader, StoreConfig};
use std::borrow::Borrow;

/// Entry payload: `v0 f64 | v1 f64 | prefix f64 | obj u32` (the interval
/// key holds `t0` / `t1`): each field is one lane of a packed leaf row,
/// so a lane's offset from the leaf's minimum keeps only the bits its
/// field spans.
const PAYLOAD_LEN: usize = 4 + 8 + 8 + 8;

/// External-sort record for the bulk build: `lo f64 | hi f64 | payload`.
const SORT_RECORD_LEN: usize = 16 + PAYLOAD_LEN;

fn encode_payload(obj: ObjectId, v0: f64, v1: f64, prefix: f64) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..8].copy_from_slice(&v0.to_le_bytes());
    p[8..16].copy_from_slice(&v1.to_le_bytes());
    p[16..24].copy_from_slice(&prefix.to_le_bytes());
    p[24..28].copy_from_slice(&obj.to_le_bytes());
    p
}

fn decode_payload(p: &[u8]) -> (ObjectId, f64, f64, f64) {
    let v0 = f64::from_le_bytes(p[0..8].try_into().expect("8"));
    let v1 = f64::from_le_bytes(p[8..16].try_into().expect("8"));
    let prefix = f64::from_le_bytes(p[16..24].try_into().expect("8"));
    let obj = u32::from_le_bytes(p[24..28].try_into().expect("4"));
    (obj, v0, v1, prefix)
}

/// The error for a tree whose entries contradict the index's own state.
fn corrupt(what: String) -> CoreError {
    CoreError::Index(IndexError::Corrupt(what))
}

/// Per-object metadata kept in memory (the analogue of EXACT1's in-memory
/// running sums).
#[derive(Debug, Clone, Copy)]
struct ObjMeta {
    start: f64,
    end: f64,
    total: f64,
}

impl ObjMeta {
    fn of(o: &TemporalObject) -> Self {
        Self { start: o.curve.start(), end: o.curve.end(), total: o.curve.total() }
    }
}

/// The EXACT3 index (see module docs).
/// `Send + Sync`: a built index is immutable — no method takes `&mut self`
/// — and any number of threads may query it concurrently.
pub struct Exact3 {
    env: Env,
    store: StoreConfig,
    tree: IntervalTree,
    meta: Vec<ObjMeta>,
}

/// The index's one file: its interval tree.
const TREE_FILE: &str = "exact3_tree_gen0";

impl Exact3 {
    /// Build from a resident set, in memory. No sort: the set's curves are
    /// each in `t0` order already, so a loser tree merges them into the
    /// loader at `⌈log₂ m⌉` comparisons a segment. Every tree page is written
    /// once and none is read back, and the file is byte for byte what
    /// [`Exact3::build_streaming`] writes over the same objects — the merge
    /// yields the sorter's sequence, ties included (`tests/build_golden.rs`).
    /// Beyond the loader's share, memory is `O(m)`: the merge's loser tree
    /// and cursors, a running prefix sum per object and the `24·m` of
    /// `(start, end, total)` triples — no copy of the entries anywhere.
    pub fn build(set: &TemporalSet, config: IndexConfig) -> Result<Self> {
        Self::build_resident(set, config, |_| {})
    }

    /// [`Exact3::build`], recording the object of each segment as the
    /// merge hands it to the loader: the same file, plus the set's
    /// [`MergeOrder`] (2 bytes a segment up to 2¹⁶ objects), which a shard
    /// build's BREAKPOINTS2 count fit replays instead of merging the curves
    /// again ([`crate::Breakpoints::b2_with_count_stats_in_order`]).
    pub fn build_recording_order(
        set: &TemporalSet,
        config: IndexConfig,
    ) -> Result<(Self, MergeOrder<'_>)> {
        let mut objects = ObjectIds::with_capacity(set.num_objects(), set.num_segments() as usize);
        let exact3 = Self::build_resident(set, config, |obj| objects.push(obj))?;
        Ok((exact3, MergeOrder { set, objects }))
    }

    /// The resident builds' shared part: the set's segments in merge order
    /// become entries carrying each object's running prefix sum, the sum
    /// of [`Segment::integral_full`] through the entry's segment; `record`
    /// sees the object of each.
    fn build_resident(
        set: &TemporalSet,
        config: IndexConfig,
        mut record: impl FnMut(ObjectId),
    ) -> Result<Self> {
        let env = Env::mem(config.store);
        let mut prefix = vec![0.0f64; set.num_objects()];
        let entries = set.time_ordered().map(|entry| {
            let (obj, seg) = entry?;
            record(obj);
            let prefix = &mut prefix[obj as usize];
            *prefix += seg.integral_full();
            Ok((seg.t0, seg.t1, encode_payload(obj, seg.v0, seg.v1, *prefix)))
        });
        let tree = Self::load(env.create_file(TREE_FILE)?, entries)?;
        let meta = set.objects().iter().map(ObjMeta::of).collect();
        Ok(Self { env, store: config.store, tree, meta })
    }

    /// Build from an object stream, owned or borrowed, that is never
    /// materialized (the paper's construction preamble: its data sits on
    /// disk in object order): one external sort on `lo` in runs of
    /// `sort_budget_bytes` (`O((N/B) log_B N)` IOs), one leaf-fill-1.0 bulk
    /// load. Peak memory is one sort run, the loader's open runs (≤ 256
    /// whole leaves between them), one fence per leaf and the per-object `(start, end, total)` triples
    /// collected in the push loop (`24·m` bytes; it refuses ids out of
    /// `0, 1, 2, …` order) — never the full entry set, and no pool frame:
    /// the runs are scratch, and the tree is write-through
    /// (`Env::create_write_through`), so each page goes to the device as
    /// the loader writes it and the index starts with no frame.
    pub fn build_streaming<I>(
        env: Env,
        store: StoreConfig,
        objects: I,
        sort_budget_bytes: u64,
    ) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Borrow<TemporalObject>,
    {
        let scratch = env.create_scratch("exact3_sort")?;
        let key = |rec: &[u8]| f64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
        let mut sorter =
            ExternalSorter::with_byte_budget(scratch, SORT_RECORD_LEN, sort_budget_bytes, key)?;
        let mut rec = [0u8; SORT_RECORD_LEN];
        let mut meta: Vec<ObjMeta> = Vec::new();
        for o in objects {
            let o: &TemporalObject = o.borrow();
            check_id(meta.len(), o)?;
            let mut prefix = 0.0f64;
            for seg in o.curve.segments() {
                prefix += seg.integral_full();
                rec[..8].copy_from_slice(&seg.t0.to_le_bytes());
                rec[8..16].copy_from_slice(&seg.t1.to_le_bytes());
                rec[16..].copy_from_slice(&encode_payload(o.id, seg.v0, seg.v1, prefix));
                sorter.push(&rec)?;
            }
            meta.push(ObjMeta::of(o));
        }
        let mut stream = sorter.finish()?;
        let sorted = std::iter::from_fn(|| match stream.next_into(&mut rec) {
            Ok(true) => {
                Some(Ok((key(&rec), key(&rec[8..]), rec[16..].try_into().expect("payload"))))
            }
            Ok(false) => None,
            Err(e) => Some(Err(e.into())),
        });
        let tree = Self::load(env.create_write_through(TREE_FILE)?, sorted)?;
        Ok(Self { env, store, tree, meta })
    }

    /// The one loader loop: `(lo, hi, payload)` entries in `lo` order — a
    /// sorted stream's or a resident set's merge — straight into the
    /// interval tree's leaf-fill-1.0 bulk loader, which holds its open runs
    /// (≤ 256 whole leaves between them) and one fence per leaf.
    fn load(
        file: PagedFile,
        entries: impl Iterator<Item = Result<(f64, f64, [u8; PAYLOAD_LEN])>>,
    ) -> Result<IntervalTree> {
        let mut loader = IntervalBulkLoader::new(file, PAYLOAD_LEN)?;
        for entry in entries {
            let (lo, hi, payload) = entry?;
            loader.push(lo, hi, &payload)?;
        }
        Ok(loader.finish()?)
    }

    /// Cumulative integrals of **all** objects at time `t` with one
    /// stabbing query; `out[i] = cum_i(t)`.
    fn cumulative_all(&self, t: f64, out: &mut [f64]) -> Result<()> {
        for (i, m) in self.meta.iter().enumerate() {
            out[i] = if t < m.start {
                0.0
            } else if t >= m.end {
                m.total
            } else {
                f64::NAN // must be filled by the stab below
            };
        }
        let mut stray = None;
        self.tree.stab(t, &mut |lo, hi, p| {
            let (obj, v0, v1, prefix) = decode_payload(p);
            let Some(slot) = out.get_mut(obj as usize) else {
                stray = Some(obj);
                return;
            };
            // At a vertex two entries share `t`, and `(prefix_A + I_B) − I_B`
            // need not equal `prefix_A` in the last bit: the entry that
            // *ends* at `t` answers (`prefix`, nothing subtracted) whichever
            // the leaf layout visits first. Only an object's first entry
            // starts at `t` with none ending there, and finds the slot NaN.
            if lo == t && !slot.is_nan() {
                return;
            }
            *slot = prefix - Segment { t0: lo, v0, t1: hi, v1 }.integral_clipped(t, hi);
        })?;
        if let Some(obj) = stray {
            return Err(self.stray_object(obj));
        }
        // Intervals tile each object's domain, so a stab misses an alive
        // object only when the tree and the triples disagree.
        if out.iter().any(|v| v.is_nan()) {
            return Err(corrupt("stab missed an alive object".into()));
        }
        Ok(())
    }

    /// A leaf entry naming an object the in-memory triples do not hold: a
    /// tree and metadata that do not belong together.
    fn stray_object(&self, obj: ObjectId) -> CoreError {
        corrupt(format!("a leaf names object {obj} of {}", self.meta.len()))
    }

    /// Instant top-k (`top-k(t)` of the prior work \[15\]) ranked by `g_i(t)`
    /// — a single stabbing query. Objects not alive at `t` are excluded.
    pub fn instant_top_k(&self, t: f64, k: usize) -> Result<TopK> {
        check_interval(t, t)?;
        let mut values: Vec<(ObjectId, bool, f64)> = Vec::new();
        self.tree.stab(t, &mut |lo, hi, p| {
            let (obj, v0, v1, _) = decode_payload(p);
            let seg = Segment { t0: lo, v0, t1: hi, v1 };
            values.push((obj, lo == t, seg.eval(t)));
        })?;
        // At a vertex a stab returns two entries per object, and
        // `v0 + w·(t1 − t0)` need not equal `v1` in the last bit: as in
        // `cumulative_all`, the entry that *ends* at `t` answers whichever
        // the leaf layout visits first — it sorts before the one starting
        // there, and the dedup keeps the first.
        values.sort_by_key(|&(id, starts_at_t, _)| (id, starts_at_t));
        values.dedup_by_key(|&mut (id, ..)| id);
        if let Some(&(obj, ..)) = values.last().filter(|v| v.0 as usize >= self.meta.len()) {
            return Err(self.stray_object(obj));
        }
        Ok(top_k_from_scores(values.into_iter().map(|(id, _, v)| (id, v)), k))
    }

    /// Number of indexed entries.
    pub fn num_entries(&self) -> u64 {
        self.tree.len()
    }

    /// The store configuration this index was built with.
    pub fn store_config(&self) -> StoreConfig {
        self.store
    }

    /// The interval tree's backing file — what a generation image captures
    /// page-for-page. Call [`Exact3::flush`] first so the pages are clean.
    pub fn tree_file(&self) -> &PagedFile {
        self.tree.file()
    }

    /// Persist tree metadata and flush dirty pages to the device.
    pub fn flush(&self) -> Result<()> {
        Ok(self.tree.flush()?)
    }

    /// Serialize the in-memory side state for a generation image: a
    /// reserved `u32` written 0 (a rebuild counter, in older images), then
    /// the per-object `(start, end, total)` triples. All floats cross as
    /// raw bits, so a reopened index rescored bit-identically.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let meta = &self.meta;
        let mut out = Vec::with_capacity(8 + 24 * meta.len());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        for m in meta.iter() {
            out.extend_from_slice(&m.start.to_bits().to_le_bytes());
            out.extend_from_slice(&m.end.to_bits().to_le_bytes());
            out.extend_from_slice(&m.total.to_bits().to_le_bytes());
        }
        out
    }

    /// Reopen from a page-captured tree file plus [`Exact3::meta_bytes`]
    /// — no set scan, no sort, no rebuild. A non-zero reserved word is
    /// refused as corrupt.
    pub fn open_parts(env: Env, store: StoreConfig, file: PagedFile, bytes: &[u8]) -> Result<Self> {
        let corrupt = |what: &str| crate::CoreError::BadQuery(format!("corrupt EXACT3 {what}"));
        let mut r = Reader::new(bytes);
        if r.u32("EXACT3 reserved word")? != 0 {
            return Err(corrupt("generation metadata"));
        }
        let m = r.count("EXACT3 object count", 24)?;
        let mut meta = Vec::with_capacity(m);
        for _ in 0..m {
            let (start, end) = (r.f64("object start")?, r.f64("object end")?);
            meta.push(ObjMeta { start, end, total: r.f64("object total")? });
        }
        r.end("EXACT3 generation metadata")?;
        let tree = IntervalTree::open(file)?;
        if tree.payload_len() != PAYLOAD_LEN {
            return Err(corrupt("tree: its payloads are not EXACT3's"));
        }
        Ok(Self { env, store, tree, meta })
    }
}

impl RankMethod for Exact3 {
    fn name(&self) -> String {
        "EXACT3".into()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        check_interval(t1, t2)?;
        let m = self.meta.len();
        let mut cum1 = vec![0.0f64; m];
        let mut cum2 = vec![0.0f64; m];
        self.cumulative_all(t1, &mut cum1)?;
        self.cumulative_all(t2, &mut cum2)?;
        let top = top_k_from_scores(
            cum1.iter().zip(cum2.iter()).enumerate().map(|(i, (&a, &b))| (i as ObjectId, b - a)),
            k,
        );
        Ok(agg.apply(top, t1, t2))
    }

    fn size_bytes(&self) -> u64 {
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
    use chronorank_index::IntervalEntry;

    #[test]
    fn matches_bruteforce_on_small_set() {
        let set = small_set();
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        assert_eq!(idx.num_entries(), set.num_segments());
        for &(a, b) in crate::test_support::INTERVALS {
            let want = set.top_k_bruteforce(a, b, 4);
            let got = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            assert_same_answer(&want, &got, &format!("EXACT3 [{a},{b}]"));
        }
    }

    #[test]
    fn stab_boundary_times_are_consistent() {
        // Query endpoints exactly on segment boundaries exercise the
        // two-entries-per-object stab case.
        let set = small_set();
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        for &(a, b) in &[(3.0, 9.0), (5.0, 13.0), (0.0, 20.0), (6.0, 6.0)] {
            let want = set.top_k_bruteforce(a, b, 5);
            let got = idx.top_k(a, b, 5, AggKind::Sum).unwrap();
            assert_same_answer(&want, &got, &format!("EXACT3 boundary [{a},{b}]"));
        }
    }

    #[test]
    fn the_entry_ending_at_a_vertex_answers_under_any_leaf_layout() {
        // 5 entries per 256-byte leaf against all 30 in one 4 KiB leaf:
        // the two builds visit a vertex's two entries in different orders
        // and must still agree to the last bit — on the ending entry's
        // prefix, which is the running sum of whole-segment integrals.
        let set = small_set();
        let build = |block_size| {
            let store = StoreConfig { block_size, pool_capacity: 64 };
            Exact3::build(&set, IndexConfig { store }).unwrap()
        };
        let (small, large) = (build(256), build(4096));
        let m = set.objects().len();
        let (mut a, mut b) = (vec![0.0f64; m], vec![0.0f64; m]);
        for o in set.objects() {
            let mut prefix = 0.0f64;
            for seg in o.curve.segments() {
                prefix += seg.integral_full();
                for t in [seg.t0, seg.t1] {
                    small.cumulative_all(t, &mut a).unwrap();
                    large.cumulative_all(t, &mut b).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a), bits(&b), "t={t}");
                }
                assert_eq!(a[o.id as usize].to_bits(), prefix.to_bits(), "o{} t={}", o.id, seg.t1);
            }
        }
    }

    #[test]
    fn instant_top_k_ranks_by_value() {
        let set = small_set();
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        // At t = 6.0: o1 peaks at 8, o9 = 0.5, o0 = 1, o3 = 3.125, o6 ≈ 0.97,
        // o7 ≈ 1.857, o8 = 2 (o2 not alive, o4 gone, o5 zero).
        let top = idx.instant_top_k(6.0, 3).unwrap();
        assert_eq!(top.ids(), vec![1, 3, 8]);
        let (id0, v0) = top.rank(0);
        assert_eq!(id0, 1);
        assert!((v0 - 8.0).abs() < 1e-9);
        // Instant queries at a vertex time.
        let top = idx.instant_top_k(15.0, 1).unwrap();
        assert_eq!(top.ids(), vec![2]); // o2 reaches 5 at t=15
    }

    #[test]
    fn instant_top_k_at_a_vertex_does_not_depend_on_the_leaf_layout() {
        // Times and values off the binary grid: at most vertices
        // `v0 + w·(t1 − t0)` misses `v1` by an ulp, so an answer taken from
        // whichever entry is visited first differs between a 256-byte and
        // a 4 KiB build.
        let curve = |i: usize| {
            let point = |j: usize| {
                (0.3 * i as f64 + 0.7 * j as f64, 0.03 + 0.1 * ((7 * i + 13 * j) % 11) as f64)
            };
            chronorank_curve::PiecewiseLinear::from_points(&(0..8).map(point).collect::<Vec<_>>())
        };
        let set = TemporalSet::from_curves((0..10).map(|i| curve(i).unwrap()).collect()).unwrap();
        let build = |block_size| {
            let store = StoreConfig { block_size, pool_capacity: 64 };
            Exact3::build(&set, IndexConfig { store }).unwrap()
        };
        let (small, large) = (build(256), build(4096));
        let m = set.num_objects();
        let mut off_grid = 0;
        for o in set.objects() {
            for seg in o.curve.segments() {
                for t in [seg.t0, seg.t1] {
                    let (a, b) =
                        (small.instant_top_k(t, m).unwrap(), large.instant_top_k(t, m).unwrap());
                    let bits = |top: &TopK| {
                        top.entries().iter().map(|&(id, v)| (id, v.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&a), bits(&b), "t={t}");
                }
                // The entry ending at `t1` answered, not the one starting there.
                let ended = seg.eval(seg.t1);
                off_grid += usize::from(ended != seg.v1);
                let got = small.instant_top_k(seg.t1, m).unwrap();
                let &(_, v) = got.entries().iter().find(|&&(id, _)| id == o.id).unwrap();
                assert_eq!(v.to_bits(), ended.to_bits(), "o{} t={}", o.id, seg.t1);
            }
        }
        assert!(
            off_grid > 0,
            "every vertex of this set evaluates exactly: the test checks nothing"
        );
    }

    #[test]
    fn a_resident_build_writes_each_tree_page_once_and_reads_none() {
        // No sort scratch: the one file is the tree, and the build's whole
        // IO is the tree's pages going out once.
        let set = crate::test_support::wavy_set(40, 30);
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        idx.flush().unwrap();
        assert_eq!(idx.env.num_files(), 1);
        let pages = idx.size_bytes() / idx.env.block_size() as u64;
        let io = idx.io_stats();
        assert_eq!((io.writes, io.reads), (pages, 0));
    }

    /// `idx`'s tree pages copied into a fresh file, reopened beside `meta`.
    fn reopen(idx: &Exact3, meta: &[u8]) -> Result<Exact3> {
        let env = Env::mem(idx.store_config());
        let (src, file) = (idx.tree_file(), env.create_file("copy").unwrap());
        file.allocate(src.num_blocks()).unwrap();
        for id in 0..src.num_blocks() {
            file.write(id, &src.page(id).unwrap()).unwrap();
        }
        Exact3::open_parts(env, idx.store_config(), file, meta)
    }

    #[test]
    fn open_parts_reopens_the_tree_and_refuses_a_nonzero_reserved_word() {
        let set = small_set();
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        idx.flush().unwrap();
        let reopen = |meta: &[u8]| reopen(&idx, meta);
        let mut bytes = idx.meta_bytes();
        assert_eq!(bytes[..4], [0; 4]);
        let reopened = reopen(&bytes).unwrap();
        for &(a, b) in crate::test_support::INTERVALS {
            let want = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            assert_eq!(reopened.top_k(a, b, 4, AggKind::Sum).unwrap(), want, "[{a},{b}]");
        }
        bytes[0] = 1;
        assert!(reopen(&bytes).is_err());
    }

    /// A tree whose entries carry another payload than EXACT3's 28 bytes,
    /// beside valid metadata: refused at open, before a stab decodes a
    /// payload from fewer bytes than it has.
    #[test]
    fn a_tree_of_other_payloads_is_refused_at_open() {
        let set = small_set();
        let store = IndexConfig::default().store;
        let meta = Exact3::build(&set, IndexConfig { store }).unwrap().meta_bytes();
        let env = Env::mem(store);
        let entries = (0..40)
            .map(|i| IntervalEntry {
                lo: i as f64 / 2.0,
                hi: i as f64 / 2.0 + 1.0,
                payload: vec![0; 8],
            })
            .collect();
        let tree = IntervalTree::build(env.create_file("other").unwrap(), 8, entries).unwrap();
        tree.flush().unwrap();
        let file = env.create_file("copy").unwrap();
        file.allocate(tree.file().num_blocks()).unwrap();
        for id in 0..tree.file().num_blocks() {
            file.write(id, &tree.file().page(id).unwrap()).unwrap();
        }
        let opened = Exact3::open_parts(env, store, file, &meta);
        assert!(matches!(opened, Err(CoreError::BadQuery(what)) if what.contains("payloads")));
    }

    /// Metadata one triple short of the tree: the last object's leaf
    /// entries name an id past the triples, and both queries that stab
    /// through it refuse it as corrupt instead of indexing out of bounds.
    #[test]
    fn a_leaf_naming_an_object_past_the_triples_is_corrupt() {
        let set = small_set();
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        idx.flush().unwrap();
        let mut bytes = idx.meta_bytes();
        let m = set.num_objects() as u32;
        bytes[4..8].copy_from_slice(&(m - 1).to_le_bytes());
        bytes.truncate(bytes.len() - 24);
        let short = reopen(&idx, &bytes).unwrap();
        // The last object (o9) is alive on [0, 19].
        let is_corrupt = |r: Result<TopK>| match r {
            Err(CoreError::Index(IndexError::Corrupt(what))) => what.contains("object 9 of 9"),
            _ => false,
        };
        assert!(is_corrupt(short.top_k(2.0, 10.0, 4, AggKind::Sum)));
        assert!(is_corrupt(short.instant_top_k(6.0, 4)));
    }

    #[test]
    fn avg_agg() {
        let set = small_set();
        let idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        let sum = idx.top_k(2.0, 10.0, 3, AggKind::Sum).unwrap();
        let avg = idx.top_k(2.0, 10.0, 3, AggKind::Avg).unwrap();
        assert_eq!(sum.ids(), avg.ids());
        assert!((avg.rank(0).1 - sum.rank(0).1 / 8.0).abs() < 1e-12);
    }
}
