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
//! bulk loader packs leaves by `hi` inside self-sized `lo` runs, and a
//! stab then reads ≈ 1.5× its `⌈alive/B⌉` output leaves on Temp and ≈ 4×
//! on Meme, where one long segment per leaf used to drag in 18× (see
//! `chronorank_index`'s interval module, "the output term").
//!
//! Objects whose domain does not cover a stab time contribute `0` (before
//! their start) or their total mass (after their end); per-object
//! `(start, end, total)` triples are kept in memory, exactly as EXACT1
//! keeps its `m` running sums in memory.
//!
//! Updates append the new entry to the interval tree's tail
//! (`O(1)` amortized writes) and the tree reports when the amortized
//! rebuild is due ([`Exact3::needs_rebuild`] / [`Exact3::rebuild`]).

use crate::agg::AggKind;
use crate::error::Result;
use crate::object::{ObjectId, TemporalObject, TemporalSet};
use crate::topk::{check_interval, top_k_from_scores, RankMethod, TopK};
use crate::IndexConfig;
use chronorank_curve::Segment;
use chronorank_index::{ExternalSorter, IntervalBulkLoader, IntervalTree};
use chronorank_storage::{Env, IoStats, PagedFile, StoreConfig};
use std::borrow::Borrow;

/// Entry payload: `obj u32 | v0 f64 | v1 f64 | prefix f64` (the interval
/// key holds `t0` / `t1`).
const PAYLOAD_LEN: usize = 4 + 8 + 8 + 8;

/// External-sort record for the bulk build: `lo f64 | hi f64 | payload`.
const SORT_RECORD_LEN: usize = 16 + PAYLOAD_LEN;

fn encode_payload(obj: ObjectId, v0: f64, v1: f64, prefix: f64) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..4].copy_from_slice(&obj.to_le_bytes());
    p[4..12].copy_from_slice(&v0.to_le_bytes());
    p[12..20].copy_from_slice(&v1.to_le_bytes());
    p[20..28].copy_from_slice(&prefix.to_le_bytes());
    p
}

fn decode_payload(p: &[u8]) -> (ObjectId, f64, f64, f64) {
    let obj = u32::from_le_bytes(p[0..4].try_into().expect("4"));
    let v0 = f64::from_le_bytes(p[4..12].try_into().expect("8"));
    let v1 = f64::from_le_bytes(p[12..20].try_into().expect("8"));
    let prefix = f64::from_le_bytes(p[20..28].try_into().expect("8"));
    (obj, v0, v1, prefix)
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
/// `Send + Sync`: a built index is an immutable snapshot any number of
/// threads may query concurrently; appends and rebuilds take `&mut self`.
pub struct Exact3 {
    env: Env,
    store: StoreConfig,
    tree: IntervalTree,
    meta: Vec<ObjMeta>,
    /// Counter used to give rebuilt trees fresh file names.
    generation: u32,
}

impl Exact3 {
    /// Build from a resident set, in memory. No sort: the set's curves are
    /// each in `t0` order already, so [`TemporalSet::time_ordered`] merges
    /// them into the loader. Every tree page is written once and none is
    /// read back, and the file is byte for byte what
    /// [`Exact3::build_streaming`] writes over the same objects — the merge
    /// yields the sorter's sequence, ties included (`tests/build_golden.rs`).
    pub fn build(set: &TemporalSet, config: IndexConfig) -> Result<Self> {
        let env = Env::mem(config.store);
        let (tree, meta) = Self::fill(&env, set, 0)?;
        Ok(Self { env, store: config.store, tree, meta, generation: 0 })
    }

    /// Build from an object stream, owned or borrowed, that is never
    /// materialized (the paper's construction preamble: its data sits on
    /// disk in object order): one external sort on `lo` in runs of
    /// `sort_budget_bytes` (`O((N/B) log_B N)` IOs), one leaf-fill-1.0 bulk
    /// load. Peak memory is one sort run, one loader run (≤ 256 leaves), one
    /// fence per leaf and the per-object `(start, end, total)` triples
    /// collected in the push loop (`24·m` bytes) — never the full entry set.
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
        let tree = Self::load(&env, 0, sorted)?;
        Ok(Self { env, store, tree, meta, generation: 0 })
    }

    /// The resident build behind [`Exact3::build`] and [`Exact3::rebuild`]:
    /// the set's time-ordered merge into [`Exact3::load`]. Beyond the
    /// loader's share, memory is the merge's `64·m` bytes and the `24·m` of
    /// `(start, end, total)` triples — no copy of the entries anywhere.
    fn fill(env: &Env, set: &TemporalSet, generation: u32) -> Result<(IntervalTree, Vec<ObjMeta>)> {
        let merged = set.time_ordered().map(|entry| {
            let (obj, seg, prefix) = entry?;
            Ok((seg.t0, seg.t1, encode_payload(obj, seg.v0, seg.v1, prefix)))
        });
        let tree = Self::load(env, generation, merged)?;
        Ok((tree, set.objects().iter().map(ObjMeta::of).collect()))
    }

    /// The one loader loop: `(lo, hi, payload)` entries in `lo` order — a
    /// sorted stream's or a resident set's merge — straight into the
    /// interval tree's leaf-fill-1.0 bulk loader, which holds one run
    /// (≤ 256 leaves) and one fence per leaf.
    fn load(
        env: &Env,
        generation: u32,
        entries: impl Iterator<Item = Result<(f64, f64, [u8; PAYLOAD_LEN])>>,
    ) -> Result<IntervalTree> {
        let file = env.create_file(&format!("exact3_tree_gen{generation}"))?;
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
        self.tree.stab(t, &mut |lo, hi, p| {
            let (obj, v0, v1, prefix) = decode_payload(p);
            let slot = &mut out[obj as usize];
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
        // Objects alive at t but not stabbed cannot happen: intervals tile
        // each object's domain. Guard against NaN leakage anyway.
        debug_assert!(out.iter().all(|v| !v.is_nan()), "stab missed an alive object");
        Ok(())
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
        Ok(top_k_from_scores(values.into_iter().map(|(id, _, v)| (id, v)), k))
    }

    /// Append a new segment for `obj`: one tail write + in-memory metadata
    /// update (`O(log_B N)` in the paper's accounting).
    pub fn append_segment(&mut self, obj: ObjectId, seg: Segment) -> Result<()> {
        let m = self.meta.get_mut(obj as usize).ok_or(crate::CoreError::NoSuchObject(obj))?;
        let prefix = m.total + seg.integral_full();
        self.tree.append(seg.t0, seg.t1, &encode_payload(obj, seg.v0, seg.v1, prefix))?;
        m.total = prefix;
        m.end = seg.t1;
        Ok(())
    }

    /// True when enough appends accumulated that the amortized rebuild
    /// (paper §4) is due.
    pub fn needs_rebuild(&self) -> bool {
        self.tree.needs_rebuild()
    }

    /// Rebuild the interval tree from the (updated) set, folding the append
    /// tail into the static structure.
    pub fn rebuild(&mut self, set: &TemporalSet) -> Result<()> {
        self.generation += 1;
        (self.tree, self.meta) = Self::fill(&self.env, set, self.generation)?;
        Ok(())
    }

    /// Number of indexed entries (static + tail).
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

    /// Serialize the in-memory side state (rebuild generation + per-object
    /// `(start, end, total)` triples) for a generation image. All floats
    /// cross as raw bits, so a reopened index rescored bit-identically.
    pub fn meta_bytes(&self) -> Vec<u8> {
        let meta = &self.meta;
        let mut out = Vec::with_capacity(8 + 24 * meta.len());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
        for m in meta.iter() {
            out.extend_from_slice(&m.start.to_bits().to_le_bytes());
            out.extend_from_slice(&m.end.to_bits().to_le_bytes());
            out.extend_from_slice(&m.total.to_bits().to_le_bytes());
        }
        out
    }

    /// Reopen from a page-captured tree file plus [`Exact3::meta_bytes`]
    /// — no set scan, no sort, no rebuild.
    pub fn open_parts(env: Env, store: StoreConfig, file: PagedFile, bytes: &[u8]) -> Result<Self> {
        let corrupt = || crate::CoreError::BadQuery("corrupt EXACT3 generation metadata".into());
        if bytes.len() < 8 {
            return Err(corrupt());
        }
        let generation = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let m = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if bytes.len() != 8 + 24 * m {
            return Err(corrupt());
        }
        let f = |at: usize| {
            f64::from_bits(u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")))
        };
        let meta = (0..m)
            .map(|i| {
                let at = 8 + 24 * i;
                ObjMeta { start: f(at), end: f(at + 8), total: f(at + 16) }
            })
            .collect();
        let tree = IntervalTree::open(file)?;
        Ok(Self { env, store, tree, meta, generation })
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
        Ok(match agg {
            AggKind::Avg if t2 > t1 => top.into_avg(t2 - t1),
            _ => top,
        })
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
        let mut set = crate::test_support::wavy_set(40, 30);
        let mut idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        idx.flush().unwrap();
        assert_eq!(idx.env.num_files(), 1);
        let pages = idx.size_bytes() / idx.env.block_size() as u64;
        let io = idx.io_stats();
        assert_eq!((io.writes, io.reads), (pages, 0));
        // A rebuild is the same merge into the next generation's file.
        let end = set.object(1).unwrap().curve.end();
        set.append_segment(1, end + 5.0, 20.0).unwrap();
        idx.reset_io();
        idx.rebuild(&set).unwrap();
        idx.flush().unwrap();
        assert_eq!(idx.env.num_files(), 2);
        let pages = idx.size_bytes() / idx.env.block_size() as u64;
        let io = idx.io_stats();
        assert_eq!((io.writes, io.reads), (pages, 0));
    }

    #[test]
    fn update_then_query_and_rebuild() {
        let mut set = small_set();
        let mut idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        let end = set.object(1).unwrap().curve.end();
        let v_end = set.object(1).unwrap().curve.eval(end).unwrap();
        set.append_segment(1, end + 5.0, 20.0).unwrap();
        idx.append_segment(1, Segment::new(end, v_end, end + 5.0, 20.0)).unwrap();
        let want = set.top_k_bruteforce(end, end + 5.0, 2);
        let got = idx.top_k(end, end + 5.0, 2, AggKind::Sum).unwrap();
        assert_same_answer(&want, &got, "EXACT3 after append");
        // Force the amortized rebuild and re-check everything.
        idx.rebuild(&set).unwrap();
        for &(a, b) in crate::test_support::INTERVALS {
            let want = set.top_k_bruteforce(a, b, 4);
            let got = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            assert_same_answer(&want, &got, &format!("EXACT3 rebuilt [{a},{b}]"));
        }
        assert!(idx.append_segment(99, Segment::new(0.0, 0.0, 1.0, 1.0)).is_err());
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

    #[test]
    fn many_appends_trigger_rebuild_flag() {
        let mut set = small_set();
        let mut idx = Exact3::build(&set, IndexConfig::default()).unwrap();
        assert!(!idx.needs_rebuild());
        let mut t = set.t_max();
        for i in 0..300 {
            let end = set.object(0).unwrap().curve.end();
            let v = set.object(0).unwrap().curve.eval(end).unwrap();
            t += 1.0;
            set.append_segment(0, t, 1.0 + (i % 5) as f64).unwrap();
            idx.append_segment(0, Segment::new(end, v, t, 1.0 + (i % 5) as f64)).unwrap();
        }
        assert!(idx.needs_rebuild());
    }
}
