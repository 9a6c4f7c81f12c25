//! QUERY1 — top-`kmax` lists over all breakpoint pairs (paper §3.2).
//!
//! For every pair of breakpoints `b_j < b_j'` (there are `r(r−1)/2`),
//! materialize the `kmax` objects with the largest `σ_i(b_j, b_j')`. The
//! lists sit in one [`Lists`] file in `j`-major order, so the pair's list
//! is the one at slot `pair_base(j) + (j′ − j − 1)`. A query snaps both
//! endpoints through one B+-tree over the `r` breakpoints, to
//! `[B(t1), B(t2)]`, and reads the first `⌈k·entry/B⌉` blocks of that list:
//!
//! * size `Θ(r² kmax / B)` blocks: `⌊B / (12·kmax)⌋` lists share a block,
//! * `(ε, 1)`-approximate answers (the stored scores are *exact* on the
//!   snapped interval; Lemma 2 bounds the snapping error by `εM`),
//! * query cost `O(k/B + log_B r)` IOs — the 6–8 cold IOs of the paper's
//!   Figure 12(c).
//!
//! The paper nests a B+-tree per left endpoint under a top-level tree;
//! with lists addressed by slot, one directory and the slot arithmetic do
//! the same job in two files instead of `r + 1` (`REPRODUCTION.md`,
//! "Known deviations", item 9).
//!
//! Construction streams objects in object-major order, pushing each
//! object's breakpoint-prefix row into the pair heaps (`O(r² kmax)` space,
//! `O(m·r²)` heap pushes), which materializes exactly the lists the
//! paper's `O(r)`-running-sums sweep produces (`REPRODUCTION.md`, "Known
//! deviations", item 7).

use crate::agg::AggKind;
use crate::breakpoints::Breakpoints;
use crate::error::{CoreError, Result};
use crate::object::{ObjectId, TemporalObject};
use crate::topk::{capped_push, check_interval, heap_into_desc, RankMethod, TopK, WorstFirst};
use chronorank_index::{BPlusTree, BulkLoader};
use chronorank_storage::{Env, IoStats, Page, PagedFile, Reader};
use std::borrow::Borrow;
use std::collections::BinaryHeap;

/// List entry: `id u32 | score f64`.
const ENTRY_LEN: usize = 12;
/// Padding id marking unused list slots (`m < kmax`).
const PAD_ID: u32 = u32::MAX;

/// A file of fixed-size top-`kmax` lists, addressed by slot — QUERY1's and
/// QUERY2's. While a list fits a block, `⌊B / (12·kmax)⌋` lists share each
/// block and none straddles two; a longer list starts a block of its own
/// and spans `⌈kmax / ⌊B/12⌋⌉` whole blocks. Unused entries of a list are
/// padded.
pub(crate) struct Lists {
    file: PagedFile,
    kmax: usize,
    /// Lists per block; 0 when one list outgrows a block.
    per_block: usize,
}

impl Lists {
    /// Write `lists` (each best first, at most `kmax` entries) to the empty
    /// `file`, slot after slot. One block buffer is filled at a time and
    /// written when the next entry belongs to another block.
    pub(crate) fn write<I>(file: PagedFile, kmax: usize, lists: I) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<(ObjectId, f64)>>,
    {
        let block = file.block_size();
        let out = Self { per_block: block / (kmax * ENTRY_LEN), file, kmax };
        let mut buf = vec![0u8; block];
        let mut held: Option<u64> = None;
        let flush = |id: u64, buf: &[u8]| -> Result<()> {
            let got = out.file.allocate(1)?;
            assert_eq!(got, id, "a lists file is written from its first block");
            Ok(out.file.write(got, buf)?)
        };
        for (slot, list) in lists.into_iter().enumerate() {
            debug_assert!(list.len() <= kmax);
            for e in 0..kmax {
                let (id, off) = out.place(slot as u64, e);
                if held != Some(id) {
                    if let Some(prev) = held {
                        flush(prev, &buf)?;
                        buf.fill(0);
                    }
                    held = Some(id);
                }
                let (obj, score) = list.get(e).copied().unwrap_or((PAD_ID, 0.0));
                buf[off..off + 4].copy_from_slice(&obj.to_le_bytes());
                buf[off + 4..off + ENTRY_LEN].copy_from_slice(&score.to_le_bytes());
            }
        }
        if let Some(prev) = held {
            flush(prev, &buf)?;
        }
        Ok(out)
    }

    /// Block and byte offset of entry `e` of the list at `slot`.
    fn place(&self, slot: u64, e: usize) -> (u64, usize) {
        if self.per_block > 0 {
            let per = self.per_block as u64;
            (slot / per, ((slot % per) as usize * self.kmax + e) * ENTRY_LEN)
        } else {
            let entries = self.file.block_size() / ENTRY_LEN;
            let blocks = self.kmax.div_ceil(entries) as u64;
            (slot * blocks + (e / entries) as u64, (e % entries) * ENTRY_LEN)
        }
    }

    /// The first `k` real entries of the list at `slot`.
    pub(crate) fn read(&self, slot: u64, k: usize) -> Result<Vec<(ObjectId, f64)>> {
        let k = k.min(self.kmax);
        let mut out = Vec::with_capacity(k);
        let mut page: Option<(u64, Page)> = None;
        for e in 0..k {
            let (id, off) = self.place(slot, e);
            let buf = match &page {
                Some((held, buf)) if *held == id => buf,
                _ => &page.insert((id, self.file.page(id)?)).1,
            };
            let mut r = Reader::new(&buf[off..]);
            let obj = r.u32("list id")?;
            if obj == PAD_ID {
                break;
            }
            out.push((obj, r.f64("list score")?));
        }
        Ok(out)
    }

    /// The largest `k` a list answers.
    pub(crate) fn kmax(&self) -> usize {
        self.kmax
    }

    pub(crate) fn size_bytes(&self) -> u64 {
        self.file.size_bytes()
    }

    pub(crate) fn drop_cache(&self) -> Result<()> {
        Ok(self.file.drop_cache()?)
    }
}

/// The breakpoint directory: a B+-tree over all `r` breakpoints whose
/// payload is the index, so snapping costs real reads.
pub(crate) fn breakpoint_tree(
    env: &Env,
    name: &str,
    breakpoints: &Breakpoints,
) -> Result<BPlusTree> {
    let mut loader = BulkLoader::new(env.create_file(name)?, 4)?;
    for (j, &b) in breakpoints.points().iter().enumerate() {
        loader.push(b, &(j as u32).to_le_bytes())?;
    }
    Ok(loader.finish()?)
}

/// `B(t)` through the directory: the index of the smallest breakpoint
/// `≥ t`, `None` past the last.
pub(crate) fn snap_via_tree(tree: &BPlusTree, t: f64) -> Result<Option<usize>> {
    let cur = tree.seek(t)?;
    if !cur.valid() {
        return Ok(None);
    }
    Ok(Some(Reader::new(cur.payload()).u32("breakpoint index")? as usize))
}

/// The QUERY1 index (see module docs). Combined with BREAKPOINTS1 this is
/// the paper's **APPX1-B**; with BREAKPOINTS2, **APPX1**.
pub struct Query1Index {
    env: Env,
    breakpoints: Breakpoints,
    bp_tree: BPlusTree,
    lists: Lists,
}

/// Slot of pair `(j, j + 1)`: the pairs of every smaller left endpoint
/// come first.
fn pair_base(r: usize, j: usize) -> usize {
    j * (2 * r - 1 - j) / 2
}

impl Query1Index {
    /// Build over an object stream (owned or borrowed, e.g.
    /// `set.objects()`) with the given breakpoints, storing the top-`kmax`
    /// list for each of the `r(r−1)/2` breakpoint pairs. **One**
    /// object-major pass holds all the pair heaps (`O(r² kmax)` memory —
    /// the size of the final index, independent of `m` and `N`); the
    /// dataset is never materialized.
    pub fn build<I>(env: Env, objects: I, breakpoints: Breakpoints, kmax: usize) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Borrow<TemporalObject>,
    {
        if kmax == 0 {
            return Err(CoreError::BadQuery("kmax must be at least 1".into()));
        }
        let r = breakpoints.len();

        // Flat heap table over all pairs, in slot order.
        let npairs_total = r * r.saturating_sub(1) / 2;
        let mut heaps: Vec<BinaryHeap<WorstFirst>> = Vec::with_capacity(npairs_total);
        heaps.resize_with(npairs_total, BinaryHeap::new);
        for o in objects {
            let o: &TemporalObject = o.borrow();
            let row = breakpoints.cums_at(&o.curve);
            for j in 0..r.saturating_sub(1) {
                let base = row[j];
                let at = pair_base(r, j);
                for (p, &c) in row[j + 1..].iter().enumerate() {
                    capped_push(&mut heaps[at + p], kmax, c - base, o.id);
                }
            }
        }

        let lists = Lists::write(
            env.create_file("q1_lists")?,
            kmax,
            heaps.into_iter().map(heap_into_desc),
        )?;
        let bp_tree = breakpoint_tree(&env, "q1_bp", &breakpoints)?;
        Ok(Self { env, breakpoints, bp_tree, lists })
    }

    /// Maximum `k` this index can answer.
    pub fn kmax(&self) -> usize {
        self.lists.kmax()
    }

    /// The breakpoints this index snaps to.
    pub fn breakpoints(&self) -> &Breakpoints {
        &self.breakpoints
    }

    /// Read the top-`k` prefix of the list for the snapped interval; `None`
    /// when `t1` snaps to the last breakpoint or past it (empty snapped
    /// interval).
    fn lookup(&self, t1: f64, t2: f64, k: usize) -> Result<Option<Vec<(ObjectId, f64)>>> {
        let r = self.breakpoints.len();
        let j = match snap_via_tree(&self.bp_tree, t1)? {
            Some(j) if j + 1 < r => j,
            _ => return Ok(None),
        };
        // B(t2), clamped to the last breakpoint when t2 exceeds the domain
        // (B(t) = smallest breakpoint ≥ t, which is T itself for t ≥ T),
        // and at least one breakpoint right of B(t1).
        let jp = snap_via_tree(&self.bp_tree, t2)?.unwrap_or(r - 1).max(j + 1);
        let slot = pair_base(r, j) + (jp - j - 1);
        Ok(Some(self.lists.read(slot as u64, k)?))
    }
}

impl RankMethod for Query1Index {
    fn name(&self) -> String {
        "QUERY1".into()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        check_interval(t1, t2)?;
        if k > self.kmax() {
            return Err(CoreError::BadQuery(format!(
                "k = {k} exceeds kmax = {} this index was built for",
                self.kmax()
            )));
        }
        let entries = match self.lookup(t1, t2, k)? {
            Some(e) => e,
            None => return Ok(TopK::from_ranked(Vec::new())),
        };
        let top = TopK::from_ranked(entries);
        Ok(agg.apply(top, t1, t2))
    }

    fn size_bytes(&self) -> u64 {
        self.bp_tree.size_bytes() + self.lists.size_bytes()
    }

    fn io_stats(&self) -> IoStats {
        self.env.io_stats()
    }

    fn reset_io(&self) {
        self.env.reset_io()
    }

    fn drop_caches(&self) -> Result<()> {
        self.bp_tree.file().drop_cache()?;
        self.lists.drop_cache()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::B2Construction;
    use crate::test_support::small_set;
    use chronorank_storage::StoreConfig;

    fn build(r: usize, kmax: usize) -> (crate::TemporalSet, Query1Index) {
        let set = small_set();
        let bp = Breakpoints::b2_with_count(&set, r, B2Construction::Efficient).unwrap();
        let env = Env::mem(StoreConfig::default());
        let idx = Query1Index::build(env, set.objects(), bp, kmax).unwrap();
        (set, idx)
    }

    #[test]
    fn snapped_scores_are_exact_on_snapped_interval() {
        let (set, idx) = build(24, 5);
        let bp = idx.breakpoints().clone();
        for &(a, b) in crate::test_support::INTERVALS {
            let got = idx.top_k(a, b, 3, AggKind::Sum).unwrap();
            // Reconstruct the snapped interval the same way lookup does.
            let b1 = bp.snap(a);
            let j1 = bp.snap_idx(a);
            if j1 >= bp.len() - 1 {
                assert!(got.is_empty());
                continue;
            }
            let mut b2 = bp.snap(b.max(b1));
            if bp.snap_idx(b) <= j1 {
                b2 = bp.points()[j1 + 1];
            }
            let want = set.top_k_bruteforce(b1, b2, 3);
            crate::test_support::assert_same_answer(&want, &got, &format!("Q1 [{a},{b}]"));
        }
    }

    #[test]
    fn epsilon_guarantee_holds() {
        // (ε,1): |σ̃_j − σ_A(j)| ≤ εM at every rank (Definition 2 via
        // Lemma 2 + appendix Lemma 6).
        let (set, idx) = build(24, 6);
        let em = idx.breakpoints().eps() * idx.breakpoints().mass();
        for &(a, b) in &[(1.0, 9.0), (0.0, 20.0), (4.0, 16.0), (2.5, 3.5)] {
            let approx = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            let exact = set.top_k_bruteforce(a, b, 4);
            for j in 0..approx.len() {
                let (_, sa) = approx.rank(j);
                let (_, se) = exact.rank(j);
                assert!(
                    (sa - se).abs() <= em * (1.0 + 1e-9) + 1e-9,
                    "[{a},{b}] rank {j}: approx {sa} vs exact {se}, εM = {em}"
                );
            }
        }
    }

    #[test]
    fn k_beyond_kmax_is_rejected() {
        let (_, idx) = build(12, 4);
        assert!(idx.top_k(0.0, 10.0, 5, AggKind::Sum).is_err());
        assert!(idx.top_k(0.0, 10.0, 4, AggKind::Sum).is_ok());
    }

    #[test]
    fn interval_past_domain_is_empty() {
        let (_, idx) = build(12, 4);
        let got = idx.top_k(1e9, 2e9, 3, AggKind::Sum).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn t2_past_domain_clamps_to_last_breakpoint() {
        let (set, idx) = build(16, 4);
        let got = idx.top_k(5.0, 1e9, 3, AggKind::Sum).unwrap();
        let b1 = idx.breakpoints().snap(5.0);
        let want = set.top_k_bruteforce(b1, set.t_max(), 3);
        crate::test_support::assert_same_answer(&want, &got, "Q1 clamped t2");
    }

    #[test]
    fn query_costs_constant_ios() {
        let (_, idx) = build(32, 8);
        idx.drop_caches().unwrap();
        idx.reset_io();
        idx.top_k(3.0, 15.0, 8, AggKind::Sum).unwrap();
        let reads = idx.io_stats().reads;
        assert!(reads <= 8, "QUERY1 cold query took {reads} reads (paper: 6-8)");
    }

    proptest::proptest! {
        /// Lists of every length up to `kmax`, `kmax` on both sides of the
        /// one-block boundary (21 / 22 at 256-byte blocks, 85 / 86 at
        /// 1024, 341 / 342 at 4096): each slot reads back its entries at
        /// every `k`, one list costs one block read while `12·kmax ≤ B`,
        /// and the file holds `⌈lists / ⌊B/(12·kmax)⌋⌉` blocks — or
        /// `⌈kmax / ⌊B/12⌋⌉` for each list that outgrows a block.
        #[test]
        fn every_slot_reads_back_its_list_and_a_list_that_fits_a_block_stays_in_it(
            block_at in 0usize..3,
            kmax_at in 0usize..9,
            fills in proptest::collection::vec(0.0f64..1.0, 1..48),
        ) {
            let block = [256, 1024, 4096][block_at];
            let kmax = [1, 21, 22, 64, 85, 86, 341, 342, 400][kmax_at];
            let env = Env::mem(StoreConfig { block_size: block, pool_capacity: 4 });
            let want: Vec<Vec<(ObjectId, f64)>> = fills
                .iter()
                .enumerate()
                .map(|(slot, fill)| {
                    let len = ((kmax + 1) as f64 * fill) as usize;
                    (0..len).map(|e| ((slot * 1000 + e) as u32, (slot + e) as f64 * -0.5)).collect()
                })
                .collect();
            let lists = Lists::write(env.create_file("lists").unwrap(), kmax, want.clone()).unwrap();
            let per_block = block / (12 * kmax);
            let blocks = if per_block > 0 {
                want.len().div_ceil(per_block)
            } else {
                want.len() * kmax.div_ceil(block / 12)
            };
            proptest::prop_assert_eq!(lists.size_bytes(), (blocks * block) as u64);
            for (slot, list) in want.iter().enumerate() {
                for k in [1, kmax / 2, kmax] {
                    let got = lists.read(slot as u64, k).unwrap();
                    proptest::prop_assert_eq!(&got[..], &list[..k.min(list.len())]);
                }
                if per_block > 0 {
                    lists.drop_cache().unwrap();
                    let before = env.io_stats().reads;
                    lists.read(slot as u64, kmax).unwrap();
                    proptest::prop_assert!(env.io_stats().reads - before <= 1, "slot {} straddles", slot);
                }
            }
        }
    }

    #[test]
    fn avg_agg_divides_by_true_length() {
        let (_, idx) = build(16, 4);
        let sum = idx.top_k(2.0, 12.0, 2, AggKind::Sum).unwrap();
        let avg = idx.top_k(2.0, 12.0, 2, AggKind::Avg).unwrap();
        assert_eq!(sum.ids(), avg.ids());
        assert!((avg.rank(0).1 - sum.rank(0).1 / 10.0).abs() < 1e-12);
    }
}
