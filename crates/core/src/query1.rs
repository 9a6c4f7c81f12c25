//! QUERY1 — nested B+-tree queries over all breakpoint pairs (paper §3.2).
//!
//! For every pair of breakpoints `b_j < b_j'` (there are `r(r−1)/2`),
//! materialize the `kmax` objects with the largest `σ_i(b_j, b_j')`. A
//! top-level B+-tree indexes the left endpoint; each of its entries points
//! to a lower-level B+-tree over the right endpoints, whose entries point
//! to the stored list. A query snaps `[t1, t2]` to
//! `[B(t1), B(t2)]` with the two tree descents and reads the first
//! `⌈k·entry/B⌉` blocks of the list:
//!
//! * size `Θ(r² kmax / B)` blocks,
//! * `(ε, 1)`-approximate answers (the stored scores are *exact* on the
//!   snapped interval; Lemma 2 bounds the snapping error by `εM`),
//! * query cost `O(k/B + log_B r)` IOs — the 6–8 cold IOs of the paper's
//!   Figure 12(c).
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
use chronorank_index::BPlusTree;
use chronorank_storage::{Env, IoStats, PagedFile};
use std::borrow::Borrow;
use std::collections::BinaryHeap;

/// List entry: `id u32 | score f64`.
const ENTRY_LEN: usize = 12;
/// Padding id marking unused list slots (`m < kmax`).
const PAD_ID: u32 = u32::MAX;

/// The QUERY1 index (see module docs). Combined with BREAKPOINTS1 this is
/// the paper's **APPX1-B**; with BREAKPOINTS2, **APPX1**.
pub struct Query1Index {
    env: Env,
    breakpoints: Breakpoints,
    top_tree: BPlusTree,
    sub_trees: Vec<BPlusTree>,
    lists: PagedFile,
    kmax: usize,
    blocks_per_list: u64,
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
        let block = env.block_size();
        let blocks_per_list = ((kmax * ENTRY_LEN) as u64).div_ceil(block as u64);

        // Flat heap table over all pairs: pair (j, j+1+p) lives at
        // pair_base(j) + p.
        let npairs_total = r * r.saturating_sub(1) / 2;
        let pair_base = |j: usize| j * (2 * r - 1 - j) / 2;
        let mut heaps: Vec<BinaryHeap<WorstFirst>> = Vec::with_capacity(npairs_total);
        heaps.resize_with(npairs_total, BinaryHeap::new);
        for o in objects {
            let o: &TemporalObject = o.borrow();
            let row = breakpoints.cums_at(&o.curve);
            for j in 0..r.saturating_sub(1) {
                let base = row[j];
                let at = pair_base(j);
                for (p, &c) in row[j + 1..].iter().enumerate() {
                    capped_push(&mut heaps[at + p], kmax, c - base, o.id);
                }
            }
        }

        // Drain in j-major order: one sub-tree per left endpoint.
        let lists = env.create_file("q1_lists")?;
        let mut list_buf = vec![0u8; block];
        let mut sub_trees = Vec::with_capacity(r.saturating_sub(1));
        let mut heap_it = heaps.into_iter();
        for j in 0..r.saturating_sub(1) {
            let mut loader =
                BPlusTree::bulk_loader(env.create_file(&format!("q1_sub_{j:06}"))?, 8)?;
            for p in 0..(r - 1 - j) {
                let jp = j + 1 + p;
                let heap = heap_it.next().expect("pair table sized r(r-1)/2");
                let entries = heap_into_desc(heap);
                let start = lists.allocate(blocks_per_list)?;
                write_list(&lists, &mut list_buf, start, kmax, &entries)?;
                loader.push(breakpoints.points()[jp], &start.to_le_bytes())?;
            }
            sub_trees.push(loader.finish()?);
        }

        let mut loader = BPlusTree::bulk_loader(env.create_file("q1_top")?, 4)?;
        for (j, &b) in breakpoints.points()[..r.saturating_sub(1)].iter().enumerate() {
            loader.push(b, &(j as u32).to_le_bytes())?;
        }
        let top_tree = loader.finish()?;
        Ok(Self { env, breakpoints, top_tree, sub_trees, lists, kmax, blocks_per_list })
    }

    /// Maximum `k` this index can answer.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// The breakpoints this index snaps to.
    pub fn breakpoints(&self) -> &Breakpoints {
        &self.breakpoints
    }

    /// Read the top-`k` prefix of the list for the snapped interval; `None`
    /// when `t1` snaps past the last left endpoint (empty snapped interval).
    fn lookup(&self, t1: f64, t2: f64, k: usize) -> Result<Option<Vec<(ObjectId, f64)>>> {
        // Descent 1: B(t1) in the top-level tree.
        let cur = self.top_tree.seek(t1)?;
        if !cur.valid() {
            return Ok(None);
        }
        let j = u32::from_le_bytes(cur.payload().try_into().expect("4")) as usize;
        // Descent 2: B(t2) in the sub-tree (clamped to the last breakpoint
        // when t2 exceeds the domain, per B(t) = smallest breakpoint ≥ t,
        // which is T itself for t ≥ T).
        let sub = &self.sub_trees[j];
        let cur2 = sub.seek(t2)?;
        let start = if cur2.valid() {
            u64::from_le_bytes(cur2.payload().try_into().expect("8"))
        } else {
            match sub.last_entry()? {
                Some((_, p)) => u64::from_le_bytes(p.as_slice().try_into().expect("8")),
                None => return Ok(None),
            }
        };
        Ok(Some(read_list(&self.lists, start, self.blocks_per_list, k)?))
    }
}

/// Write one fixed-size list (`kmax` slots, unused slots padded).
pub(crate) fn write_list(
    lists: &PagedFile,
    buf: &mut [u8],
    start: u64,
    kmax: usize,
    entries: &[(ObjectId, f64)],
) -> Result<()> {
    let block = buf.len();
    let per_block = block / ENTRY_LEN;
    let blocks = ((kmax * ENTRY_LEN) as u64).div_ceil(block as u64);
    let mut it = entries.iter();
    for b in 0..blocks {
        buf.fill(0);
        for slot in 0..per_block {
            let global = b as usize * per_block + slot;
            if global >= kmax {
                break;
            }
            let off = slot * ENTRY_LEN;
            match it.next() {
                Some(&(id, score)) => {
                    buf[off..off + 4].copy_from_slice(&id.to_le_bytes());
                    buf[off + 4..off + 12].copy_from_slice(&score.to_le_bytes());
                }
                None => {
                    buf[off..off + 4].copy_from_slice(&PAD_ID.to_le_bytes());
                }
            }
        }
        lists.write(start + b, buf)?;
    }
    Ok(())
}

/// Read the first `k` real entries of a list.
pub(crate) fn read_list(
    lists: &PagedFile,
    start: u64,
    blocks_per_list: u64,
    k: usize,
) -> Result<Vec<(ObjectId, f64)>> {
    let per_block = lists.block_size() / ENTRY_LEN;
    let mut out = Vec::with_capacity(k);
    let need_blocks = (k as u64).div_ceil(per_block as u64).min(blocks_per_list);
    'outer: for b in 0..need_blocks {
        let buf = lists.page(start + b)?;
        for slot in 0..per_block {
            if out.len() >= k {
                break 'outer;
            }
            let off = slot * ENTRY_LEN;
            let id = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4"));
            if id == PAD_ID {
                break 'outer;
            }
            let score = f64::from_le_bytes(buf[off + 4..off + 12].try_into().expect("8"));
            out.push((id, score));
        }
    }
    Ok(out)
}

impl RankMethod for Query1Index {
    fn name(&self) -> String {
        "QUERY1".into()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        check_interval(t1, t2)?;
        if k > self.kmax {
            return Err(CoreError::BadQuery(format!(
                "k = {k} exceeds kmax = {} this index was built for",
                self.kmax
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
        self.top_tree.size_bytes()
            + self.sub_trees.iter().map(|t| t.size_bytes()).sum::<u64>()
            + self.lists.size_bytes()
    }

    fn io_stats(&self) -> IoStats {
        self.env.io_stats()
    }

    fn reset_io(&self) {
        self.env.reset_io()
    }

    fn drop_caches(&self) -> Result<()> {
        self.top_tree.file().drop_cache()?;
        for t in &self.sub_trees {
            t.file().drop_cache()?;
        }
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

    #[test]
    fn avg_agg_divides_by_true_length() {
        let (_, idx) = build(16, 4);
        let sum = idx.top_k(2.0, 12.0, 2, AggKind::Sum).unwrap();
        let avg = idx.top_k(2.0, 12.0, 2, AggKind::Avg).unwrap();
        assert_eq!(sum.ids(), avg.ids());
        assert!((avg.rank(0).1 - sum.rank(0).1 / 10.0).abs() < 1e-12);
    }
}
