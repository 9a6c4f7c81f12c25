//! QUERY2 — dyadic interval queries (paper §3.2).
//!
//! Instead of all `r(r−1)/2` breakpoint pairs, materialize top-`kmax`
//! lists only for the **dyadic intervals** over the `r−1` breakpoint gaps
//! (the spans of a balanced binary tree's nodes — fewer than `2r + log r`
//! of them). Any snapped query interval `[B(t1), B(t2)]` is the disjoint
//! union of at most `2 log r` dyadic intervals; the query unions their
//! top-k prefixes into a candidate set `K` (summing the scores of objects
//! appearing in several pieces) and returns the top `k` of `K`.
//!
//! * size `Θ(r·kmax/B)` blocks — **1–2 orders smaller than QUERY1**,
//! * `(ε, 2 log r)`-approximate (Lemma 4: an object may have only a
//!   `1/(2 log r)` fraction of its mass visible in any single piece, but
//!   in practice accuracy is close to QUERY1 — paper Fig. 12),
//! * query cost `O(k log r)` IOs.
//!
//! The `+` variant (APPX2+) re-scores each candidate in `K` exactly from
//! per-object prefix sums ([`crate::PackedPrefix`]), trading
//! `O(k log r · log(n/B))` extra IOs for near-exact answers; see
//! [`crate::ApproxIndex`].

use crate::agg::AggKind;
use crate::breakpoints::Breakpoints;
use crate::error::{CoreError, Result};
use crate::object::{ObjectId, TemporalObject};
use crate::topk::{
    capped_push, check_interval, heap_into_desc, top_k_from_scores, RankMethod, TopK, WorstFirst,
};
use chronorank_index::BPlusTree;
use chronorank_storage::{Env, IoStats, PagedFile};
use std::borrow::Borrow;
use std::collections::{BinaryHeap, HashMap};

/// List entry: `id u32 | score f64`.
const ENTRY_LEN: usize = 12;
/// Directory sentinel for dead (fully padded-out) nodes.
const NO_LIST: u64 = u64::MAX;

/// One node of the implicit dyadic tree (heap order, root = 0).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// First gap covered.
    lo: u32,
    /// One past the last *real* gap covered.
    hi: u32,
    /// First block of the node's top-`kmax` list (`NO_LIST` if dead).
    list_start: u64,
}

/// The QUERY2 index (see module docs). With BREAKPOINTS1 this is the
/// paper's **APPX2-B**; with BREAKPOINTS2, **APPX2**.
pub struct Query2Index {
    env: Env,
    breakpoints: Breakpoints,
    /// B+-tree over all `r` breakpoints (payload: index) used to snap
    /// query endpoints with real IOs.
    bp_tree: BPlusTree,
    /// Implicit binary tree over the gap range `[0, r − 1)` padded to a
    /// power of two.
    nodes: Vec<Node>,
    lists: PagedFile,
    kmax: usize,
    blocks_per_list: u64,
}

impl Query2Index {
    /// Build over an object stream (owned or borrowed, e.g.
    /// `set.objects()`) with the given breakpoints. Object-major: each
    /// object contributes its breakpoint-cumulative row to the per-node
    /// heaps and is dropped (the single linear sweep of the paper, recast;
    /// `O(m · #nodes)` pushes), so peak memory is `O(r·kmax)` heaps plus
    /// one curve — the dataset is never materialized.
    pub fn build<I>(env: Env, objects: I, breakpoints: Breakpoints, kmax: usize) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: Borrow<TemporalObject>,
    {
        if kmax == 0 {
            return Err(CoreError::BadQuery("kmax must be at least 1".into()));
        }
        let r = breakpoints.len();
        let gaps = r - 1;
        let pad = gaps.next_power_of_two().max(1);
        let total_nodes = 2 * pad - 1;
        let block = env.block_size();
        let blocks_per_list = ((kmax * ENTRY_LEN) as u64).div_ceil(block as u64);

        // Node spans in heap order.
        let mut nodes = Vec::with_capacity(total_nodes);
        build_spans(0, 0, pad as u32, gaps as u32, total_nodes, &mut nodes);

        let mut heaps: Vec<BinaryHeap<WorstFirst>> = Vec::with_capacity(total_nodes);
        heaps.resize_with(total_nodes, BinaryHeap::new);
        for o in objects {
            let o: &TemporalObject = o.borrow();
            let row = breakpoints.cums_at(&o.curve);
            for (ni, node) in nodes.iter().enumerate() {
                if node.lo >= node.hi {
                    continue; // dead padding node
                }
                let s = row[node.hi as usize] - row[node.lo as usize];
                capped_push(&mut heaps[ni], kmax, s, o.id);
            }
        }

        // Persist the lists.
        let lists = env.create_file("q2_lists")?;
        let mut buf = vec![0u8; block];
        for (ni, heap) in heaps.into_iter().enumerate() {
            if nodes[ni].lo >= nodes[ni].hi {
                nodes[ni].list_start = NO_LIST;
                continue;
            }
            let entries = heap_into_desc(heap);
            let start = lists.allocate(blocks_per_list)?;
            crate::query1::write_list(&lists, &mut buf, start, kmax, &entries)?;
            nodes[ni].list_start = start;
        }

        // Breakpoint directory tree (for IO-honest snapping).
        let mut loader = BPlusTree::bulk_loader(env.create_file("q2_bp")?, 4)?;
        for (j, &b) in breakpoints.points().iter().enumerate() {
            loader.push(b, &(j as u32).to_le_bytes())?;
        }
        let bp_tree = loader.finish()?;
        Ok(Self { env, breakpoints, bp_tree, nodes, lists, kmax, blocks_per_list })
    }

    /// Maximum `k` this index can answer.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// The breakpoints this index snaps to.
    pub fn breakpoints(&self) -> &Breakpoints {
        &self.breakpoints
    }

    /// Storage environment (shared IO counter).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Number of dyadic nodes with materialized lists.
    pub fn num_live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.list_start != NO_LIST).count()
    }

    /// Snap `t` to a breakpoint index through the directory tree.
    fn snap_via_tree(&self, t: f64) -> Result<Option<usize>> {
        let cur = self.bp_tree.seek(t)?;
        if cur.valid() {
            Ok(Some(u32::from_le_bytes(cur.payload().try_into().expect("4")) as usize))
        } else {
            Ok(None)
        }
    }

    /// The candidate set `K` for a query: summed visible scores per object
    /// over the ≤ `2 log r` dyadic pieces (each contributing its top-`k`).
    /// Returns `None` when the snapped interval is empty. Public within the
    /// crate so APPX2+ can re-score the same candidates exactly.
    pub(crate) fn candidates(
        &self,
        t1: f64,
        t2: f64,
        k: usize,
    ) -> Result<Option<HashMap<ObjectId, f64>>> {
        let j1 = match self.snap_via_tree(t1)? {
            Some(j) => j,
            None => return Ok(None), // t1 beyond T
        };
        let j2 = match self.snap_via_tree(t2)? {
            Some(j) => j,
            None => self.breakpoints.len() - 1, // clamp: B(t2) = T
        };
        if j2 <= j1 {
            // Degenerate snapped interval: cover the single gap at j1 (both
            // endpoint changes stay within the εM bound; cf. QUERY1).
            if j1 + 1 >= self.breakpoints.len() {
                return Ok(None);
            }
            return self.gather(j1, j1 + 1, k).map(Some);
        }
        self.gather(j1, j2, k).map(Some)
    }

    /// Union the top-`k` prefixes of the canonical cover of gaps
    /// `[g1, g2)`, summing duplicate objects' scores.
    fn gather(&self, g1: usize, g2: usize, k: usize) -> Result<HashMap<ObjectId, f64>> {
        let mut pieces = Vec::new();
        canonical_cover(&self.nodes, 0, g1 as u32, g2 as u32, &mut pieces);
        let mut cand: HashMap<ObjectId, f64> = HashMap::new();
        for ni in pieces {
            let node = self.nodes[ni];
            if node.list_start == NO_LIST {
                continue;
            }
            let entries =
                crate::query1::read_list(&self.lists, node.list_start, self.blocks_per_list, k)?;
            for (id, s) in entries {
                *cand.entry(id).or_insert(0.0) += s;
            }
        }
        Ok(cand)
    }
}

/// Fill `nodes` (heap order) with each node's `[lo, hi)` real-gap span.
fn build_spans(idx: usize, lo: u32, width: u32, gaps: u32, total: usize, nodes: &mut Vec<Node>) {
    if nodes.len() <= idx {
        nodes.resize(total, Node { lo: 0, hi: 0, list_start: NO_LIST });
    }
    nodes[idx] = Node { lo: lo.min(gaps), hi: (lo + width).min(gaps), list_start: NO_LIST };
    if width > 1 {
        let half = width / 2;
        build_spans(2 * idx + 1, lo, half, gaps, total, nodes);
        build_spans(2 * idx + 2, lo + half, half, gaps, total, nodes);
    }
}

/// Canonical segment-tree cover of `[g1, g2)`: at most `2 log r` nodes.
fn canonical_cover(nodes: &[Node], idx: usize, g1: u32, g2: u32, out: &mut Vec<usize>) {
    let node = nodes[idx];
    // Use the *padded* span for descent decisions.
    let (a, b) = padded_span(nodes.len(), idx);
    if b <= g1 || a >= g2 {
        return;
    }
    if g1 <= a && b <= g2 {
        if node.lo < node.hi {
            out.push(idx);
        }
        return;
    }
    canonical_cover(nodes, 2 * idx + 1, g1, g2, out);
    canonical_cover(nodes, 2 * idx + 2, g1, g2, out);
}

/// The padded `[a, b)` gap span of heap node `idx` in a tree with
/// `total = 2·pad − 1` nodes.
fn padded_span(total: usize, idx: usize) -> (u32, u32) {
    let pad = total.div_ceil(2);
    // depth and offset of idx in the implicit heap
    let depth = (idx + 1).ilog2();
    let first_at_depth = (1usize << depth) - 1;
    let offset = idx - first_at_depth;
    let width = (pad >> depth) as u32;
    ((offset as u32) * width, (offset as u32 + 1) * width)
}

impl RankMethod for Query2Index {
    fn name(&self) -> String {
        "QUERY2".into()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        check_interval(t1, t2)?;
        if k > self.kmax {
            return Err(CoreError::BadQuery(format!(
                "k = {k} exceeds kmax = {} this index was built for",
                self.kmax
            )));
        }
        let cand = match self.candidates(t1, t2, k)? {
            Some(c) => c,
            None => return Ok(TopK::from_ranked(Vec::new())),
        };
        let top = top_k_from_scores(cand.into_iter(), k);
        Ok(match agg {
            AggKind::Avg if t2 > t1 => top.into_avg(t2 - t1),
            _ => top,
        })
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

    fn build(r: usize, kmax: usize) -> (crate::TemporalSet, Query2Index) {
        let set = small_set();
        let bp = Breakpoints::b2_with_count(&set, r, B2Construction::Efficient).unwrap();
        let env = Env::mem(StoreConfig::default());
        let idx = Query2Index::build(env, set.objects(), bp, kmax).unwrap();
        (set, idx)
    }

    #[test]
    fn dyadic_node_count_is_linear_in_r() {
        let (_, idx) = build(24, 4);
        let r = idx.breakpoints().len();
        assert!(
            idx.num_live_nodes() <= 2 * r + (r as f64).log2() as usize + 2,
            "live nodes {} vs bound for r = {r}",
            idx.num_live_nodes()
        );
    }

    #[test]
    fn canonical_cover_is_disjoint_and_complete() {
        let (_, idx) = build(20, 4);
        let gaps = idx.breakpoints().len() - 1;
        let pad = gaps.next_power_of_two();
        for g1 in 0..gaps {
            for g2 in g1 + 1..=gaps {
                let mut pieces = Vec::new();
                canonical_cover(&idx.nodes, 0, g1 as u32, g2 as u32, &mut pieces);
                // Bound: ≤ 2 log2(pad) pieces.
                let bound = 2 * (pad.max(2) as f64).log2().ceil() as usize + 2;
                assert!(pieces.len() <= bound, "[{g1},{g2}): {} pieces", pieces.len());
                // Disjoint and exactly covering [g1, g2).
                let mut covered: Vec<(u32, u32)> =
                    pieces.iter().map(|&ni| (idx.nodes[ni].lo, idx.nodes[ni].hi)).collect();
                covered.sort();
                let mut at = g1 as u32;
                for (lo, hi) in covered {
                    assert_eq!(lo, at, "gap in cover of [{g1},{g2})");
                    at = hi;
                }
                assert_eq!(at, g2 as u32, "cover of [{g1},{g2}) ends early");
            }
        }
    }

    #[test]
    fn finds_heavy_hitters() {
        // On [4, 8] object o1 carries ~4× the mass of the runner-up, so it
        // must be the top-1 of every dyadic piece it appears in and win.
        // (On wider windows QUERY2 may legitimately miss a diffuse winner —
        // that is exactly the 2 log r factor; see guarantee_eps_2logr.)
        let (set, idx) = build(24, 6);
        let exact = set.top_k_bruteforce(4.0, 8.0, 1);
        let approx = idx.top_k(4.0, 8.0, 1, AggKind::Sum).unwrap();
        assert_eq!(exact.ids(), approx.ids());
        assert_eq!(exact.ids(), vec![1]);
    }

    #[test]
    fn guarantee_eps_2logr() {
        // Definition 2 with α = 2 log r: σ̃_j ≥ σ_A(j)/α − εM and
        // σ̃_j ≤ σ_A(j) + εM at every rank.
        let (set, idx) = build(24, 6);
        let bp = idx.breakpoints();
        let em = bp.eps() * bp.mass();
        let alpha = 2.0 * (bp.len() as f64).log2().max(1.0);
        for &(a, b) in &[(1.0, 9.0), (0.0, 20.0), (4.0, 16.0), (2.0, 18.0)] {
            let approx = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            let exact = set.top_k_bruteforce(a, b, 4);
            for j in 0..approx.len().min(exact.len()) {
                let (_, sa) = approx.rank(j);
                let (_, se) = exact.rank(j);
                let slack = 1e-9 * (1.0 + se.abs());
                assert!(
                    sa >= se / alpha - em - slack,
                    "[{a},{b}] rank {j}: {sa} < {se}/{alpha} − εM({em})"
                );
                assert!(sa <= se + em + slack, "[{a},{b}] rank {j}: {sa} > {se} + εM({em})");
            }
        }
    }

    #[test]
    fn candidate_set_bounded_by_2klogr() {
        let (_, idx) = build(24, 8);
        let k = 4;
        let cand = idx.candidates(1.0, 19.0, k).unwrap().unwrap();
        let pad = (idx.breakpoints().len() - 1).next_power_of_two();
        let bound = 2 * k * (pad.max(2) as f64).log2().ceil() as usize + 2 * k;
        assert!(cand.len() <= bound, "|K| = {} exceeds 2k log r ≈ {bound}", cand.len());
    }

    #[test]
    fn interval_past_domain_is_empty() {
        let (_, idx) = build(12, 4);
        assert!(idx.top_k(1e9, 2e9, 3, AggKind::Sum).unwrap().is_empty());
    }

    #[test]
    fn k_beyond_kmax_is_rejected() {
        let (_, idx) = build(12, 4);
        assert!(idx.top_k(0.0, 10.0, 9, AggKind::Sum).is_err());
    }

    #[test]
    fn index_is_much_smaller_than_query1() {
        let set = small_set();
        let bp = Breakpoints::b2_with_count(&set, 32, B2Construction::Efficient).unwrap();
        let env = || Env::mem(StoreConfig::default());
        let q1 = Query1Index::build(env(), set.objects(), bp.clone(), 16).unwrap();
        let q2 = Query2Index::build(env(), set.objects(), bp, 16).unwrap();
        assert!(
            q2.size_bytes() * 2 < q1.size_bytes(),
            "Q2 ({}) should be far smaller than Q1 ({})",
            q2.size_bytes(),
            q1.size_bytes()
        );
    }

    use crate::query1::Query1Index;
}
