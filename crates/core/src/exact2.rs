//! EXACT2 — a forest of per-object prefix-sum B+-trees (paper §2).
//!
//! For each object `o_i`, precompute the prefix sums
//! `σ_i(I_{i,ℓ}) = σ_i(t_{i,0}, t_{i,ℓ})` and bulk-load a B+-tree `T_i`
//! whose leaf entry `e_{i,ℓ}` is keyed by `t_{i,ℓ}` and stores
//! `(g_{i,ℓ}, σ_i(I_{i,ℓ}))`. A query computes each `σ_i(t1, t2)` with two
//! successor lookups and Eq. (2):
//!
//! ```text
//! σ_i(t1,t2) = σ_i(I_R) − σ_i(I_L) + σ_i(t1, t_L) − σ_i(t2, t_R)
//! ```
//!
//! Costs (Fig. 3): size `O(N/B)`, construction `O(Σ (n_i/B) log_B n_i)`,
//! query `O(Σ log_B n_i)` IOs, update `O(log_B n_i)`. The weakness the
//! paper calls out — and Figure 13 shows — is the `m` separate tree
//! traversals (and on a real filesystem, `m` file opens) per query, which
//! is why EXACT3 exists.

use crate::agg::AggKind;
use crate::error::Result;
use crate::object::{ObjectId, TemporalSet};
use crate::topk::{check_interval, top_k_from_scores, RankMethod, TopK};
use crate::IndexConfig;
use chronorank_curve::Segment;
use chronorank_index::BPlusTree;
use chronorank_storage::{Env, IoStats};

/// Leaf payload: `t_prev f64 | v_prev f64 | v_cur f64 | prefix f64`
/// (the key holds `t_cur`, the segment's right endpoint).
const PAYLOAD_LEN: usize = 32;

fn encode_payload(out: &mut [u8], t_prev: f64, v_prev: f64, v_cur: f64, prefix: f64) {
    out[0..8].copy_from_slice(&t_prev.to_le_bytes());
    out[8..16].copy_from_slice(&v_prev.to_le_bytes());
    out[16..24].copy_from_slice(&v_cur.to_le_bytes());
    out[24..32].copy_from_slice(&prefix.to_le_bytes());
}

fn decode_payload(key: f64, p: &[u8]) -> (Segment, f64) {
    let t_prev = f64::from_le_bytes(p[0..8].try_into().expect("8"));
    let v_prev = f64::from_le_bytes(p[8..16].try_into().expect("8"));
    let v_cur = f64::from_le_bytes(p[16..24].try_into().expect("8"));
    let prefix = f64::from_le_bytes(p[24..32].try_into().expect("8"));
    (Segment { t0: t_prev, v0: v_prev, t1: key, v1: v_cur }, prefix)
}

/// The EXACT2 index (see module docs).
pub struct Exact2 {
    env: Env,
    trees: Vec<BPlusTree>,
}

impl Exact2 {
    /// Build the forest: one prefix-sum B+-tree per object.
    pub fn build(set: &TemporalSet, config: IndexConfig) -> Result<Self> {
        // Per-object trees are small; a large shared pool would hide the
        // per-tree root IOs the paper's cost model charges. Give each file
        // a modest pool instead.
        let mut store = config.store;
        store.pool_capacity = store.pool_capacity.clamp(8, 64);
        let env = Env::mem(store);
        Self::build_in(env, set)
    }

    /// Build using a caller-supplied storage environment.
    pub fn build_in(env: Env, set: &TemporalSet) -> Result<Self> {
        let mut trees = Vec::with_capacity(set.num_objects());
        let mut payload = [0u8; PAYLOAD_LEN];
        for o in set.objects() {
            let file = env.create_file(&format!("exact2_{:08}", o.id))?;
            let mut loader = BPlusTree::bulk_loader(file, PAYLOAD_LEN)?;
            // One sweep computes prefix sums incrementally (the paper's
            // O(n_i/B) preprocessing).
            let mut prefix = 0.0f64;
            for seg in o.curve.segments() {
                prefix += seg.integral_full();
                encode_payload(&mut payload, seg.t0, seg.v0, seg.v1, prefix);
                loader.push(seg.t1, &payload)?;
            }
            trees.push(loader.finish()?);
        }
        Ok(Self { env, trees })
    }

    /// Cumulative integral of object `id` from its domain start to `t`
    /// (clamped), via one successor lookup + Eq. (1)'s clipped trapezoid.
    fn cumulative(&self, id: ObjectId, t: f64) -> Result<f64> {
        let tree = &self.trees[id as usize];
        let cur = tree.seek(t)?;
        if cur.valid() {
            let (seg, prefix) = decode_payload(cur.key(), cur.payload());
            // prefix = ∫ to seg.t1; subtract the part of the segment after t
            // (clipping handles t before the object's start: the whole
            // segment is subtracted, giving 0 together with prefix = area).
            Ok(prefix - seg.integral_clipped(t, seg.t1))
        } else {
            // t is past the object's end: cumulative = total mass, stored
            // in the last entry (O(log_B n_i) via the rightmost descent).
            match tree.last_entry()? {
                Some((_, p)) => Ok(f64::from_le_bytes(p[24..32].try_into().expect("8"))),
                None => Ok(0.0),
            }
        }
    }

    /// `σ_i(t1, t2)` for one object (Eq. (2)); public as the bitwise oracle
    /// for [`crate::PackedPrefix`], which APPX2+ re-scores from.
    pub fn score_one(&self, id: ObjectId, t1: f64, t2: f64) -> Result<f64> {
        if id as usize >= self.trees.len() {
            return Err(crate::CoreError::NoSuchObject(id));
        }
        Ok(self.cumulative(id, t2)? - self.cumulative(id, t1)?)
    }

    /// Append a new segment for `obj`: fetches `σ_i(I_{i,n_i})` from the
    /// last entry and inserts the new one in `O(log_B n_i)` IOs.
    pub fn append_segment(&mut self, obj: ObjectId, seg: Segment) -> Result<()> {
        let tree = self.trees.get_mut(obj as usize).ok_or(crate::CoreError::NoSuchObject(obj))?;
        let prev_prefix = match tree.last_entry()? {
            Some((_, p)) => f64::from_le_bytes(p[24..32].try_into().expect("8")),
            None => 0.0,
        };
        let mut payload = [0u8; PAYLOAD_LEN];
        encode_payload(&mut payload, seg.t0, seg.v0, seg.v1, prev_prefix + seg.integral_full());
        tree.insert(seg.t1, &payload)?;
        Ok(())
    }

    /// Number of per-object trees (`m`).
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

impl RankMethod for Exact2 {
    fn name(&self) -> String {
        "EXACT2".into()
    }

    fn top_k(&self, t1: f64, t2: f64, k: usize, agg: AggKind) -> Result<TopK> {
        check_interval(t1, t2)?;
        let mut scores = Vec::with_capacity(self.trees.len());
        for id in 0..self.trees.len() as ObjectId {
            scores.push((id, self.score_one(id, t1, t2)?));
        }
        let top = top_k_from_scores(scores.into_iter(), k);
        Ok(match agg {
            AggKind::Avg if t2 > t1 => top.into_avg(t2 - t1),
            _ => top,
        })
    }

    fn size_bytes(&self) -> u64 {
        self.trees.iter().map(|t| t.size_bytes()).sum()
    }

    fn io_stats(&self) -> IoStats {
        self.env.io_stats()
    }

    fn reset_io(&self) {
        self.env.reset_io()
    }

    fn drop_caches(&self) -> Result<()> {
        for t in &self.trees {
            t.file().drop_cache()?;
        }
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
        let idx = Exact2::build(&set, IndexConfig::default()).unwrap();
        assert_eq!(idx.num_trees(), set.num_objects());
        for &(a, b) in crate::test_support::INTERVALS {
            let want = set.top_k_bruteforce(a, b, 4);
            let got = idx.top_k(a, b, 4, AggKind::Sum).unwrap();
            assert_same_answer(&want, &got, &format!("EXACT2 [{a},{b}]"));
        }
    }

    #[test]
    fn score_one_equals_direct_integral() {
        let set = small_set();
        let idx = Exact2::build(&set, IndexConfig::default()).unwrap();
        for id in 0..set.num_objects() as ObjectId {
            for &(a, b) in crate::test_support::INTERVALS {
                let want = set.score(id, a, b).unwrap();
                let got = idx.score_one(id, a, b).unwrap();
                assert!(
                    (want - got).abs() <= 1e-9 * 1.0_f64.max(want.abs()),
                    "object {id} [{a},{b}]: want {want}, got {got}"
                );
            }
        }
    }

    #[test]
    fn eq2_identity_on_interior_interval() {
        // Directly verify the paper's Eq. (2) decomposition on o3.
        let set = small_set();
        let idx = Exact2::build(&set, IndexConfig::default()).unwrap();
        let c = &set.object(3).unwrap().curve;
        let (t1, t2) = (2.0, 11.0);
        let got = idx.score_one(3, t1, t2).unwrap();
        assert!((got - c.integral(t1, t2)).abs() < 1e-9);
    }

    #[test]
    fn update_then_query() {
        let mut set = small_set();
        let mut idx = Exact2::build(&set, IndexConfig::default()).unwrap();
        let end = set.object(2).unwrap().curve.end();
        let v_end = set.object(2).unwrap().curve.eval(end).unwrap();
        set.append_segment(2, end + 4.0, 50.0).unwrap();
        idx.append_segment(2, Segment::new(end, v_end, end + 4.0, 50.0)).unwrap();
        for &(a, b) in &[(end - 1.0, end + 4.0), (0.0, 40.0)] {
            let want = set.top_k_bruteforce(a, b, 3);
            let got = idx.top_k(a, b, 3, AggKind::Sum).unwrap();
            assert_same_answer(&want, &got, "EXACT2 after update");
        }
        assert!(idx.append_segment(99, Segment::new(0.0, 0.0, 1.0, 1.0)).is_err());
        assert!(idx.score_one(99, 0.0, 1.0).is_err());
    }

    #[test]
    fn query_ios_scale_with_m_not_n() {
        // The defining property of EXACT2: ~2 descents per object per query.
        let set = small_set();
        let idx = Exact2::build(&set, IndexConfig::default()).unwrap();
        idx.drop_caches().unwrap();
        idx.reset_io();
        idx.top_k(4.0, 8.0, 3, AggKind::Sum).unwrap();
        let reads = idx.io_stats().reads;
        // 10 objects, tiny trees: ≥ 1 read per object, well under N.
        assert!(reads >= set.num_objects() as u64, "reads = {reads}");
    }
}
