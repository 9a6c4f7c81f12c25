//! Property-based tests for the index substrates: the B+-tree must behave
//! exactly like a sorted multimap, and the interval tree like a brute-force
//! interval list, for arbitrary operation sequences.

use chronorank_index::{BPlusTree, BulkLoader, IntervalEntry, IntervalTree};
use chronorank_storage::{Env, StoreConfig};
use proptest::prelude::*;

fn env() -> Env {
    // Small blocks → deep trees and frequent splits.
    Env::mem(StoreConfig { block_size: 256, pool_capacity: 32 })
}

fn payload(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

/// Reference model: key-sorted (stable by insertion order for duplicates)
/// list of (key, tag).
fn model_sorted(items: &[(f64, u64)]) -> Vec<(f64, u64)> {
    let mut v: Vec<(f64, u64)> = items.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arbitrary inserts (possibly duplicated keys): a full scan returns
    /// exactly the multiset in key order; seeks land on lower bounds.
    #[test]
    fn btree_inserts_behave_like_sorted_multimap(
        keys in proptest::collection::vec(-1000.0f64..1000.0, 1..120),
        probes in proptest::collection::vec(-1100.0f64..1100.0, 1..12),
    ) {
        let e = env();
        let mut tree = BPlusTree::create(e.create_file("t").unwrap(), 8).unwrap();
        let mut items = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            // Quantize to provoke duplicate keys.
            let k = (k * 0.1).round() * 10.0;
            tree.insert(k, &payload(i as u64)).unwrap();
            items.push((k, i as u64));
        }
        let want = model_sorted(&items);
        // Full scan.
        let mut got = Vec::new();
        let mut cur = tree.cursor_first().unwrap();
        while cur.valid() {
            got.push((cur.key(), u64::from_le_bytes(cur.payload().try_into().unwrap())));
            cur.advance().unwrap();
        }
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.0, w.0, "key order mismatch");
        }
        // The multiset of tags must match exactly.
        let mut gt: Vec<u64> = got.iter().map(|&(_, t)| t).collect();
        let mut wt: Vec<u64> = want.iter().map(|&(_, t)| t).collect();
        gt.sort();
        wt.sort();
        prop_assert_eq!(gt, wt);
        // Lower-bound probes.
        for &p in &probes {
            let cur = tree.seek(p).unwrap();
            let model = want.iter().find(|&&(k, _)| k >= p);
            match model {
                Some(&(k, _)) => {
                    prop_assert!(cur.valid(), "probe {} expected {}", p, k);
                    prop_assert_eq!(cur.key(), k, "probe {}", p);
                }
                None => prop_assert!(!cur.valid(), "probe {} expected end", p),
            }
        }
    }

    /// Bulk load + subsequent inserts interleave correctly.
    #[test]
    fn btree_bulk_then_insert(
        base in proptest::collection::vec(0.0f64..500.0, 1..150),
        extra in proptest::collection::vec(0.0f64..500.0, 0..40),
    ) {
        let e = env();
        let mut sorted = base.clone();
        sorted.sort_by(f64::total_cmp);
        let mut loader = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        let mut items = Vec::new();
        for (i, &k) in sorted.iter().enumerate() {
            loader.push(k, &payload(i as u64)).unwrap();
            items.push((k, i as u64));
        }
        let mut tree = loader.finish().unwrap();
        for (j, &k) in extra.iter().enumerate() {
            tree.insert(k, &payload(10_000 + j as u64)).unwrap();
            items.push((k, 10_000 + j as u64));
        }
        prop_assert_eq!(tree.len(), items.len() as u64);
        let want = model_sorted(&items);
        let mut cur = tree.cursor_first().unwrap();
        let mut n = 0;
        let mut prev = f64::NEG_INFINITY;
        while cur.valid() {
            prop_assert!(cur.key() >= prev);
            prev = cur.key();
            n += 1;
            cur.advance().unwrap();
        }
        prop_assert_eq!(n, want.len());
        // last_entry agrees with the model maximum.
        let (k, _) = tree.last_entry().unwrap().unwrap();
        prop_assert_eq!(k, want.last().unwrap().0);
    }

    /// Interval tree stabbing equals brute force, including after appends.
    #[test]
    fn interval_tree_equals_bruteforce(
        spans in proptest::collection::vec((0.0f64..900.0, 0.0f64..120.0), 1..120),
        appends in proptest::collection::vec((0.0f64..900.0, 0.0f64..120.0), 0..20),
        probes in proptest::collection::vec(-50.0f64..1100.0, 1..16),
    ) {
        let e = env();
        let entries: Vec<IntervalEntry> = spans
            .iter()
            .enumerate()
            .map(|(i, &(lo, len))| IntervalEntry {
                lo,
                hi: lo + len,
                payload: (i as u32).to_le_bytes().to_vec(),
            })
            .collect();
        let mut reference: Vec<(f64, f64, u32)> =
            entries.iter().map(|e| (e.lo, e.hi, u32::from_le_bytes(e.payload[..4].try_into().unwrap()))).collect();
        let mut tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        for (j, &(lo, len)) in appends.iter().enumerate() {
            let tag = 100_000 + j as u32;
            tree.append(lo, lo + len, &tag.to_le_bytes()).unwrap();
            reference.push((lo, lo + len, tag));
        }
        for &t in &probes {
            let mut got = Vec::new();
            tree.stab(t, &mut |_, _, p| {
                got.push(u32::from_le_bytes(p.try_into().unwrap()));
            }).unwrap();
            got.sort();
            let mut want: Vec<u32> = reference
                .iter()
                .filter(|&&(lo, hi, _)| lo <= t && t <= hi)
                .map(|&(_, _, tag)| tag)
                .collect();
            want.sort();
            prop_assert_eq!(got, want, "stab at {}", t);
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-thread snapshot reads (ISSUE 5)
// ---------------------------------------------------------------------------

#[test]
fn index_structures_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<chronorank_index::BPlusTree>();
    assert_send_sync::<chronorank_index::IntervalTree>();
}

#[test]
fn concurrent_stabs_over_one_shared_interval_tree_agree() {
    use chronorank_index::{IntervalEntry, IntervalTree};
    let env = Env::mem(StoreConfig { block_size: 512, pool_capacity: 8 });
    let entries: Vec<IntervalEntry> = (0..300)
        .map(|i| {
            let lo = (i % 37) as f64;
            IntervalEntry { lo, hi: lo + 1.0 + (i % 5) as f64, payload: vec![i as u8; 4] }
        })
        .collect();
    let tree = IntervalTree::build(env.create_file("shared").unwrap(), 4, entries.clone()).unwrap();
    // Ground truth on one thread, then 8 threads stab the SAME tree (tiny
    // pool: they contend on frames and force concurrent evict/reload).
    let expected: Vec<usize> = (0..40)
        .map(|t| {
            let t = t as f64;
            entries.iter().filter(|e| e.lo <= t && t <= e.hi).count()
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (tree, expected) = (&tree, &expected);
            scope.spawn(move || {
                for (i, want) in expected.iter().enumerate() {
                    let mut got = 0usize;
                    tree.stab(i as f64, &mut |_, _, _| got += 1).unwrap();
                    assert_eq!(got, *want, "stab at t={i}");
                }
            });
        }
    });
}
