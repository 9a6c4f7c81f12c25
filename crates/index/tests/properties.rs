//! Property-based tests for the index substrates: a bulk-loaded B+-tree
//! must behave exactly like a sorted multimap, and an interval tree like
//! a brute-force interval list, for arbitrary inputs. Case counts honour
//! `PROPTEST_CASES` like every property suite in the workspace.

use chronorank_index::{BulkLoader, IntervalEntry, IntervalTree};
use chronorank_storage::{Env, StoreConfig};
use proptest::prelude::*;

fn env() -> Env {
    // Small blocks → multi-level trees even at a few dozen entries, so
    // the bottom-up inner-node stacking is actually exercised.
    Env::mem(StoreConfig { block_size: 256, pool_capacity: 32 })
}

fn payload(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Arbitrary inserted keys, duplicates included, bulk-loaded in key
    /// order: a full scan returns the model — the keys stably sorted, each with its
    /// tag — pair for pair and bit for bit; every seek lands on the first
    /// model entry with key ≥ the probe (the leftmost duplicate), and
    /// `last_entry` is the model's last.
    #[test]
    fn btree_inserts_behave_like_sorted_multimap(
        keys in proptest::collection::vec(-1000.0f64..1000.0, 0..160),
        probes in proptest::collection::vec(-1100.0f64..1100.0, 1..12),
    ) {
        // Quantize to provoke duplicate keys.
        let mut model: Vec<(f64, u64)> =
            (0..).zip(&keys).map(|(i, &k)| ((k * 0.1).round() * 10.0, i)).collect();
        model.sort_by(|a, b| a.0.total_cmp(&b.0));
        let e = env();
        let mut loader = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        for &(k, tag) in &model {
            loader.push(k, &payload(tag)).unwrap();
        }
        let tree = loader.finish().unwrap();
        prop_assert_eq!(tree.len(), model.len() as u64);
        let bits = |(k, tag): (f64, u64)| (k.to_bits(), tag);
        let tag_of = |p: &[u8]| u64::from_le_bytes(p.try_into().unwrap());
        let mut got = Vec::new();
        let mut cur = tree.cursor_first().unwrap();
        while cur.valid() {
            got.push(bits((cur.key(), tag_of(cur.payload()))));
            cur.advance().unwrap();
        }
        prop_assert_eq!(got, model.iter().copied().map(bits).collect::<Vec<_>>());
        for &p in &probes {
            let cur = tree.seek(p).unwrap();
            match model.iter().find(|&&(k, _)| k >= p) {
                Some(&want) => {
                    prop_assert!(cur.valid(), "probe {} expected {:?}", p, want);
                    prop_assert_eq!(bits((cur.key(), tag_of(cur.payload()))), bits(want));
                }
                None => prop_assert!(!cur.valid(), "probe {} expected end", p),
            }
        }
        let last = tree.last_entry().unwrap().map(|(k, p)| bits((k, tag_of(&p))));
        prop_assert_eq!(last, model.last().copied().map(bits));
    }

    /// Interval tree stabbing equals brute force: a stab reports every
    /// entry whose closed interval contains the probe, bit for bit.
    /// (`bulk_equivalence.rs` checks that the stream-loaded tree stabs
    /// like this one.)
    #[test]
    fn interval_tree_equals_bruteforce(
        spans in proptest::collection::vec((0.0f64..900.0, 0.0f64..120.0), 1..120),
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
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries.clone()).unwrap();
        prop_assert_eq!(tree.len(), entries.len() as u64);
        let tag = |p: &[u8]| u32::from_le_bytes(p.try_into().unwrap());
        for &t in &probes {
            let mut got: Vec<(u64, u64, u32)> = Vec::new();
            tree.stab(t, &mut |lo, hi, p| got.push((lo.to_bits(), hi.to_bits(), tag(p)))).unwrap();
            got.sort();
            let mut want: Vec<(u64, u64, u32)> = entries
                .iter()
                .filter(|e| e.lo <= t && t <= e.hi)
                .map(|e| (e.lo.to_bits(), e.hi.to_bits(), tag(&e.payload)))
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
