//! Bulk-built structures answer like the incremental construction they
//! replace: the bottom-up bulk loaders stack frozen trees from sorted runs
//! at fill 1.0, and what a reader observes must be what a tree that took
//! the same entries one at a time would report — a B+-tree routes every
//! seek to its lower bound, and both interval-tree build paths stab the
//! same sets. Case counts honour `PROPTEST_CASES` like every property
//! suite in the workspace.

use chronorank_index::{BulkLoader, IntervalBulkLoader, IntervalEntry, IntervalTree};
use chronorank_storage::{Env, StoreConfig};
use proptest::prelude::*;

fn env() -> Env {
    // Small blocks → multi-layer trees even at a few dozen entries, so
    // the bottom-up inner-node stacking is actually exercised.
    Env::mem(StoreConfig { block_size: 256, pool_capacity: 32 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// B+-tree over unique keys: a seek at every key lands on that key
    /// and its payload, a seek between two neighbours lands on the upper
    /// one, and a seek past the last key is the end — so every separator
    /// the loader stacked into the inner levels routes as an insert-built
    /// tree's would.
    #[test]
    fn btree_bulk_load_equals_insert_build(
        raw in proptest::collection::vec(-500.0f64..500.0, 1..400),
    ) {
        // On a quarter grid, so every midpoint below is exact.
        let mut keys: Vec<f64> = raw.iter().map(|&k| (k * 4.0).round() / 4.0).collect();
        keys.sort_by(f64::total_cmp);
        keys.dedup();

        let e = env();
        let mut loader = BulkLoader::new(e.create_file("bulk").unwrap(), 8).unwrap();
        for (i, &k) in (0u64..).zip(&keys) {
            loader.push(k, &i.to_le_bytes()).unwrap();
        }
        let tree = loader.finish().unwrap();
        prop_assert_eq!(tree.len(), keys.len() as u64);

        let seek = |p: f64| {
            let cur = tree.seek(p).unwrap();
            cur.valid().then(|| {
                (cur.key().to_bits(), u64::from_le_bytes(cur.payload().try_into().unwrap()))
            })
        };
        for (i, &k) in (0u64..).zip(&keys) {
            prop_assert_eq!(seek(k), Some((k.to_bits(), i)), "seek at key {}", k);
            let next = keys.get(i as usize + 1).map(|&n| (n.to_bits(), i + 1));
            let mid = keys.get(i as usize + 1).map_or(k + 1.0, |&n| k + (n - k) / 2.0);
            prop_assert_eq!(seek(mid), next, "seek between {} and its successor", k);
        }
    }

    /// Interval tree: a lo-sorted stream through [`IntervalBulkLoader`]
    /// and the vec-consuming [`IntervalTree::build`] report the same stab
    /// set, bit for bit, at every probe.
    #[test]
    fn interval_bulk_load_equals_append_build(
        spans in proptest::collection::vec((0.0f64..900.0, 0.0f64..120.0), 1..120),
        probes in proptest::collection::vec(-50.0f64..1100.0, 1..16),
    ) {
        let entries: Vec<IntervalEntry> = (0u32..)
            .zip(&spans)
            .map(|(i, &(lo, len))| IntervalEntry {
                lo,
                hi: lo + len,
                payload: i.to_le_bytes().to_vec(),
            })
            .collect();

        let e = env();
        // Stream path: sorted lo order into the loader, as EXACT3's
        // external sort drives it.
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        let mut loader = IntervalBulkLoader::new(e.create_file("stream").unwrap(), 4).unwrap();
        for en in &sorted {
            loader.push(en.lo, en.hi, &en.payload).unwrap();
        }
        let streamed = loader.finish().unwrap();
        // Vec path (sorts internally).
        let built = IntervalTree::build(e.create_file("vec").unwrap(), 4, entries.clone()).unwrap();

        prop_assert_eq!(streamed.len(), entries.len() as u64);
        prop_assert_eq!(built.len(), entries.len() as u64);
        for &t in &probes {
            let stab = |tree: &IntervalTree| {
                let mut got: Vec<(u64, u64, u32)> = Vec::new();
                tree.stab(t, &mut |lo, hi, p| {
                    got.push((lo.to_bits(), hi.to_bits(), u32::from_le_bytes(p.try_into().unwrap())));
                })
                .unwrap();
                got.sort();
                got
            };
            prop_assert_eq!(stab(&streamed), stab(&built), "stab at {}", t);
        }
    }
}
