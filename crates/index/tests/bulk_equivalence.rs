//! Bulk-built == insert-built equivalence (ISSUE 6): the bottom-up bulk
//! loaders exist so frozen generations can be stacked from sorted runs at
//! fill 1.0 — but they must be *observationally identical* to the
//! incremental construction they replace. For arbitrary inputs, a
//! bulk-loaded structure and an insert/append-built one over the same
//! data must answer every scan, seek, and stab the same way. Case counts
//! honour `PROPTEST_CASES` like every property suite in the workspace.

use chronorank_index::{BPlusTree, BulkLoader, IntervalBulkLoader, IntervalEntry, IntervalTree};
use chronorank_storage::{Env, StoreConfig};
use proptest::prelude::*;

fn env() -> Env {
    // Small blocks → multi-layer trees even at a few dozen entries, so
    // the bottom-up inner-node stacking is actually exercised.
    Env::mem(StoreConfig { block_size: 256, pool_capacity: 32 })
}

/// Full scan as `(key bits, payload)` pairs — bitwise, so -0.0 vs 0.0 or
/// any rounding drift between the two builds would fail loudly.
fn scan(tree: &BPlusTree) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    let mut cur = tree.cursor_first().unwrap();
    while cur.valid() {
        out.push((cur.key().to_bits(), cur.payload().to_vec()));
        cur.advance().unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// B+-tree: a bulk load of the sorted keys and a plain insert loop
    /// over the same (unique-key) data produce identical scans and agree
    /// on every lower-bound seek.
    #[test]
    fn btree_bulk_load_equals_insert_build(
        raw in proptest::collection::vec(-500.0f64..500.0, 1..160),
        probes in proptest::collection::vec(-600.0f64..600.0, 1..12),
    ) {
        // Unique keys, so the two builds must agree pair-for-pair (with
        // duplicates the scan order of equal keys is a free choice).
        let mut keys = raw;
        keys.sort_by(f64::total_cmp);
        keys.dedup();

        let e = env();
        let mut loader = BulkLoader::new(e.create_file("bulk").unwrap(), 8).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            loader.push(k, &(i as u64).to_le_bytes()).unwrap();
        }
        let bulk = loader.finish().unwrap();

        let mut insert = BPlusTree::create(e.create_file("ins").unwrap(), 8).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            insert.insert(k, &(i as u64).to_le_bytes()).unwrap();
        }

        prop_assert_eq!(bulk.len(), insert.len());
        prop_assert_eq!(scan(&bulk), scan(&insert));
        prop_assert_eq!(
            bulk.last_entry().unwrap(), insert.last_entry().unwrap()
        );
        for &p in &probes {
            let a = bulk.seek(p).unwrap();
            let b = insert.seek(p).unwrap();
            prop_assert_eq!(a.valid(), b.valid(), "probe {}", p);
            if a.valid() {
                prop_assert_eq!(a.key().to_bits(), b.key().to_bits(), "probe {}", p);
                prop_assert_eq!(a.payload(), b.payload(), "probe {}", p);
            }
        }
    }

    /// Interval tree: a lo-sorted stream through [`IntervalBulkLoader`],
    /// the vec-consuming [`IntervalTree::build`], and an append-built tree
    /// (empty build + one append per entry) all report the same stab set
    /// at every probe.
    #[test]
    fn interval_bulk_load_equals_append_build(
        spans in proptest::collection::vec((0.0f64..900.0, 0.0f64..120.0), 1..120),
        probes in proptest::collection::vec(-50.0f64..1100.0, 1..16),
    ) {
        let entries: Vec<IntervalEntry> = spans
            .iter()
            .enumerate()
            .map(|(i, &(lo, len))| IntervalEntry {
                lo,
                hi: lo + len,
                payload: (i as u32).to_le_bytes().to_vec(),
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
        let built =
            IntervalTree::build(e.create_file("vec").unwrap(), 4, entries.clone()).unwrap();

        // Append path: every entry lands in the tail, the structure the
        // incremental (§4) ingest writes into.
        let mut appended =
            IntervalTree::build(e.create_file("app").unwrap(), 4, Vec::new()).unwrap();
        for en in &entries {
            appended.append(en.lo, en.hi, &en.payload).unwrap();
        }

        prop_assert_eq!(streamed.len(), entries.len() as u64);
        prop_assert_eq!(built.len(), entries.len() as u64);
        prop_assert_eq!(appended.len(), entries.len() as u64);
        for &t in &probes {
            let stab = |tree: &IntervalTree| {
                let mut got: Vec<(u64, u64, u32)> = Vec::new();
                tree.stab(t, &mut |lo, hi, p| {
                    got.push((
                        lo.to_bits(),
                        hi.to_bits(),
                        u32::from_le_bytes(p.try_into().unwrap()),
                    ));
                })
                .unwrap();
                got.sort();
                got
            };
            let a = stab(&streamed);
            prop_assert_eq!(&a, &stab(&built), "stab at {}", t);
            prop_assert_eq!(&a, &stab(&appended), "stab at {}", t);
        }
    }
}
