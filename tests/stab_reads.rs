//! Tier-1 read gate (ISSUE 18): a cold stab of the interval tree reads the
//! leaves its answer lives in, not every leaf between `t − (longest
//! segment nearby)` and `t`. On a heavy-tailed set the loader's `hi`-packed
//! runs must at least halve what pure `lo`-order packing reads — a count
//! this test derives from the same entries, so it fails on any loader that
//! goes back to `lo` order.

use chronorank::index::IntervalBulkLoader;
use chronorank::storage::{Env, StoreConfig};
use chronorank::workloads::{DatasetGenerator, MemeConfig, MemeGenerator};

const BLOCK: usize = 4096;
/// EXACT3's entry: two `f64` keys and a 28-byte payload, after a 16-byte
/// leaf header; an inner node holds 24-byte fences after 8.
const PAYLOAD: usize = 28;
const PER_LEAF: usize = (BLOCK - 16) / (16 + PAYLOAD);
const PER_INNER: usize = (BLOCK - 8) / 24;

/// The `(min_lo, max_hi)` fences of a fill-1.0 tree whose leaves hold
/// `entries` (sorted by `lo`) in that order — every level, root last. A
/// stab at `t` reads the nodes with `min_lo ≤ t ≤ max_hi`.
fn lo_order_fences(entries: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let fence = |group: &[(f64, f64)]| {
        (group[0].0, group.iter().map(|e| e.1).fold(f64::NEG_INFINITY, f64::max))
    };
    let mut level: Vec<(f64, f64)> = entries.chunks(PER_LEAF).map(fence).collect();
    let mut all = level.clone();
    while level.len() > 1 {
        level = level.chunks(PER_INNER).map(fence).collect();
        all.extend(&level);
    }
    all
}

#[test]
fn a_cold_stab_reads_at_most_half_of_what_lo_order_packing_would() {
    let set = MemeGenerator::new(MemeConfig { objects: 4000, ..Default::default() }).generate_set();
    let mut entries: Vec<(f64, f64)> =
        set.objects().iter().flat_map(|o| o.curve.segments().map(|s| (s.t0, s.t1))).collect();
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));

    let env = Env::mem(StoreConfig { block_size: BLOCK, pool_capacity: 64 });
    let mut loader = IntervalBulkLoader::new(env.create_file("tree").unwrap(), PAYLOAD).unwrap();
    for &(lo, hi) in &entries {
        loader.push(lo, hi, &[0u8; PAYLOAD]).unwrap();
    }
    let tree = loader.finish().unwrap();
    let fences = lo_order_fences(&entries);

    let (t_min, t_max) = (set.t_min(), set.t_max());
    let (mut reads, mut lo_order, mut hits) = (0u64, 0usize, 0usize);
    for i in 0..100 {
        let t = t_min + (t_max - t_min) * (i as f64 + 0.5) / 100.0;
        tree.file().drop_cache().unwrap();
        env.reset_io();
        let mut stabbed = 0;
        tree.stab(t, &mut |_, _, _| stabbed += 1).unwrap();
        reads += env.io_stats().reads;
        assert_eq!(stabbed, entries.iter().filter(|e| e.0 <= t && t <= e.1).count(), "t={t}");
        hits += stabbed;
        lo_order += fences.iter().filter(|f| f.0 <= t && t <= f.1).count();
    }
    assert!(hits >= 100 * PER_LEAF, "the probes must have an output term: {hits} hits");
    assert!(
        2 * reads <= lo_order as u64,
        "100 cold stabs read {reads} blocks; lo-order packing visits {lo_order}"
    );
}
