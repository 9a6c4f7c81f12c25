//! Tier-1 read gate: a cold stab of the
//! interval tree reads the leaves its answer lives in, not every leaf
//! between `t − (longest segment nearby)` and `t`. On a heavy-tailed set
//! the loader's `hi`-packed runs, with outlier-long segments in runs of
//! their own length band, must read at most a third of what pure
//! `lo`-order packing reads — a count this test derives from the same
//! entries, cut into leaves of the same packed format. One stream of runs
//! (every segment in the main run) read 1,377 blocks in 100 stabs against
//! 3,350 at 44 bytes an entry and failed it; `lo` order fails it by far.
//! The stabs sit at 2,000 probe times: 100 moved 962 → 970 between two
//! loaders whose leaves 2,000 probes read 7.016 → 7.013 of a stab, so
//! fewer cannot rank two layouts.
//!
//! The entries carry EXACT3's payload (`v0 | v1 | prefix | obj`), so the
//! leaves pack as EXACT3's do: all-zero payloads would pack to nothing and
//! measure a tree no index builds.
//!
//! Beside it, what makes a leaf read worth more: the row bytes EXACT3's
//! leaves spend on an entry, on an `exact_cold`-shaped Temp shard and on
//! the Meme set above. Each lane of a row is its word less the leaf's
//! minimum of that lane, in as many bits as the leaf needs, where a leaf
//! of whole records spent 44.0 bytes on each and one of XOR-coded bytes
//! 35.50 on Temp and 37.95 on Meme.
//!
//! The counts repeat exactly, so they are printed as `pinned:` lines before
//! they are asserted; `ci.sh`'s `tier1` stage echoes them into its summary.

use chronorank::core::{Exact3, IndexConfig, TemporalSet};
use chronorank::index::IntervalBulkLoader;
use chronorank::storage::{Env, StoreConfig};
use chronorank::workloads::{
    DatasetGenerator, MemeConfig, MemeGenerator, TempConfig, TempGenerator,
};

const BLOCK: usize = 4096;
/// EXACT3's entry: two `f64` keys and a 28-byte payload.
const ENTRY: usize = 16 + 28;
/// An entry's 8-byte lanes, the last one 4 bytes.
const LANES: usize = ENTRY.div_ceil(8);
/// A packed leaf: magic, count, a width in bits per lane and the lanes'
/// minima, then rows; at most twice the entries 44-byte rows fit.
const LEAF_BODY: usize = BLOCK - (8 + LANES + ENTRY);
const LEAF_CAP: usize = 2 * (LEAF_BODY / ENTRY);
/// An inner node holds 24-byte fences after 8.
const PER_INNER: usize = (BLOCK - 8) / 24;
/// Probe times, spread evenly over the set's domain.
const PROBES: usize = 2000;

/// Lane `j` of `entry`, zero-extended.
fn word(entry: &[u8; ENTRY], j: usize) -> u64 {
    let mut w = [0u8; 8];
    let lane = &entry[8 * j..(8 * j + 8).min(ENTRY)];
    w[..lane.len()].copy_from_slice(lane);
    u64::from_le_bytes(w)
}

/// `entries` (sorted by `lo`) cut into packed leaves in that order: a leaf
/// takes the next entry while its rows — each lane as many bits as its
/// largest word less its least, over the leaf — still fit.
fn lo_order_leaves(entries: &[[u8; ENTRY]]) -> Vec<&[[u8; ENTRY]]> {
    let (mut leaves, mut start) = (Vec::new(), 0);
    let (mut min, mut max) = ([u64::MAX; LANES], [0u64; LANES]);
    for (i, e) in entries.iter().enumerate() {
        let lower: [u64; LANES] = std::array::from_fn(|j| min[j].min(word(e, j)));
        let upper: [u64; LANES] = std::array::from_fn(|j| max[j].max(word(e, j)));
        let row: usize =
            (0..LANES).map(|j| 64 - (upper[j] - lower[j]).leading_zeros() as usize).sum();
        let count = i - start + 1;
        if count <= LEAF_CAP && count * row <= 8 * LEAF_BODY {
            (min, max) = (lower, upper);
        } else {
            leaves.push(&entries[start..i]);
            start = i;
            (min, max) = (std::array::from_fn(|j| word(e, j)), std::array::from_fn(|j| word(e, j)));
        }
    }
    leaves.push(&entries[start..]);
    leaves
}

/// The `(min_lo, max_hi)` fences of a tree whose leaves are `leaves` in
/// that order — every level, root last. A stab at `t` reads the nodes with
/// `min_lo ≤ t ≤ max_hi`.
fn lo_order_fences(leaves: &[&[[u8; ENTRY]]]) -> Vec<(f64, f64)> {
    let key = |e: &[u8; ENTRY], at: usize| f64::from_le_bytes(e[at..at + 8].try_into().unwrap());
    let fence = |group: &[(f64, f64)]| {
        (group[0].0, group.iter().map(|f| f.1).fold(f64::NEG_INFINITY, f64::max))
    };
    let mut level: Vec<(f64, f64)> = leaves
        .iter()
        .map(|leaf| (key(&leaf[0], 0), leaf.iter().map(|e| key(e, 8)).fold(f64::MIN, f64::max)))
        .collect();
    let mut all = level.clone();
    while level.len() > 1 {
        level = level.chunks(PER_INNER).map(fence).collect();
        all.extend(&level);
    }
    all
}

#[test]
fn a_cold_stab_reads_at_most_a_third_of_what_lo_order_packing_would() {
    let set = MemeGenerator::new(MemeConfig { objects: 4000, ..Default::default() }).generate_set();
    // EXACT3's entries, in `lo` order with ties in object order.
    let mut entries: Vec<[u8; ENTRY]> = Vec::new();
    for o in set.objects() {
        let mut prefix = 0.0f64;
        for s in o.curve.segments() {
            prefix += s.integral_full();
            let mut e = [0u8; ENTRY];
            for (at, v) in [(0, s.t0), (8, s.t1), (16, s.v0), (24, s.v1), (32, prefix)] {
                e[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
            e[40..].copy_from_slice(&o.id.to_le_bytes());
            entries.push(e);
        }
    }
    let key = |e: &[u8; ENTRY], at: usize| f64::from_le_bytes(e[at..at + 8].try_into().unwrap());
    entries.sort_by(|a, b| key(a, 0).total_cmp(&key(b, 0)));

    let env = Env::mem(StoreConfig { block_size: BLOCK, pool_capacity: 64 });
    let mut loader = IntervalBulkLoader::new(env.create_file("tree").unwrap(), 28).unwrap();
    for e in &entries {
        loader.push(key(e, 0), key(e, 8), &e[16..]).unwrap();
    }
    let tree = loader.finish().unwrap();
    let leaves = lo_order_leaves(&entries);
    let fences = lo_order_fences(&leaves);

    // The entries alive at `t`: those with `lo ≤ t`, less those with `hi < t`.
    let (mut los, mut his): (Vec<f64>, Vec<f64>) =
        entries.iter().map(|e| (key(e, 0), key(e, 8))).unzip();
    los.sort_by(f64::total_cmp);
    his.sort_by(f64::total_cmp);
    let alive = |t: f64| los.partition_point(|&lo| lo <= t) - his.partition_point(|&hi| hi < t);

    let (t_min, t_max) = (set.t_min(), set.t_max());
    let (mut reads, mut lo_order, mut hits) = (0u64, 0usize, 0usize);
    for i in 0..PROBES {
        let t = t_min + (t_max - t_min) * (i as f64 + 0.5) / PROBES as f64;
        tree.file().drop_cache().unwrap();
        env.reset_io();
        let mut stabbed = 0;
        tree.stab(t, &mut |_, _, _| stabbed += 1).unwrap();
        reads += env.io_stats().reads;
        assert_eq!(stabbed, alive(t), "t={t}");
        hits += stabbed;
        lo_order += fences.iter().filter(|f| f.0 <= t && t <= f.1).count();
    }
    println!(
        "pinned: blocks {PROBES} cold Meme stabs read: {reads} (lo-order packing: {lo_order})"
    );
    let per_leaf = entries.len() / leaves.len();
    assert!(hits >= PROBES * per_leaf, "the probes must have an output term: {hits} hits");
    assert!(
        3 * reads <= lo_order as u64,
        "{PROBES} cold stabs read {reads} blocks; lo-order packing visits {lo_order}"
    );
}

/// Row bytes an EXACT3 tree over `set` spends per entry, read from its
/// leaf pages: a packed leaf's header holds its count and one width in
/// bits per lane after the magic, and its rows are the widths' sum. A leaf
/// of any other format counts its entries at the 44 bytes of a whole
/// record.
fn exact3_bytes_per_entry(set: &TemporalSet) -> f64 {
    const PACKED_LEAF: u32 = 0x17EE_00AD;
    const INNER: u32 = 0x17EE_00BB;
    let exact3 = Exact3::build(set, IndexConfig::default()).unwrap();
    let file = exact3.tree_file();
    let (mut entries, mut bits) = (0u64, 0u64);
    for id in 1..file.num_blocks() {
        let page = file.page(id).unwrap();
        let word = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().unwrap());
        let count = word(4) as u64;
        let row = match word(0) {
            INNER => continue,
            PACKED_LEAF => page[8..8 + LANES].iter().map(|&w| w as u64).sum(),
            _ => 8 * ENTRY as u64,
        };
        (entries, bits) = (entries + count, bits + count * row);
    }
    assert_eq!(entries, exact3.num_entries());
    bits as f64 / 8.0 / entries as f64
}

#[test]
fn exact3_leaves_spend_fewer_bytes_on_an_entry_than_its_44_byte_record() {
    let temp =
        TempGenerator::new(TempConfig { objects: 2000, avg_segments: 100, ..Default::default() })
            .generate_set();
    let meme =
        MemeGenerator::new(MemeConfig { objects: 4000, ..Default::default() }).generate_set();
    let (temp, meme) = (exact3_bytes_per_entry(&temp), exact3_bytes_per_entry(&meme));
    println!("pinned: EXACT3 bytes per entry, Temp shard / Meme: {temp:.2} / {meme:.2}");
    assert!(temp <= 32.5 && meme <= 34.0, "EXACT3 rows take {temp:.2} / {meme:.2} bytes");
}
