//! Tier-1 read gate for the buffer pool: the blocks an exact query reads
//! on an `exact_cold`-shaped engine at half its size (Temp m = 2,000 with
//! 100 segments per object, W = 2 shards, 64-frame pools, uniform span-0.2
//! queries at k = 20), measured after a warm-up so the pools hold what a
//! running engine's would.
//!
//! Each stab reads its inner pages again and streams leaves it reads
//! once. A plain LRU pool lets those leaves evict the inner pages; the
//! segmented-LRU pool protects a page once it is hit again, so a scan
//! recycles only the probation frames. Only the EXACT3 tree is built
//! (every exact query routes to it; the approximate structures have files
//! and pools of their own).
//!
//! The count repeats exactly, so it is printed as a `pinned:` line before
//! it is asserted; `ci.sh`'s `tier1` stage echoes it into its summary.

use chronorank::serve::{MethodSet, ServeConfig, ServeEngine, ServeQuery};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{
    DatasetGenerator, IntervalPattern, QueryWorkload, QueryWorkloadConfig, TempConfig,
    TempGenerator,
};

/// Queries before the count starts, and counted.
const WARM_UP: usize = 100;
const COUNTED: usize = 400;
/// The pinned count, per query: 24,625 blocks over the 400 queries. With
/// plain LRU pools the same queries read `PINNED_LRU` (25,992 blocks).
const PINNED: f64 = 61.5625;
const PINNED_LRU: f64 = 64.98;

#[test]
fn an_exact_query_reads_at_most_the_pinned_blocks_through_64_frame_pools() {
    let set =
        TempGenerator::new(TempConfig { objects: 2000, avg_segments: 100, ..Default::default() })
            .generate_set();
    let config = ServeConfig {
        workers: 2,
        methods: MethodSet { exact1: true, appx1: false, appx2: false, appx2_plus: false },
        store: StoreConfig { pool_capacity: 64, ..Default::default() },
        ..Default::default()
    };
    let engine = ServeEngine::new(&set, config).unwrap();
    let queries: Vec<ServeQuery> = QueryWorkload::new(
        QueryWorkloadConfig {
            count: WARM_UP + COUNTED,
            span_fraction: 0.2,
            k: 20,
            seed: 3,
            pattern: IntervalPattern::Uniform,
        },
        set.t_min(),
        set.t_max(),
    )
    .generate()
    .iter()
    .map(|q| ServeQuery::exact(q.t1, q.t2, q.k))
    .collect();
    let (warm_up, counted) = queries.split_at(WARM_UP);
    warm_up.iter().for_each(|q| drop(engine.query(*q).unwrap()));
    let before = engine.report().io.reads;
    counted.iter().for_each(|q| drop(engine.query(*q).unwrap()));
    let reads = (engine.report().io.reads - before) as f64 / COUNTED as f64;

    println!("pinned: blocks per exact query, 2 Temp shards at 64 frames: {reads}");
    assert!(
        reads <= PINNED,
        "{reads} blocks per exact query; the pin is {PINNED} (plain LRU: {PINNED_LRU})"
    );
}
