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
//! The second gate is the result cache's on a live ingest: hot exact
//! windows re-asked after every batch of a W = 2 live engine that installs
//! new generations as it goes. An exact answer is cached on its raw
//! interval and kept across installs until an append starts before its
//! `t2`, so only the window the appends reach is probed again.
//!
//! The counts repeat exactly, so they are printed as `pinned:` lines before
//! they are asserted; `ci.sh`'s `tier1` stage echoes them into its summary.

use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::serve::{MethodSet, ServeConfig, ServeEngine, ServeQuery};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{
    AppendStream, AppendStreamConfig, DatasetGenerator, IntervalPattern, QueryWorkload,
    QueryWorkloadConfig, TempConfig, TempGenerator,
};

/// Queries before the count starts, and counted.
const WARM_UP: usize = 100;
const COUNTED: usize = 400;
/// The pinned count, per query: 18,406 blocks over the 400 queries (20,149
/// while EXACT3's leaves stored each lane as XOR-coded bytes, 20,489 while
/// its loader counted a run's leaves by a `lo`-order cut, 24,625 while its
/// leaves held whole 44-byte records). With plain LRU pools and 44-byte
/// records the same queries read `PINNED_LRU` (25,992 blocks).
const PINNED: f64 = 46.015;
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

/// Hot windows, as fractions of the full stream's domain: three end before
/// the appends begin (about half way), one reaches into them.
const HOT: [(f64, f64); 4] = [(0.05, 0.25), (0.1, 0.4), (0.2, 0.35), (0.3, 0.7)];
/// The pinned count, per query: 1 block over the 240 queries (60 batches
/// of 200 appends, 10 installs). With every exact query probing, as with
/// `cache_capacity: 0`, they read 286 (1.19 a query).
const PINNED_LIVE: f64 = 1.0 / 240.0;

#[test]
fn a_hot_exact_window_on_a_live_ingest_reads_at_most_the_pinned_blocks() {
    let generator =
        TempGenerator::new(TempConfig { objects: 400, avg_segments: 60, ..Default::default() });
    let stream = AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.5, batch: 200, ..Default::default() },
    );
    let config = LiveConfig {
        workers: 2,
        store: StoreConfig { pool_capacity: 64, ..Default::default() },
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 1_000 },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&stream.base_set(), config).unwrap();
    let full = stream.full_set();
    let at = |f: f64| full.t_min() + f * full.span();
    let (mut reads, mut queries) = (0, 0);
    for batch in stream.batches() {
        engine.append_batch(batch).unwrap();
        // Installed here, not whenever a builder happens to finish.
        engine.finish_rebuilds();
        let before = engine.report().index_io.reads;
        for (t1, t2) in HOT {
            engine.query(ServeQuery::exact(at(t1), at(t2), 20)).unwrap();
            queries += 1;
        }
        reads += engine.report().index_io.reads - before;
    }
    let rebuilds = engine.report().rebuilds;
    let per_query = reads as f64 / queries as f64;
    println!(
        "pinned: blocks per hot exact query, W = 2 live ingest at 64 frames, \
         {rebuilds} installs: {per_query:.4} ({reads} over {queries})"
    );
    assert!(rebuilds >= 4, "each shard installs at least twice: {rebuilds}");
    assert!(
        per_query <= PINNED_LIVE,
        "{per_query} blocks per hot exact query; the pin is {PINNED_LIVE}"
    );
}
