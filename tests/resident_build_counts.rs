//! What a resident build costs on one shard of the benchmark's
//! `exact_cold` engine (Temp, m = 2000, n_avg = 100, every default), as
//! four counts that repeat exactly (ISSUE 21, 22): blocks written, blocks
//! read, heap allocations per shard build, and heap bytes the built shard
//! holds per index byte — and a fifth for the data path (ISSUE 23): heap
//! bytes a live engine holds per live point beyond its indexes. A resident set's curves are already in `t0` order,
//! so EXACT1 / EXACT3 merge them into their loaders instead of sorting a
//! scratch copy: the build's whole IO is the tree's pages going out once,
//! and nothing is allocated per record. The indexes sit on memory devices
//! whose blocks the buffer pools share rather than copy, so a built shard
//! holds its index bytes once.
//!
//! One test, so nothing else in the process allocates while it counts;
//! `ci.sh`'s `tier1` stage echoes the `pinned:` lines into its summary.

use chronorank::core::{ApproxConfig, Exact1, Exact3, IndexConfig, RankMethod, TemporalSet};
use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::serve::{build_route_methods_with_handles, MethodSet};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{
    AppendStream, AppendStreamConfig, DatasetGenerator, StockConfig, StockGenerator, TempConfig,
    TempGenerator,
};

mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// `(pages, writes, reads)` of a flushed index: its size in blocks against
/// the IO its build charged.
fn build_io(index: &dyn RankMethod) -> (u64, u64, u64) {
    let io = index.io_stats();
    (index.size_bytes() / StoreConfig::default().block_size as u64, io.writes, io.reads)
}

/// Heap bytes a two-shard live engine holds beyond its indexes, per live
/// point, after a stream of appends it never rebuilds over (directory WAL,
/// so the log is not in the heap): the shards' columns are the one copy of
/// the data, 16 bytes a point plus the append log's 4-byte index and `Vec`
/// slack (22.55 here). A second, row-form copy beside them read 48.19.
fn live_engine_bytes_per_point() {
    let dir = std::env::temp_dir().join(format!("chronorank-counts-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = AppendStream::from_generator(
        &StockGenerator::new(StockConfig { objects: 600, days: 120, readings_per_day: 8, seed: 7 }),
        AppendStreamConfig { base_fraction: 0.1, batch: 4096, ..Default::default() },
    );
    let base = stream.base_set();
    assert!(stream.records().len() >= 500_000);
    let points = base.num_segments() + base.num_objects() as u64 + stream.records().len() as u64;
    let config = LiveConfig {
        workers: 2,
        wal_dir: Some(dir.clone()),
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX },
        ..Default::default()
    };

    let live_before = counting::live_bytes();
    let mut engine = IngestEngine::new(&base, config).unwrap();
    stream.batches().for_each(|batch| engine.append_batch(batch).unwrap());
    let held = counting::live_bytes() - live_before - engine.report().index_bytes;
    let per_point = held as f64 / points as f64;
    println!("pinned: heap bytes a live engine holds per live point: {per_point:.2}");
    assert!(per_point <= 30.0, "{held} heap bytes beyond the indexes for {points} live points");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resident_shard_build_writes_its_trees_once_and_allocates_per_page_not_per_record() {
    let set: TemporalSet =
        TempGenerator::new(TempConfig { objects: 2000, avg_segments: 100, ..Default::default() })
            .generate_set();
    assert_eq!(set.num_segments(), 194_334);

    let exact3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    exact3.flush().unwrap();
    let exact1 = Exact1::build(&set, IndexConfig::default()).unwrap();
    exact1.flush().unwrap();
    let ((pages3, writes3, reads3), (pages1, writes1, reads1)) =
        (build_io(&exact3), build_io(&exact1));
    println!("pinned: blocks written by a resident build: EXACT3 {writes3}, EXACT1 {writes1}");
    println!("pinned: blocks read by a resident build: EXACT3 {reads3}, EXACT1 {reads1}");
    assert_eq!((pages3, writes3, reads3), (2128, 2128, 0));
    assert_eq!((pages1, writes1, reads1), (1729, 1729, 0));
    drop((exact3, exact1));

    let before = counting::allocations();
    let live_before = counting::live_bytes();
    let built = build_route_methods_with_handles(
        &set,
        MethodSet::default(),
        ApproxConfig::default(),
        StoreConfig::default(),
    )
    .unwrap();
    let allocations = counting::allocations() - before;
    println!("pinned: allocations per shard build: {allocations}");
    assert!(allocations <= 15_000, "{allocations} allocations for one shard build");

    // Everything the build allocated and did not free is what `built` holds.
    let held = counting::live_bytes() - live_before;
    let ratio = held as f64 / built.size_bytes as f64;
    println!("pinned: heap bytes held per index byte: {ratio:.3} ({held} / {})", built.size_bytes);
    assert!(
        ratio <= 1.05,
        "a built shard holds {held} heap bytes for {} of index",
        built.size_bytes
    );
    drop(built);

    live_engine_bytes_per_point();
}
