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
//! holds its index bytes once. Beside them, the index bytes a default
//! shard holds per segment: the EXACT3 tree and APPX2's QUERY2 structure,
//! with no APPX2+ prefix file (74.56 with one, when QUERY2 still padded
//! every list to a block; 50.25 without; 45.97 while EXACT3's leaves held
//! whole 44-byte records). A live generation's index
//! bytes per segment are pinned beside the fifth: its APPX2+ keeps no
//! prefix file either. Four more pin what a build costs beyond what it
//! keeps: the sweeps BREAKPOINTS2's count fit runs, the shard build's heap
//! high-water mark, absolute and above what the built shard holds, and
//! what a `partition` copies — curves share their point columns, and the
//! count fit replays a 2-byte-a-segment merge order instead of sorting a
//! copy of every segment. Two more pin the live data path, where each point has one home, the shard's curves: the heap
//! an engine holds per live point after an image boot, and the peak heap
//! of a live rebuild beyond what the engine holds after it.
//!
//! One test, so nothing else in the process allocates while it counts;
//! `ci.sh`'s `tier1` stage echoes the `pinned:` lines into its summary.

use chronorank::core::{ApproxConfig, Exact1, Exact3, IndexConfig, RankMethod, TemporalSet};
use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::serve::{build_route_methods_with_handles, partition, MethodSet};
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

/// The benchmark's live stream at test scale: Stock 600 × 120 × 8, a tenth
/// of it in the base set, appended in batches of 4,096 records.
fn stock_stream() -> AppendStream {
    let stream = AppendStream::from_generator(
        &StockGenerator::new(StockConfig { objects: 600, days: 120, readings_per_day: 8, seed: 7 }),
        AppendStreamConfig { base_fraction: 0.1, batch: 4096, ..Default::default() },
    );
    assert!(stream.records().len() >= 500_000);
    stream
}

/// Points of the live data once `stream` is fully appended.
fn live_points(stream: &AppendStream) -> u64 {
    let base = stream.base_set();
    base.num_segments() + base.num_objects() as u64 + stream.records().len() as u64
}

/// A fresh directory for one engine's WAL and image (so the log is not in
/// the heap).
fn wal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chronorank-counts-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Heap bytes a two-shard live engine holds beyond its indexes, per live
/// point, after a stream of appends it never rebuilds over: the shards'
/// curves are the one copy of the data, shared with the set they booted
/// from, and the append log holds 16 bytes a point plus a 4-byte index and
/// `Vec` slack (22.43 while a boot copied the base into columns of its
/// own; a second, row-form copy beside them read 48.19). Its generation's
/// indexes hold 35.50 bytes a segment (52.74 while EXACT3's leaves held
/// whole 44-byte records): APPX2+ re-scores QUERY2's pool from
/// those columns, so no 24-byte-a-point prefix file sits beside them
/// (106.21 with one), and QUERY2 packs five 64-entry lists into a block
/// (81.78 with a block each, a fixed 1 MiB). Then the same data booted from its checkpoint image:
/// the image's curves are read once, and the shards share them (27.88 while
/// a boot copied them again into columns grown by pushing).
fn live_engine_bytes_per_point(stream: &AppendStream) {
    let dir = wal_dir("live");
    let base = stream.base_set();
    let points = live_points(stream);
    let config = LiveConfig {
        workers: 2,
        wal_dir: Some(dir.clone()),
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX },
        ..Default::default()
    };

    let live_before = counting::live_bytes();
    let mut engine = IngestEngine::new(&base, config.clone()).unwrap();
    let index_bytes = engine.report().index_bytes;
    let per_segment = index_bytes as f64 / base.num_segments() as f64;
    println!("pinned: index bytes a live generation holds per segment: {per_segment:.2}");
    assert!(per_segment <= 37.0, "{index_bytes} index bytes for {} segments", base.num_segments());
    stream.batches().for_each(|batch| engine.append_batch(batch).unwrap());
    let held = counting::live_bytes() - live_before - engine.report().index_bytes;
    let per_point = held as f64 / points as f64;
    println!("pinned: heap bytes a live engine holds per live point: {per_point:.2}");
    assert!(per_point <= 30.0, "{held} heap bytes beyond the indexes for {points} live points");
    engine.checkpoint().unwrap();
    drop(engine);

    let live_before = counting::live_bytes();
    let engine = IngestEngine::new(&base, config).unwrap();
    assert_eq!(engine.report().preloaded_shards, 2);
    let held = counting::live_bytes() - live_before - engine.report().index_bytes;
    let per_point = held as f64 / points as f64;
    println!(
        "pinned: heap bytes a live engine holds per live point after an image boot: {per_point:.2}"
    );
    assert!(per_point <= 20.0, "{held} heap bytes beyond the indexes for {points} live points");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// The heap high-water mark of one live rebuild above what the engine
/// holds once it is installed, per live point: one shard, whose one build
/// the last batch starts. Cutting the snapshot folds the log into the
/// curves it extends and hands the builder clones sharing their columns,
/// and the install moves no point, so what peaks above the end state is
/// the generation the install retires, alive beside the new one until the
/// swap, plus the build's own transients (30.74 while the snapshot was a
/// row-form copy of the columns and the install re-packed every point).
fn live_rebuild_peak_per_point(stream: &AppendStream) {
    let dir = wal_dir("rebuild");
    let config = LiveConfig {
        workers: 1,
        wal_dir: Some(dir.clone()),
        rebuild: RebuildPolicy {
            mass_factor: f64::INFINITY,
            max_tail_segments: stream.records().len(),
        },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&stream.base_set(), config).unwrap();
    let batches: Vec<_> = stream.batches().collect();
    let (last, rest) = batches.split_last().unwrap();
    rest.iter().for_each(|batch| engine.append_batch(batch).unwrap());
    assert_eq!(engine.report().rebuilds_in_flight, 0);
    counting::reset_peak();
    engine.append_batch(last).unwrap();
    engine.finish_rebuilds();
    let transient = counting::peak_bytes() - counting::live_bytes();
    assert_eq!(engine.report().rebuilds, 1);
    let per_point = transient as f64 / live_points(stream) as f64;
    println!(
        "pinned: peak heap of a live rebuild beyond what the engine holds after it, per live \
         point: {per_point:.2}"
    );
    assert!(per_point <= 16.0, "a live rebuild peaked {transient} heap bytes above what it holds");
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
    // EXACT3's leaves pack their rows: 1,559 pages with bit-packed
    // offsets from each lane's minimum, 1,735 with XOR-coded bytes, where
    // 44-byte entries took 2,128 (1,742 while a run counted its leaves by
    // a `lo`-order cut).
    assert_eq!((pages3, writes3, reads3), (1559, 1559, 0));
    assert_eq!((pages1, writes1, reads1), (1729, 1729, 0));
    drop((exact3, exact1));

    let before = counting::allocations();
    let live_before = counting::live_bytes();
    counting::reset_peak();
    let built = build_route_methods_with_handles(
        &set,
        MethodSet::default(),
        ApproxConfig::default(),
        StoreConfig::default(),
    )
    .unwrap();
    let allocations = counting::allocations() - before;
    let per_segment = built.size_bytes as f64 / set.num_segments() as f64;
    println!("pinned: index bytes a default serve shard holds per segment: {per_segment:.2}");
    assert!(per_segment <= 39.0, "{} index bytes for 194,334 segments", built.size_bytes);
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
    // B2's count fit sweeps only where a sweep can commit a breakpoint:
    // its first trial, ε = 1/(r − 1), puts τ above every object's mass
    // here, so it knows that trial's two points without a sweep (3 sweeps
    // while it swept them).
    let sweeps = built.stages.b2_sweeps;
    println!("pinned: B2 sweeps per shard build: {sweeps}");
    assert!(sweeps <= 2, "the B2 count fit ran {sweeps} sweeps");
    // The build's high-water mark: what it keeps, plus EXACT3's
    // 2-byte-a-segment merge order (ids of a shard of ≤ 2¹⁶ objects; 4.06
    // bytes a segment beyond what it holds at 4 bytes an id), which B2's
    // count fit replays and drops before QUERY2 is built. QUERY2's lists no longer pad each list to a
    // block, so the order is now the peak's largest transient (0.06 while
    // QUERY2's 0.83 MB of padding outweighed it; a sorted `(t0, object,
    // index)` copy and its stable sort's scratch read 26.86). The absolute
    // peak fell with the padding: 51.76 bytes a segment with it.
    let peak = counting::peak_bytes() - live_before;
    let per_segment = peak as f64 / set.num_segments() as f64;
    println!("pinned: peak heap of a shard build, per segment: {per_segment:.2}");
    assert!(per_segment <= 51.8, "a shard build peaked at {peak} heap bytes");
    let transient = peak - held;
    let per_segment = transient as f64 / set.num_segments() as f64;
    println!(
        "pinned: peak heap of a shard build beyond what it holds, per segment: {per_segment:.2}"
    );
    assert!(per_segment <= 2.5, "a shard build peaked {transient} heap bytes above what it holds");
    drop(built);

    // A partition shares its parts' point columns with the source: the
    // parts cost their object tables, not the points (a deep copy read
    // 16.76).
    let live_before = counting::live_bytes();
    let parts = partition(&set, 2);
    let copied = counting::live_bytes() - live_before;
    let per_segment = copied as f64 / set.num_segments() as f64;
    println!("pinned: point bytes a W = 2 partition copies, per segment: {per_segment:.2}");
    assert!(per_segment <= 1.0, "a W = 2 partition allocated {copied} bytes");
    drop(parts);

    let stream = stock_stream();
    live_engine_bytes_per_point(&stream);
    live_rebuild_peak_per_point(&stream);
}
