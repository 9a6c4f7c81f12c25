//! What a resident build costs on one shard of the benchmark's
//! `exact_cold` engine (Temp, m = 2000, n_avg = 100, every default), as
//! four counts that repeat exactly (ISSUE 21, 22): blocks written, blocks
//! read, heap allocations per shard build, and heap bytes the built shard
//! holds per index byte. A resident set's curves are already in `t0` order,
//! so EXACT1 / EXACT3 merge them into their loaders instead of sorting a
//! scratch copy: the build's whole IO is the tree's pages going out once,
//! and nothing is allocated per record. The indexes sit on memory devices
//! whose blocks the buffer pools share rather than copy, so a built shard
//! holds its index bytes once.
//!
//! One test, so nothing else in the process allocates while it counts;
//! `ci.sh`'s `tier1` stage echoes the `pinned:` lines into its summary.

use chronorank::core::{ApproxConfig, Exact1, Exact3, IndexConfig, RankMethod, TemporalSet};
use chronorank::serve::{build_route_methods_with_handles, MethodSet};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every block it hands out or moves and
/// the bytes currently handed out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out and not yet returned (a shrinking `realloc` adds a
/// wrapped negative).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES
            .fetch_add((new_size as u64).wrapping_sub(layout.size() as u64), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(pages, writes, reads)` of a flushed index: its size in blocks against
/// the IO its build charged.
fn build_io(index: &dyn RankMethod) -> (u64, u64, u64) {
    let io = index.io_stats();
    (index.size_bytes() / StoreConfig::default().block_size as u64, io.writes, io.reads)
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

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let built = build_route_methods_with_handles(
        &set,
        MethodSet::default(),
        ApproxConfig::default(),
        StoreConfig::default(),
    )
    .unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    println!("pinned: allocations per shard build: {allocations}");
    assert!(allocations <= 15_000, "{allocations} allocations for one shard build");

    // Everything the build allocated and did not free is what `built` holds.
    let held = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    let ratio = held as f64 / built.size_bytes as f64;
    println!("pinned: heap bytes held per index byte: {ratio:.3} ({held} / {})", built.size_bytes);
    assert!(
        ratio <= 1.05,
        "a built shard holds {held} heap bytes for {} of index",
        built.size_bytes
    );
    drop(built);
}
