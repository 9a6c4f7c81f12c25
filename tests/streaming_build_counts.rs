//! What an out-of-core build costs the heap under its `ScaleBudget`, as
//! counts that repeat exactly (ISSUE 25). A Meme stream (m = 3,000, N ≈
//! 200 k segments, ≈ 6 MB) goes through `Exact1::build_streaming`,
//! `Exact3::build_streaming` and `b2_streaming` into a temp directory under
//! a 4 MiB budget — half to the pools, half to the sort run — and for each
//! build four counts are pinned:
//!
//! 1. peak heap above the pre-build level: the budget's sort share, plus
//!    what lives outside the budget — the bulk loader's open runs (≤ 256
//!    whole leaves between them, a run twice its size while it closes),
//!    one 24-byte fence per leaf and the per-object state (EXACT3's
//!    `(start, end, total)`, the B2 sweep's 64-byte slot). The pool share
//!    stays unused — the sort runs are scratch that keeps no frame, and a
//!    streamed tree writes each page straight to the device — so every
//!    build also peaks below the whole budget;
//! 2. heap the built index holds: that per-object state and no pool frame;
//! 3. blocks a `drop_caches()` right after the build writes: none, because
//!    a streamed tree's pages went to the device as they were written;
//! 4. blocks the build wrote and read: each sort-run block written once and
//!    read once, each tree page written once, and nothing else.
//!
//! One test, so nothing else in the process allocates while it counts;
//! `ci.sh`'s `tier1` stage echoes the `pinned:` lines into its summary.

use chronorank::core::{b2_streaming, scan_stats, B2Construction, Exact1, Exact3, RankMethod};
use chronorank::storage::{Env, IoStats, ScaleBudget};
use chronorank::workloads::{MemeConfig, MemeGenerator, StreamingGenerator};

mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// Whole leaves the interval loader's open runs buffer at most.
const RUN_LEAVES: u64 = 256;
/// Bytes per leaf fence.
const FENCE: u64 = 24;
/// Bytes of per-object state a build may keep or sweep with.
const PER_OBJECT: u64 = 64;
/// Bytes of a sort record: EXACT1's `t0` and payload, EXACT3's `lo`, `hi`
/// and payload, and the B2 sweep's segment.
const RECORD: [u64; 3] = [36, 44, 36];
/// Bytes of a sort-run block's header.
const RUN_HDR: u64 = 4;
/// Bytes of a record's slot in a spill's permutation.
const SLOT: u64 = 4;

/// What `build` returns, its peak heap above the level before it, and the
/// heap held after it.
fn heap_of<T>(build: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = counting::live_bytes();
    counting::reset_peak();
    let built = build();
    (built, counting::peak_bytes() - before, counting::live_bytes() - before)
}

/// Blocks written by dropping `index`'s caches right after its build.
fn drop_writes(index: &dyn RankMethod) -> u64 {
    index.reset_io();
    index.drop_caches().unwrap();
    index.io_stats().writes
}

/// Blocks the sort runs of `n` records of `record` bytes fill under a sort
/// share of `sort_bytes` in `block`-byte blocks: every record goes through
/// a run, even when all of them fit one.
fn run_blocks(n: u64, record: u64, sort_bytes: u64, block: u64) -> u64 {
    let (run, per_block) = (sort_bytes / (record + SLOT), (block - RUN_HDR) / record);
    let full = (n / run) * run.div_ceil(per_block);
    full + (n % run).div_ceil(per_block)
}

#[test]
fn a_streaming_build_stays_inside_its_budget_and_hands_its_pool_back() {
    let meme = MemeGenerator::new(MemeConfig {
        objects: 3000,
        avg_segments: 67,
        span: 10_000.0,
        seed: 42,
    });
    let stats = scan_stats(meme.objects());
    let (m, n) = (stats.num_objects as u64, stats.num_segments);
    let budget = ScaleBudget::new(4 << 20);
    assert!(!budget.holds_dataset(n * 32), "the build must run out of core");
    // A fixed-width name, so the path allocates the same bytes every run.
    let root =
        std::env::temp_dir().join(format!("chronorank-streaming-counts-{:07}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let env = |name: &str, files| Env::dir(root.join(name), budget.store_config(files)).unwrap();
    let block = budget.block_size() as u64;

    let (e1, peak1, held1) = heap_of(|| {
        Exact1::build_streaming(env("e1", 2), meme.objects(), budget.sort_bytes()).unwrap()
    });
    let (pages1, io1) = (e1.size_bytes() / block, e1.io_stats());
    let writes1 = drop_writes(&e1);
    drop(e1);
    let store = budget.store_config(2);
    let (e3, peak3, held3) = heap_of(|| {
        Exact3::build_streaming(env("e3", 2), store, meme.objects(), budget.sort_bytes()).unwrap()
    });
    let (pages3, io3) = (e3.size_bytes() / block, e3.io_stats());
    let writes3 = drop_writes(&e3);
    drop(e3);
    let b2_env = env("b2", 1);
    let (b2, peak_b2, held_b2) = heap_of(|| {
        let efficient = B2Construction::Efficient;
        b2_streaming(&b2_env, meme.objects(), &stats, 0.02, efficient, budget.sort_bytes()).unwrap()
    });
    let io_b2 = b2_env.io_stats();
    drop((b2, b2_env));
    std::fs::remove_dir_all(&root).ok();

    let total = budget.total_bytes();
    let net = |peak: u64| peak as i64 - total as i64;
    println!(
        "pinned: peak heap of a streaming build beyond its {} MiB budget: \
         EXACT1 {:+}, EXACT3 {:+}, B2 {:+} bytes",
        total >> 20,
        net(peak1),
        net(peak3),
        net(peak_b2)
    );
    println!(
        "pinned: heap a streaming build holds: EXACT1 {held1}, EXACT3 {held3}, B2 {held_b2} bytes"
    );
    println!(
        "pinned: blocks a drop_caches() writes after the build: EXACT1 {writes1}, EXACT3 {writes3}"
    );
    let runs = RECORD.map(|record| run_blocks(n, record, budget.sort_bytes(), block));
    let io = |io: IoStats| format!("{} / {}", io.writes, io.reads);
    println!(
        "pinned: blocks a streaming build writes / reads: EXACT1 {} ({} run blocks + {pages1} \
         pages), EXACT3 {} ({} + {pages3}), B2 {} ({} + 0)",
        io(io1),
        runs[0],
        io(io3),
        runs[1],
        io(io_b2),
        runs[2]
    );

    // What lives outside the budget: a tree loader's run and fences (a
    // tree's pages bound its leaves) and the per-object state. The B2
    // sweep loads no tree.
    let loader = 2 * RUN_LEAVES * block;
    let sort = budget.sort_bytes();
    for (name, peak, held, run, pages, io, runs) in [
        ("EXACT1", peak1, held1, loader, pages1, io1, runs[0]),
        ("EXACT3", peak3, held3, loader, pages3, io3, runs[1]),
        ("B2", peak_b2, held_b2, 0, 0, io_b2, runs[2]),
    ] {
        let state = FENCE * pages + PER_OBJECT * m;
        assert!(
            peak <= sort + run + state,
            "{name} peaked {peak} heap bytes above its start: its pool share of the \
             {total}-byte budget is not for its build"
        );
        assert!(peak <= total, "{name} peaked {peak} heap bytes, beyond its {total}-byte budget");
        assert!(
            held <= state,
            "{name} holds {held} heap bytes after its build: a pool frame is {block}"
        );
        assert_eq!(
            (io.writes, io.reads),
            (runs + pages, runs),
            "{name}: each run block is written and read once, each page written once"
        );
    }
    assert_eq!((writes1, writes3), (0, 0), "a tree build must write its pages back itself");
}
