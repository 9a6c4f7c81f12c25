//! Storage and index probes on their own small structures.

use super::{mean, ns_per_call, time_each, Layers};
use crate::adapter::{self, Btree, Itree, Pages};
use crate::workloads::Run;
use std::time::Instant;

/// Frames of the probed pool — `exact_cold`'s per-file pool.
const POOL_FRAMES: usize = 64;
/// Pages behind it (16 MiB: far more than the pool).
const PAGES: u64 = 4096;
/// Entries of each probed tree / records of the probed sort.
const ENTRIES: usize = 200_000;
/// Cold lookups per tree.
const LOOKUPS: usize = 500;

/// A cheap deterministic scatter of `i` over `0..n`.
fn scatter(i: usize, n: u64) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n
}

pub fn run(run: &Run, out: &mut Layers) -> Result<(), String> {
    pages(out)?;
    let n = run.size(ENTRIES) as u64;

    let t0 = Instant::now();
    let btree = Btree::bulk_load(n)?;
    out.value("index.bulk_load_entries_per_s", n as f64 / t0.elapsed().as_secs_f64());
    let mut reads = Vec::new();
    let ns = time_each(LOOKUPS, |i| {
        btree.cold_seek(scatter(i, n) as f64).map(|r| reads.push(r as f64))
    })?;
    out.value("index.btree_seek_reads", mean(&reads));
    out.median("index.btree_seek_ns", &ns.iter().map(|us| us * 1e3).collect::<Vec<_>>());

    let itree = Itree::bulk_load(n, 50.0)?;
    let mut reads = Vec::new();
    let ns = time_each(LOOKUPS, |i| {
        itree.cold_stab(scatter(i, n) as f64 + 0.5).map(|(r, _)| reads.push(r as f64))
    })?;
    out.value("index.interval_stab_reads", mean(&reads));
    out.median("index.interval_stab_ns", &ns.iter().map(|us| us * 1e3).collect::<Vec<_>>());

    // A 256 KiB sort share against 32-byte records: dozens of runs.
    let t0 = Instant::now();
    let sorted = adapter::external_sort(n, 256 << 10)?;
    if sorted != n {
        return Err(format!("external sort returned {sorted} of {n} records in order"));
    }
    out.value("index.extsort_records_per_s", n as f64 / t0.elapsed().as_secs_f64());
    out.value("index.fence_spilled_entries", adapter::fence_spill(n, 1024)? as f64);
    Ok(())
}

/// `PagedFile::read` with the pool hitting, missing, and under a
/// tree-descent-like pattern (one root, sixteen inner pages, six
/// consecutive leaves per lookup) at `exact_cold`'s pool size.
fn pages(out: &mut Layers) -> Result<(), String> {
    let file = Pages::mem(POOL_FRAMES, PAGES)?;
    let mut buf = [0u8; 4096];
    let mut failed = None;
    let mut read = |page: u64| {
        if let Err(e) = file.read(page, &mut buf) {
            failed = Some(e);
        }
    };
    out.set("storage.page_read_hit_ns", ns_per_call(50_000, |i| read(i as u64 % 32)));
    out.set("storage.page_read_miss_ns", ns_per_call(20_000, |i| read(scatter(i, PAGES))));
    let (hits0, misses0) = file.cache_stats();
    for lookup in 0..5_000usize {
        read(0);
        read(1 + scatter(lookup, 16));
        let leaf = 17 + scatter(lookup, PAGES - 17 - 6);
        for l in 0..6 {
            read(leaf + l);
        }
    }
    let (hits, misses) = file.cache_stats();
    let total = (hits - hits0 + misses - misses0).max(1);
    out.value("storage.pool_hit_rate", (hits - hits0) as f64 / total as f64);
    failed.map_or(Ok(()), Err)
}
