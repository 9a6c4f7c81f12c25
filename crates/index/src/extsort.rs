//! Run-based external merge sort: every construction in the paper begins
//! by sorting all `N` segments (`O((N/B) log_B N)` IOs).
//!
//! [`ExternalSorter`] takes fixed-size records in any order (opaque byte
//! strings; the caller provides a key extractor); memory-full batches are
//! sorted and spilled as block runs, and `finish` returns a k-way-merged
//! sorted stream.
//!
//! What a run costs is its byte budget and nothing beside it: each record
//! is `record_len` bytes in the run buffer plus a 4-byte slot in the `u32`
//! permutation a spill sorts, so a run holds `budget / (record_len + 4)`
//! records. The spill writes the records straight off the permutation (no
//! vector of references), and the buffer is sized once to the whole run
//! after its first MiB, so it stops reallocating through the heap. The
//! sort file is scratch that keeps no pool frame (`Env::create_scratch`):
//! a spill writes its blocks straight to the device, and the merge reads
//! each block into its run's own buffer — one block per run, read once.
//! (The paper's IO-efficient priority queues have no caller here: every
//! sweep consumes a sorted stream.)

use crate::error::{IndexError, Result};
use chronorank_storage::page::put_u32;
use chronorank_storage::{PageId, PagedFile, Reader};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

const RUN_HDR: usize = 4; // record count within the block
/// Bytes of a record's slot in a spill's permutation.
const SLOT: u64 = 4;
/// The run buffer grows by doubling up to this size, then is sized once to
/// the whole run.
const DOUBLING_LIMIT: usize = 1 << 20;

/// Locate record ordinal `pos` of a run: `(block index, slot within
/// block)`. Kept as a free helper so the arithmetic is testable at
/// paper-scale ordinals: a single sorted run can hold up to 2³² − 1
/// records, so every term here must stay `u64` — a careless `usize`
/// multiply would wrap on 32-bit hosts.
fn run_position(pos: u64, per_block: usize) -> (u64, usize) {
    let pb = per_block as u64;
    (pos / pb, (pos % pb) as usize)
}

/// A spilled sorted run: `blocks` consecutive blocks starting at `start`
/// holding `records` records.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: PageId,
    records: u64,
}

/// Writes records packed into consecutive blocks; returns the run descriptor.
fn write_run<'a>(
    file: &PagedFile,
    record_len: usize,
    mut records: impl ExactSizeIterator<Item = &'a [u8]>,
) -> Result<Run> {
    let block = file.block_size();
    let per_block = (block - RUN_HDR) / record_len;
    let n = records.len();
    let blocks = n.div_ceil(per_block).max(1) as u64;
    let start = file.allocate(blocks)?;
    let mut buf = vec![0u8; block];
    for b in 0..blocks {
        buf.fill(0);
        let mut count = 0;
        for rec in records.by_ref().take(per_block) {
            buf[RUN_HDR + count * record_len..][..record_len].copy_from_slice(rec);
            count += 1;
        }
        put_u32(&mut buf, 0, count as u32);
        file.write(start + b, &buf)?;
    }
    Ok(Run { start, records: n as u64 })
}

/// Sequential reader over one spilled run.
struct RunCursor {
    run: Run,
    record_len: usize,
    per_block: usize,
    /// The block being read, loaded into the cursor's own buffer.
    buf: Vec<u8>,
    /// Next record ordinal within the run.
    pos: u64,
    /// Block `buf` holds (`u64::MAX` = none yet).
    cur_block: u64,
}

impl RunCursor {
    fn new(run: Run, record_len: usize, block: usize) -> Self {
        Self {
            run,
            record_len,
            per_block: (block - RUN_HDR) / record_len,
            buf: vec![0u8; block],
            pos: 0,
            cur_block: u64::MAX,
        }
    }

    /// Borrow the next record, advancing; `None` at end of run.
    fn next<'a>(&'a mut self, file: &PagedFile) -> Result<Option<&'a [u8]>> {
        if self.pos >= self.run.records {
            return Ok(None);
        }
        let (block_idx, within) = run_position(self.pos, self.per_block);
        if block_idx != self.cur_block {
            file.read(self.run.start + block_idx, &mut self.buf)?;
            let count = Reader::new(&self.buf).u32("run block count")? as u64;
            let expected =
                (self.run.records - block_idx * self.per_block as u64).min(self.per_block as u64);
            if count != expected {
                return Err(IndexError::Corrupt(format!(
                    "run block holds {count} records, expected {expected}"
                )));
            }
            self.cur_block = block_idx;
        }
        self.pos += 1;
        let off = RUN_HDR + within * self.record_len;
        Ok(Some(&self.buf[off..off + self.record_len]))
    }

    /// The record the last `next` returned: it stays in `buf` until the
    /// following `next`.
    fn current(&self) -> &[u8] {
        let (_, within) = run_position(self.pos - 1, self.per_block);
        let off = RUN_HDR + within * self.record_len;
        &self.buf[off..off + self.record_len]
    }
}

/// `f64::total_cmp` order as unsigned integers: negatives flipped whole,
/// the sign bit set on the rest.
pub(crate) fn total_order_bits(key: f64) -> u64 {
    key.to_bits() ^ ((key.to_bits() as i64 >> 63) as u64 | 1 << 63)
}

/// External merge sorter over fixed-size records (see module docs).
pub struct ExternalSorter<F: Fn(&[u8]) -> f64> {
    file: PagedFile,
    record_len: usize,
    key_fn: F,
    /// Records buffered in memory before a run is spilled.
    run_records: usize,
    buf: Vec<u8>,
    runs: Vec<Run>,
    total: u64,
}

impl<F: Fn(&[u8]) -> f64> ExternalSorter<F> {
    /// `file` must be a fresh scratch file (`Env::create_scratch`: it keeps
    /// no pool frame, and goes away with the sorter or its
    /// `SortedStream`). `budget_bytes` (a `ScaleBudget` sort share) is the
    /// whole run: a record costs `record_len` bytes plus its 4-byte
    /// permutation slot, so a run holds `budget_bytes / (record_len + 4)`
    /// records — never fewer than 16, so a degenerate budget still sorts,
    /// nor more than `u32::MAX`.
    /// Nothing is reserved up front: the buffer grows as records arrive,
    /// so a budget far above the input costs nothing.
    pub fn with_byte_budget(
        file: PagedFile,
        record_len: usize,
        budget_bytes: u64,
        key_fn: F,
    ) -> Result<Self> {
        if record_len == 0 || record_len > file.block_size() - RUN_HDR {
            return Err(IndexError::BadInput(format!(
                "record length {record_len} unusable with block size {}",
                file.block_size()
            )));
        }
        let slot = record_len as u64 + SLOT;
        let run_records = (budget_bytes / slot).clamp(16, u32::MAX.into()) as usize;
        Ok(Self {
            buf: Vec::new(),
            runs: Vec::new(),
            total: 0,
            file,
            record_len,
            key_fn,
            run_records,
        })
    }

    /// Add one record.
    pub fn push(&mut self, rec: &[u8]) -> Result<()> {
        if rec.len() != self.record_len {
            return Err(IndexError::BadInput(format!(
                "record length {} != {}",
                rec.len(),
                self.record_len
            )));
        }
        let key = (self.key_fn)(rec);
        if !key.is_finite() {
            return Err(IndexError::BadInput("record key must be finite".into()));
        }
        let full = self.buf.capacity() - self.buf.len() < rec.len();
        if full && self.buf.len() >= DOUBLING_LIMIT {
            // Sized once to the whole run, so it never moves through the
            // heap again; if the allocator refuses, it keeps doubling.
            let run_bytes = self.run_records.saturating_mul(self.record_len);
            let _ = self.buf.try_reserve_exact(run_bytes - self.buf.len());
        }
        self.buf.extend_from_slice(rec);
        self.total += 1;
        if self.buf.len() / self.record_len >= self.run_records {
            self.spill()?;
        }
        Ok(())
    }

    /// Sort the buffered records through a `u32` permutation and write them
    /// off it as one run. Unstable on `(key, index)` is the stable order:
    /// equal keys leave in push order.
    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let (buf, rl) = (&self.buf, self.record_len);
        let record = |i: u32| &buf[i as usize * rl..][..rl];
        let mut perm: Vec<u32> = (0..(buf.len() / rl) as u32).collect();
        perm.sort_unstable_by_key(|&i| (total_order_bits((self.key_fn)(record(i))), i));
        let run = write_run(&self.file, rl, perm.iter().map(|&i| record(i)))?;
        self.runs.push(run);
        self.buf.clear();
        Ok(())
    }

    /// Spill the final batch and return the merged, key-ordered stream.
    pub fn finish(mut self) -> Result<SortedStream<F>> {
        self.spill()?;
        let block = self.file.block_size();
        let mut cursors: Vec<RunCursor> =
            self.runs.iter().map(|&r| RunCursor::new(r, self.record_len, block)).collect();
        // Prime the heap with each run's head key; the head record itself
        // stays in its cursor's block buffer.
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            if let Some(rec) = c.next(&self.file)? {
                heap.push(Reverse((total_order_bits((self.key_fn)(rec)), i)));
            }
        }
        Ok(SortedStream {
            file: self.file,
            record_len: self.record_len,
            key_fn: self.key_fn,
            cursors,
            heap,
            remaining: self.total,
        })
    }
}

/// Key-ordered stream produced by [`ExternalSorter::finish`].
pub struct SortedStream<F: Fn(&[u8]) -> f64> {
    file: PagedFile,
    record_len: usize,
    key_fn: F,
    cursors: Vec<RunCursor>,
    /// `(head key in total order, run)` per unexhausted run: equal keys
    /// leave in run order, which is push order.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    remaining: u64,
}

impl<F: Fn(&[u8]) -> f64> SortedStream<F> {
    /// Copy the next record (in key order) into `out`; `Ok(false)` at end.
    pub fn next_into(&mut self, out: &mut [u8]) -> Result<bool> {
        if out.len() != self.record_len {
            return Err(IndexError::BadInput("output buffer length mismatch".into()));
        }
        let Some(mut top) = self.heap.peek_mut() else { return Ok(false) };
        let cursor = &mut self.cursors[top.0 .1];
        out.copy_from_slice(cursor.current());
        // Re-key the winner's run to its next record, or retire it.
        match cursor.next(&self.file)? {
            Some(rec) => top.0 .0 = total_order_bits((self.key_fn)(rec)),
            None => {
                PeekMut::pop(top);
            }
        }
        self.remaining -= 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::{Env, StoreConfig};

    fn env() -> Env {
        Env::mem(StoreConfig { block_size: 256, pool_capacity: 16 })
    }

    fn rec(key: f64, tag: u32) -> Vec<u8> {
        let mut r = Vec::with_capacity(12);
        r.extend_from_slice(&key.to_le_bytes());
        r.extend_from_slice(&tag.to_le_bytes());
        r
    }

    fn key_of(r: &[u8]) -> f64 {
        f64::from_le_bytes(r[..8].try_into().unwrap())
    }

    #[test]
    fn sorts_random_input_across_many_runs() {
        let e = env();
        // Fifty 12-byte records, each with its 4-byte permutation slot.
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 16 * 50, key_of)
                .unwrap();
        // Deterministic pseudo-random keys.
        let mut x = 123456789u64;
        let mut keys = Vec::new();
        for i in 0..2000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 11) as f64 / (1u64 << 53) as f64 * 1e6;
            keys.push(k);
            s.push(&rec(k, i)).unwrap();
        }
        assert_eq!(s.total, 2000);
        assert_eq!(s.runs.len(), 40, "the budget caps every run at 50 records");
        let mut stream = s.finish().unwrap();
        keys.sort_by(f64::total_cmp);
        let mut out = vec![0u8; 12];
        for want in &keys {
            assert!(stream.next_into(&mut out).unwrap());
            assert_eq!(key_of(&out), *want);
        }
        assert!(!stream.next_into(&mut out).unwrap());
        assert_eq!(stream.remaining, 0);
    }

    #[test]
    fn run_position_survives_past_u32_records() {
        // Regression for the paper-scale audit: record ordinals beyond 2³²
        // must keep producing monotone block indexes and in-range slots.
        let per_block = 113usize;
        let boundary = 1u64 << 32;
        let mut prev_block = 0u64;
        for pos in (boundary - 3)..(boundary + 3) {
            let (block, within) = run_position(pos, per_block);
            assert_eq!(block, pos / per_block as u64);
            assert_eq!(within as u64, pos % per_block as u64);
            assert!(within < per_block);
            assert!(block >= prev_block, "block index went backwards at {pos}");
            assert!(block > u32::MAX as u64 / per_block as u64 - 1, "block index truncated");
            prev_block = block;
        }
        // The exact boundary ordinal: u32 arithmetic would wrap to 0 here.
        let (block, _) = run_position(boundary, per_block);
        assert_eq!(block, boundary / per_block as u64);
        assert_ne!(block, (boundary as u32 as u64) / per_block as u64);
    }

    #[test]
    fn byte_budget_constructor_sorts_identically() {
        let e = env();
        // 600 bytes / (12-byte records + 4-byte slots) → 37-record runs:
        // fourteen spills.
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 600, key_of)
                .unwrap();
        let mut keys = Vec::new();
        let mut x = 7u64;
        for i in 0..500u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 11) as f64;
            keys.push(k);
            s.push(&rec(k, i)).unwrap();
        }
        let mut stream = s.finish().unwrap();
        keys.sort_by(f64::total_cmp);
        let mut out = vec![0u8; 12];
        for want in &keys {
            assert!(stream.next_into(&mut out).unwrap());
            assert_eq!(key_of(&out), *want);
        }
        // Degenerate budgets floor at the 16-record minimum.
        let tiny = ExternalSorter::with_byte_budget(e.create_file("tiny").unwrap(), 12, 0, key_of)
            .unwrap();
        assert_eq!(tiny.total, 0);
    }

    #[test]
    fn a_huge_budget_reserves_nothing_up_front() {
        // Regression: the budget used to be reserved whole at construction
        // (an allocation abort at this size). It caps the run length only,
        // and the buffer is sized to the run only past its first MiB.
        let e = env();
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, u64::MAX, key_of)
                .unwrap();
        assert_eq!(s.buf.capacity(), 0);
        for i in 0..100u32 {
            s.push(&rec(f64::from(100 - i), i)).unwrap();
        }
        assert!(s.buf.capacity() <= 256 * 12, "buffer grew to {} bytes", s.buf.capacity());
        assert!(s.runs.is_empty(), "100 records are one in-memory run");
        let mut stream = s.finish().unwrap();
        let mut out = vec![0u8; 12];
        for want in 1..=100u32 {
            assert!(stream.next_into(&mut out).unwrap());
            assert_eq!(key_of(&out), f64::from(want));
        }
        assert!(!stream.next_into(&mut out).unwrap());
    }

    #[test]
    fn the_run_buffer_is_sized_once_past_its_first_mib() {
        let e = env();
        let run_records = 200_000u32;
        let budget = 16 * u64::from(run_records);
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, budget, key_of)
                .unwrap();
        // 1.8 MB buffered: past the first MiB, short of the 2.4 MB run.
        for i in 0..150_000u32 {
            s.push(&rec(f64::from(i % 7), i)).unwrap();
        }
        assert!(s.runs.is_empty());
        assert_eq!(s.buf.capacity(), run_records as usize * 12, "the whole run, not a byte more");
    }

    #[test]
    fn empty_sorter_yields_nothing() {
        let e = env();
        let s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 12 * 50, key_of)
                .unwrap();
        assert_eq!(s.total, 0);
        let mut stream = s.finish().unwrap();
        let mut out = vec![0u8; 12];
        assert!(!stream.next_into(&mut out).unwrap());
    }

    #[test]
    fn single_run_in_memory_only() {
        let e = env();
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 12 * 1000, key_of)
                .unwrap();
        for k in [5.0, 1.0, 3.0] {
            s.push(&rec(k, 0)).unwrap();
        }
        let mut stream = s.finish().unwrap();
        let mut out = vec![0u8; 12];
        let mut got = Vec::new();
        while stream.next_into(&mut out).unwrap() {
            got.push(key_of(&out));
        }
        assert_eq!(got, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn sorter_rejects_bad_input() {
        let e = env();
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 12 * 50, key_of)
                .unwrap();
        assert!(s.push(&[0u8; 5]).is_err());
        assert!(s.push(&rec(f64::NAN, 0)).is_err());
        assert!(
            ExternalSorter::with_byte_budget(e.create_file("r2").unwrap(), 0, 600, key_of).is_err()
        );
        assert!(ExternalSorter::with_byte_budget(e.create_file("r3").unwrap(), 4000, 600, key_of)
            .is_err());
    }

    #[test]
    fn duplicate_keys_are_all_preserved() {
        // Ties leave in push order, within a run (the spill's unstable sort
        // breaks them by index) and across runs (the merge by run): the
        // order the golden build hashes rely on.
        let e = env();
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 16 * 16, key_of)
                .unwrap();
        for i in 0..100u32 {
            s.push(&rec(7.0, i)).unwrap();
        }
        assert_eq!(s.runs.len(), 6, "sixteen records a run");
        let mut stream = s.finish().unwrap();
        let mut out = vec![0u8; 12];
        let mut tags = Vec::new();
        while stream.next_into(&mut out).unwrap() {
            assert_eq!(key_of(&out), 7.0);
            tags.push(u32::from_le_bytes(out[8..12].try_into().unwrap()));
        }
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }
}
