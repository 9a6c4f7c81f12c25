//! Run-based external merge sort and a buffered external priority queue.
//!
//! Every construction in the paper begins by sorting all `N` segments
//! (`O((N/B) log_B N)` IOs); BREAKPOINTS2 and the QUERY1/QUERY2 sweeps
//! additionally use IO-efficient priority queues [Brodal–Katajainen].
//! These are the corresponding substrates:
//!
//! * [`ExternalSorter`] — push fixed-size records in any order; memory-full
//!   batches are sorted and spilled as block runs; `finish` returns a
//!   k-way-merged sorted stream.
//! * [`ExternalPq`] — a min-queue on `f64` keys whose overflow spills to
//!   sorted runs; pops merge the in-memory heap with the run heads.
//!
//! Records are opaque byte strings of a fixed length; callers provide a key
//! extractor.

use crate::error::{IndexError, Result};
use chronorank_storage::page::{get_u32, put_u32};
use chronorank_storage::{PageId, PagedFile};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

const RUN_HDR: usize = 4; // record count within the block

/// Locate record ordinal `pos` of a run: `(block index, slot within
/// block)`. Kept as a free helper so the arithmetic is testable at
/// paper-scale ordinals: a single sorted run at `N = 10⁸⁺` segments can
/// hold more than 2³² records, so every term here must stay `u64` — a
/// careless `usize` multiply would wrap on 32-bit hosts.
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
fn write_run(file: &PagedFile, record_len: usize, records: &[&[u8]]) -> Result<Run> {
    let block = file.block_size();
    let per_block = (block - RUN_HDR) / record_len;
    let blocks = records.len().div_ceil(per_block).max(1);
    let start = file.allocate(blocks as u64)?;
    let mut buf = vec![0u8; block];
    for (b, chunk) in records.chunks(per_block).enumerate() {
        buf.fill(0);
        put_u32(&mut buf, 0, chunk.len() as u32);
        for (i, rec) in chunk.iter().enumerate() {
            let off = RUN_HDR + i * record_len;
            buf[off..off + record_len].copy_from_slice(rec);
        }
        file.write(start + b as u64, &buf)?;
    }
    Ok(Run { start, records: records.len() as u64 })
}

/// Sequential reader over one spilled run.
pub struct RunCursor {
    run: Run,
    record_len: usize,
    per_block: usize,
    buf: Vec<u8>,
    /// Next record ordinal within the run.
    pos: u64,
    /// Block currently decoded into `buf` (`u64::MAX` = none yet).
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
            let count = get_u32(&self.buf, 0) as u64;
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

    /// The record the last `next` returned: it stays in the block buffer
    /// until the following `next`.
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
    /// `file` must be a fresh scratch file (`Env::create_scratch`: it goes
    /// away with the sorter or its `SortedStream`). `budget_bytes` (a
    /// `ScaleBudget` sort share) caps the run length at
    /// `budget_bytes / record_len` records — never fewer than 16, so a
    /// degenerate budget still sorts.
    /// Only the run length is capped: the buffer grows as records arrive,
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
        let run_records = (budget_bytes / record_len as u64).clamp(16, usize::MAX as u64) as usize;
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
        self.buf.extend_from_slice(rec);
        self.total += 1;
        if self.buf.len() / self.record_len >= self.run_records {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let rl = self.record_len;
        let mut order: Vec<usize> = (0..self.buf.len() / rl).collect();
        order.sort_by(|&a, &b| {
            let ka = (self.key_fn)(&self.buf[a * rl..(a + 1) * rl]);
            let kb = (self.key_fn)(&self.buf[b * rl..(b + 1) * rl]);
            ka.total_cmp(&kb)
        });
        let refs: Vec<&[u8]> = order.iter().map(|&i| &self.buf[i * rl..(i + 1) * rl]).collect();
        let run = write_run(&self.file, rl, &refs)?;
        self.runs.push(run);
        self.buf.clear();
        Ok(())
    }

    /// Total records pushed so far.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
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

struct HeapEntry {
    key: f64,
    run: usize,
    rec: Vec<u8>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq() && self.run == other.run
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.total_cmp(&other.key).then(self.run.cmp(&other.run))
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
    /// Records not yet emitted.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

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

/// A buffered external min-priority-queue on `f64` keys with fixed-size
/// payloads. Pushes beyond the memory budget spill to sorted runs; pops
/// merge the in-memory heap with the run heads.
pub struct ExternalPq {
    file: PagedFile,
    payload_len: usize,
    mem_budget: usize,
    mem: BinaryHeap<Reverse<HeapEntry>>,
    cursors: Vec<RunCursor>,
    /// Head of each spilled run, refilled on pop (run index mirrors
    /// `cursors`).
    run_heads: BinaryHeap<Reverse<HeapEntry>>,
    len: u64,
}

impl ExternalPq {
    /// `file` must be a fresh scratch file.
    pub fn new(file: PagedFile, payload_len: usize, mem_budget: usize) -> Result<Self> {
        let record_len = 8 + payload_len;
        if record_len > file.block_size() - RUN_HDR {
            return Err(IndexError::BadInput("payload too large for block".into()));
        }
        Ok(Self {
            file,
            payload_len,
            mem_budget: mem_budget.max(16),
            mem: BinaryHeap::new(),
            cursors: Vec::new(),
            run_heads: BinaryHeap::new(),
            len: 0,
        })
    }

    /// Number of queued items.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item.
    pub fn push(&mut self, key: f64, payload: &[u8]) -> Result<()> {
        if payload.len() != self.payload_len {
            return Err(IndexError::BadInput("payload length mismatch".into()));
        }
        if !key.is_finite() {
            return Err(IndexError::BadInput("key must be finite".into()));
        }
        let mut rec = Vec::with_capacity(8 + self.payload_len);
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(payload);
        self.mem.push(Reverse(HeapEntry { key, run: usize::MAX, rec }));
        self.len += 1;
        if self.mem.len() > self.mem_budget {
            self.spill()?;
        }
        Ok(())
    }

    /// Spill the in-memory heap as one sorted run.
    fn spill(&mut self) -> Result<()> {
        let mut items: Vec<HeapEntry> =
            std::mem::take(&mut self.mem).into_sorted_vec().into_iter().map(|r| r.0).collect();
        items.sort_by(|a, b| a.key.total_cmp(&b.key));
        let record_len = 8 + self.payload_len;
        let refs: Vec<&[u8]> = items.iter().map(|e| e.rec.as_slice()).collect();
        let run = write_run(&self.file, record_len, &refs)?;
        let run_idx = self.cursors.len();
        let mut cursor = RunCursor::new(run, record_len, self.file.block_size());
        if let Some(rec) = cursor.next(&self.file)? {
            let key = f64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let rec = rec.to_vec();
            self.run_heads.push(Reverse(HeapEntry { key, run: run_idx, rec }));
        }
        self.cursors.push(cursor);
        Ok(())
    }

    /// Remove and return the minimum-key item.
    pub fn pop_min(&mut self) -> Result<Option<(f64, Vec<u8>)>> {
        let mem_key = self.mem.peek().map(|r| r.0.key);
        let run_key = self.run_heads.peek().map(|r| r.0.key);
        let from_mem = match (mem_key, run_key) {
            (None, None) => return Ok(None),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(m), Some(r)) => m.total_cmp(&r).is_le(),
        };
        self.len -= 1;
        if from_mem {
            let e = self.mem.pop().expect("peeked").0;
            return Ok(Some((e.key, e.rec[8..].to_vec())));
        }
        let e = self.run_heads.pop().expect("peeked").0;
        if let Some(rec) = self.cursors[e.run].next(&self.file)? {
            let key = f64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let rec = rec.to_vec();
            self.run_heads.push(Reverse(HeapEntry { key, run: e.run, rec }));
        }
        Ok(Some((e.key, e.rec[8..].to_vec())))
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
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 12 * 50, key_of)
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
        assert_eq!(s.len(), 2000);
        assert_eq!(s.runs.len(), 40, "the budget caps every run at 50 records");
        let mut stream = s.finish().unwrap();
        keys.sort_by(f64::total_cmp);
        let mut out = vec![0u8; 12];
        for want in &keys {
            assert!(stream.next_into(&mut out).unwrap());
            assert_eq!(key_of(&out), *want);
        }
        assert!(!stream.next_into(&mut out).unwrap());
        assert_eq!(stream.remaining(), 0);
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
        // 600 bytes / 12-byte records → 50-record runs: ten spills.
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
        assert!(tiny.is_empty());
    }

    #[test]
    fn a_huge_budget_reserves_nothing_up_front() {
        // Regression: the budget used to be reserved whole at construction
        // (an allocation abort at this size). It caps the run length only.
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
    fn empty_sorter_yields_nothing() {
        let e = env();
        let s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 12 * 50, key_of)
                .unwrap();
        assert!(s.is_empty());
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
        let e = env();
        let mut s =
            ExternalSorter::with_byte_budget(e.create_file("runs").unwrap(), 12, 12 * 20, key_of)
                .unwrap();
        for i in 0..100u32 {
            s.push(&rec(7.0, i)).unwrap();
        }
        let mut stream = s.finish().unwrap();
        let mut out = vec![0u8; 12];
        let mut seen = std::collections::HashSet::new();
        while stream.next_into(&mut out).unwrap() {
            assert_eq!(key_of(&out), 7.0);
            seen.insert(u32::from_le_bytes(out[8..12].try_into().unwrap()));
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn pq_orders_interleaved_push_pop() {
        let e = env();
        let mut pq = ExternalPq::new(e.create_file("pq").unwrap(), 4, 16).unwrap();
        for k in [9.0, 2.0, 7.0, 4.0] {
            pq.push(k, &1u32.to_le_bytes()).unwrap();
        }
        assert_eq!(pq.pop_min().unwrap().unwrap().0, 2.0);
        pq.push(1.0, &2u32.to_le_bytes()).unwrap();
        assert_eq!(pq.pop_min().unwrap().unwrap().0, 1.0);
        assert_eq!(pq.pop_min().unwrap().unwrap().0, 4.0);
        assert_eq!(pq.len(), 2);
    }

    #[test]
    fn pq_spills_and_still_orders() {
        let e = env();
        let mut pq = ExternalPq::new(e.create_file("pq").unwrap(), 4, 16).unwrap();
        let mut x = 99u64;
        for i in 0..500u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (x >> 20) as f64;
            pq.push(k, &i.to_le_bytes()).unwrap();
        }
        assert!(e.io_stats().writes > 0, "must have spilled to the device");
        let mut prev = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((k, _)) = pq.pop_min().unwrap() {
            assert!(k >= prev, "{k} < {prev}");
            prev = k;
            n += 1;
        }
        assert_eq!(n, 500);
        assert!(pq.is_empty());
    }

    #[test]
    fn pq_rejects_bad_input() {
        let e = env();
        let mut pq = ExternalPq::new(e.create_file("pq").unwrap(), 4, 16).unwrap();
        assert!(pq.push(1.0, &[0u8; 3]).is_err());
        assert!(pq.push(f64::INFINITY, &[0u8; 4]).is_err());
        assert!(ExternalPq::new(e.create_file("pq2").unwrap(), 4000, 16).is_err());
    }
}
