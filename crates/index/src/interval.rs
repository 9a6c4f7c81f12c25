//! A disk-resident interval tree with stabbing queries — the backbone of
//! EXACT3 — built **bottom-up from lo-sorted streams**.
//!
//! The paper indexes the `N` interval-keyed entries
//! `(I⁻_{i,ℓ}, (g_{i,ℓ}, σ_i(I_{i,ℓ})))` in an external interval tree and
//! answers a query with **two stabbing queries** whose cost is
//! `O(log_B N + m/B)` IOs. Construction in the paper starts by sorting all
//! `N` segments externally (`O((N/B) log_B N)` IOs); this implementation
//! takes the same shape end to end:
//!
//! * **leaves** are written at fill rate 1.0 as the sorted stream arrives
//!   ([`IntervalBulkLoader`], the sweep-bptree pattern: never insert, only
//!   append). The stream is cut into **runs** of whole leaves; inside a
//!   run the entries are dealt to leaves by `hi`, each leaf keeps its
//!   entries in `lo` order, and the leaves are written in `min_lo` order;
//! * **inner levels** are stacked bottom-up; an inner node stores, per
//!   child, the page id plus two fences — the child subtree's minimum
//!   `lo` and maximum `hi` (a B-tree-order max-augmented interval tree);
//! * a **stab** at `t` walks the tree with an explicit work stack,
//!   descending exactly into subtrees with `min_lo ≤ t ≤ max_hi`. Leaves
//!   scan their lo-ascending prefix while `lo ≤ t` and report entries with
//!   `hi ≥ t`. The boundary path costs `O(log_B N)`.
//!
//! **The output term.** A run left of `t` is read only in the leaves whose
//! `max_hi` reaches `t` — the top of its `hi` order, `⌈its hits/B⌉` leaves
//! — while the run straddling `t` may be read whole. With runs of `w`
//! leaves and `R` = the leaves one longest interval spans in `lo` order
//! (`longest × density / B`), a stab pays its `⌈hits/B⌉` output plus
//! ≈ `R/w` clipped leaves plus ≈ `w`, least at `w² = R`. Substituting `R`
//! and `w` leaves = `w·B/density` of `lo` turns `w² = R` into the rule the
//! loader closes a run by, with no constant to tune:
//! `leaves × (last_lo − first_lo) ≥ longest interval in the run`.
//! Measured in cold blocks per stab against `⌈hits/B⌉` (pure `lo` order
//! in brackets): 31 vs 21.7 on a Temp shard of m = 2000 (46), 50 vs 13 on
//! Meme at m = 29 850 (240); a shared tick grid (Stock, random walks)
//! makes the two orders equal and the file the same to the byte.
//!
//! Nothing here recurses: the build and the stab are loops over explicit
//! stacks and a run is capped at `RUN_CAP_LEAVES`, so degenerate inputs
//! (all-identical intervals, fully nested endpoint chains) cannot blow the
//! call stack or the run buffer no matter how large `N` grows.
//!
//! **Appends** (the paper's right-edge update model) go to a chained tail
//! of blocks scanned lineally by stabs; [`IntervalTree::needs_rebuild`]
//! tells the owner when folding the tail into a fresh build is due, which
//! is how the paper amortizes update cost.
//!
//! Interval containment is **closed** (`lo ≤ t ≤ hi`); callers that need
//! half-open semantics (EXACT3 does, to get exactly one entry per object)
//! dedupe at shared endpoints.

use crate::bulk::FenceSpill;
use crate::error::{IndexError, Result};
use crate::extsort::total_order_bits;
use chronorank_storage::page::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};
use chronorank_storage::{PageId, PagedFile};

const META_MAGIC: u32 = 0x17EE_0002;
const LEAF_MAGIC: u32 = 0x17EE_00AA;
const INNER_MAGIC: u32 = 0x17EE_00BB;
const TAIL_MAGIC: u32 = 0x17EE_00DD;

/// Leaf and tail blocks share one header shape: magic, count, next-link
/// (leaves leave the link zero — they are physically consecutive).
const TAIL_HDR: usize = 4 + 4 + 8;
/// Inner node header: magic, child count.
const INNER_HDR: usize = 4 + 4;
/// Per-child fence record in an inner node: page, min lo, max hi.
const FENCE_LEN: usize = 8 + 8 + 8;

/// One interval-keyed entry.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalEntry {
    /// Left endpoint of the key interval.
    pub lo: f64,
    /// Right endpoint (≥ `lo`).
    pub hi: f64,
    /// Fixed-size payload bytes.
    pub payload: Vec<u8>,
}

/// Disk-based bottom-up interval tree (see module docs).
///
/// `Send + Sync`: a built tree is an immutable snapshot that any number of
/// threads may stab concurrently (block access is synchronized inside
/// [`PagedFile`]). Tail appends ([`IntervalTree::append`]) take
/// `&mut self`.
pub struct IntervalTree {
    file: PagedFile,
    payload_len: usize,
    root: PageId,
    n: u64,
    /// First and last tail blocks (0 = none).
    tail_head: PageId,
    tail_last: PageId,
    tail_count: u64,
    /// Entries folded into the main (static) tree.
    main_count: u64,
}

/// A run never buffers more leaves than this (1 MiB of 4 KiB blocks), so
/// all-equal `lo` keys cannot grow it without bound.
const RUN_CAP_LEAVES: usize = 256;

/// Streaming bottom-up builder: push entries in **nondecreasing `lo`
/// order** (an [`crate::ExternalSorter`] stream, typically) and leaves are
/// written at fill 1.0 as their run closes (module docs: "the output
/// term"); [`IntervalBulkLoader::finish`] stacks the inner levels over the
/// collected fences and returns the ready tree. Memory held during the
/// build is one run (≤ 256 leaves; twice that while it closes, entries
/// beside their leaf pages) plus one 24-byte fence per leaf (`O(N/B)`),
/// shrinking by the inner fanout per level.
/// ([`FenceSpill`] can cap the fence term, but no caller budgets it: the
/// type stays only while `benchmark/src/adapter.rs` pins it, and goes when
/// a `[benchmark]` PR re-pins.)
pub struct IntervalBulkLoader {
    file: PagedFile,
    payload_len: usize,
    /// The open run: `entry_len` records in push (= `lo`) order.
    run: Vec<u8>,
    /// Longest `hi − lo` in the open run.
    longest: f64,
    buf: Vec<u8>,
    /// `(min_lo, max_hi, page)` of every written leaf, in `min_lo` order.
    fences: FenceSpill,
    count: u64,
    last_lo: f64,
}

impl IntervalBulkLoader {
    /// Start a bulk load into `file` (freshly created; block 0 becomes the
    /// metadata page).
    pub fn new(file: PagedFile, payload_len: usize) -> Result<Self> {
        let block = file.block_size();
        if IntervalTree::entries_per_block(block, payload_len) < 1 {
            return Err(IndexError::BadInput(format!(
                "payload of {payload_len} bytes does not fit a {block}-byte block"
            )));
        }
        if (block - INNER_HDR) / FENCE_LEN < 2 {
            return Err(IndexError::BadInput(format!(
                "{block}-byte blocks cannot hold two child fences"
            )));
        }
        let meta = file.allocate(1)?;
        debug_assert_eq!(meta, 0);
        Ok(Self {
            run: Vec::new(),
            longest: 0.0,
            buf: vec![0u8; block],
            fences: FenceSpill::unbounded(),
            count: 0,
            last_lo: f64::NEG_INFINITY,
            file,
            payload_len,
        })
    }

    /// Append the next entry; `lo` must be ≥ every previously pushed `lo`.
    pub fn push(&mut self, lo: f64, hi: f64, payload: &[u8]) -> Result<()> {
        if payload.len() != self.payload_len {
            return Err(IndexError::BadInput(format!(
                "payload length {} != {}",
                payload.len(),
                self.payload_len
            )));
        }
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(IndexError::BadInput(format!("bad interval [{lo}, {hi}]")));
        }
        if lo < self.last_lo {
            return Err(IndexError::BadInput(format!(
                "bulk load requires nondecreasing lo keys: {lo} after {}",
                self.last_lo
            )));
        }
        self.last_lo = lo;
        self.run.extend_from_slice(&lo.to_le_bytes());
        self.run.extend_from_slice(&hi.to_le_bytes());
        self.run.extend_from_slice(payload);
        self.longest = self.longest.max(hi - lo);
        self.count += 1;
        let epb = IntervalTree::entries_per_block(self.file.block_size(), self.payload_len);
        let in_run = self.run.len() / IntervalTree::entry_len(self.payload_len);
        if in_run.is_multiple_of(epb) {
            let leaves = in_run / epb;
            let width = lo - get_f64(&self.run, 0);
            if leaves == RUN_CAP_LEAVES || leaves as f64 * width >= self.longest {
                self.close_run()?;
            }
        }
        Ok(())
    }

    /// Write the open run: deal its entries to leaves by `hi` (a stable
    /// sort of `(hi, index)` pairs, not of the records), then copy them out
    /// in `lo` (= index) order, each to its leaf. Every leaf so holds its
    /// entries in `lo` order, and writing the leaves in first-touch order
    /// keeps the fence sequence nondecreasing in `min_lo`.
    fn close_run(&mut self) -> Result<()> {
        let block = self.file.block_size();
        let elen = IntervalTree::entry_len(self.payload_len);
        let epb = IntervalTree::entries_per_block(block, self.payload_len);
        let mut order: Vec<(u64, u32)> = self
            .run
            .chunks_exact(elen)
            .zip(0..)
            .map(|(e, i)| (total_order_bits(get_f64(e, 8)), i))
            .collect();
        order.sort_unstable();
        let mut leaf_of = vec![0u32; order.len()];
        for (at, &(_, i)) in order.iter().enumerate() {
            leaf_of[i as usize] = (at / epb) as u32;
        }
        let leaves = order.len().div_ceil(epb);
        let mut pages = vec![0u8; leaves * block];
        let mut filled = vec![0usize; leaves];
        let mut touched: Vec<(usize, f64)> = Vec::with_capacity(leaves);
        for (entry, &leaf) in self.run.chunks_exact(elen).zip(&leaf_of) {
            let leaf = leaf as usize;
            if filled[leaf] == 0 {
                touched.push((leaf, get_f64(entry, 0)));
            }
            pages[leaf * block + TAIL_HDR + filled[leaf] * elen..][..elen].copy_from_slice(entry);
            filled[leaf] += 1;
        }
        for (leaf, min_lo) in touched {
            let buf = &mut pages[leaf * block..][..block];
            put_u32(buf, 0, LEAF_MAGIC);
            put_u32(buf, 4, filled[leaf] as u32);
            let (_, last) = order[leaf * epb + filled[leaf] - 1];
            let max_hi = get_f64(&self.run, last as usize * elen + 8);
            let page = self.file.allocate(1)?;
            self.file.write(page, buf)?;
            self.fences.push(min_lo, max_hi, page)?;
        }
        self.run.clear();
        self.longest = 0.0;
        Ok(())
    }

    /// Entries pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Write one inner node over `children` and return its own fence.
    fn write_inner(&mut self, children: &[(PageId, f64, f64)]) -> Result<(PageId, f64, f64)> {
        self.buf.fill(0);
        put_u32(&mut self.buf, 0, INNER_MAGIC);
        put_u32(&mut self.buf, 4, children.len() as u32);
        let mut min_lo = f64::INFINITY;
        let mut max_hi = f64::NEG_INFINITY;
        for (i, &(page, lo, hi)) in children.iter().enumerate() {
            let off = INNER_HDR + i * FENCE_LEN;
            put_u64(&mut self.buf, off, page);
            put_f64(&mut self.buf, off + 8, lo);
            put_f64(&mut self.buf, off + 16, hi);
            min_lo = min_lo.min(lo);
            max_hi = max_hi.max(hi);
        }
        let page = self.file.allocate(1)?;
        self.file.write(page, &self.buf)?;
        Ok((page, min_lo, max_hi))
    }

    /// Close the last run, stack the inner levels bottom-up, persist the
    /// metadata page, and return the finished tree.
    pub fn finish(mut self) -> Result<IntervalTree> {
        self.close_run()?;
        let per_inner = (self.file.block_size() - INNER_HDR) / FENCE_LEN;
        // The leaf-fence level is the only one that can exceed a fence
        // budget: stream it out of the (possibly spilled) queue chunk by
        // chunk. Levels above shrink by the inner fanout and fit in memory.
        let fences = std::mem::replace(&mut self.fences, FenceSpill::unbounded());
        let single_leaf = fences.len() <= 1;
        let mut replay = fences.replay()?;
        let mut level: Vec<(PageId, f64, f64)> = Vec::new();
        let mut chunk: Vec<(PageId, f64, f64)> = Vec::with_capacity(per_inner);
        loop {
            let item = replay.next()?;
            if let Some((lo, hi, page)) = item {
                chunk.push((page, lo, hi));
            }
            if single_leaf {
                level.append(&mut chunk);
            } else if chunk.len() == per_inner || (item.is_none() && !chunk.is_empty()) {
                level.push(self.write_inner(&chunk)?);
                chunk.clear();
            }
            if item.is_none() {
                break;
            }
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(per_inner));
            for group in level.chunks(per_inner) {
                next.push(self.write_inner(group)?);
            }
            level = next;
        }
        let root = level.first().map(|&(page, _, _)| page).unwrap_or(0);
        let tree = IntervalTree {
            file: self.file,
            payload_len: self.payload_len,
            root,
            n: self.count,
            tail_head: 0,
            tail_last: 0,
            tail_count: 0,
            main_count: self.count,
        };
        tree.write_meta()?;
        Ok(tree)
    }
}

impl IntervalTree {
    fn entry_len(payload_len: usize) -> usize {
        16 + payload_len
    }

    fn entries_per_block(block: usize, payload_len: usize) -> usize {
        (block - TAIL_HDR) / Self::entry_len(payload_len)
    }

    /// Build a tree over `entries` in `file` (freshly created): validate,
    /// sort by `lo`, and feed the [`IntervalBulkLoader`]. `entries` is
    /// consumed; the build is `O(N log N)` comparisons and `O(N/B)`
    /// writes. Callers that already hold a lo-sorted stream (EXACT3's
    /// external sort) should drive the loader directly.
    pub fn build(
        file: PagedFile,
        payload_len: usize,
        mut entries: Vec<IntervalEntry>,
    ) -> Result<Self> {
        for (i, e) in entries.iter().enumerate() {
            if e.payload.len() != payload_len {
                return Err(IndexError::BadInput(format!(
                    "entry {i}: payload length {} != {payload_len}",
                    e.payload.len()
                )));
            }
            if !(e.lo.is_finite() && e.hi.is_finite() && e.lo <= e.hi) {
                return Err(IndexError::BadInput(format!(
                    "entry {i}: bad interval [{}, {}]",
                    e.lo, e.hi
                )));
            }
        }
        entries.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        let mut loader = IntervalBulkLoader::new(file, payload_len)?;
        for e in &entries {
            loader.push(e.lo, e.hi, &e.payload)?;
        }
        loader.finish()
    }

    fn write_meta(&self) -> Result<()> {
        let mut buf = vec![0u8; self.file.block_size()];
        let mut o = put_u32(&mut buf, 0, META_MAGIC);
        o = put_u32(&mut buf, o, self.payload_len as u32);
        o = put_u64(&mut buf, o, self.root);
        o = put_u64(&mut buf, o, self.n);
        o = put_u64(&mut buf, o, self.tail_head);
        o = put_u64(&mut buf, o, self.tail_last);
        o = put_u64(&mut buf, o, self.tail_count);
        put_u64(&mut buf, o, self.main_count);
        self.file.write(0, &buf)?;
        Ok(())
    }

    /// Open a tree previously built in `file`.
    pub fn open(file: PagedFile) -> Result<Self> {
        let mut buf = vec![0u8; file.block_size()];
        file.read(0, &mut buf)?;
        if get_u32(&buf, 0) != META_MAGIC {
            return Err(IndexError::Corrupt("not an interval-tree file".into()));
        }
        let payload_len = get_u32(&buf, 4) as usize;
        Ok(Self {
            payload_len,
            root: get_u64(&buf, 8),
            n: get_u64(&buf, 16),
            tail_head: get_u64(&buf, 24),
            tail_last: get_u64(&buf, 32),
            tail_count: get_u64(&buf, 40),
            main_count: get_u64(&buf, 48),
            file,
        })
    }

    /// Total entries (static tree + tail).
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries waiting in the append tail.
    pub fn tail_len(&self) -> u64 {
        self.tail_count
    }

    /// Bytes allocated on the device.
    pub fn size_bytes(&self) -> u64 {
        self.file.size_bytes()
    }

    /// The backing file (cache control / IO accounting).
    pub fn file(&self) -> &PagedFile {
        &self.file
    }

    /// Flush dirty pages and persist metadata.
    pub fn flush(&self) -> Result<()> {
        self.write_meta()?;
        self.file.flush()?;
        Ok(())
    }

    /// True when the append tail has outgrown the amortization threshold
    /// (10 % of the static tree, min 256 entries) and the owner should
    /// rebuild — the paper's rebuild-on-doubling policy uses the same hook.
    pub fn needs_rebuild(&self) -> bool {
        let tail = self.tail_count;
        tail > 256.max(self.main_count / 10)
    }

    /// Visit every entry whose closed interval contains `t`:
    /// `visit(lo, hi, payload)`. Iterative — an explicit work stack of
    /// page ids bounded by `height × fanout`, never the call stack.
    pub fn stab(&self, t: f64, visit: &mut dyn FnMut(f64, f64, &[u8])) -> Result<()> {
        let block = self.file.block_size();
        let elen = Self::entry_len(self.payload_len);
        let mut buf = vec![0u8; block];
        let mut stack: Vec<PageId> = Vec::new();
        let root = self.root;
        if root != 0 {
            stack.push(root);
        }
        while let Some(page) = stack.pop() {
            self.file.read(page, &mut buf)?;
            match get_u32(&buf, 0) {
                INNER_MAGIC => {
                    let count = get_u32(&buf, 4) as usize;
                    for i in 0..count {
                        let off = INNER_HDR + i * FENCE_LEN;
                        let min_lo = get_f64(&buf, off + 8);
                        if min_lo > t {
                            // Children are in lo order; the rest start
                            // strictly after t and cannot contain it.
                            break;
                        }
                        if get_f64(&buf, off + 16) >= t {
                            stack.push(get_u64(&buf, off));
                        }
                    }
                }
                LEAF_MAGIC => {
                    let count = get_u32(&buf, 4) as usize;
                    for i in 0..count {
                        let off = TAIL_HDR + i * elen;
                        let lo = get_f64(&buf, off);
                        if lo > t {
                            break;
                        }
                        let hi = get_f64(&buf, off + 8);
                        if hi >= t {
                            visit(lo, hi, &buf[off + 16..off + 16 + self.payload_len]);
                        }
                    }
                }
                _ => return Err(IndexError::Corrupt("bad interval node magic".into())),
            }
        }
        // Tail scan: the append log is small by the rebuild invariant.
        let mut blk = self.tail_head;
        while blk != 0 {
            self.file.read(blk, &mut buf)?;
            if get_u32(&buf, 0) != TAIL_MAGIC {
                return Err(IndexError::Corrupt("bad tail block magic".into()));
            }
            let cnt = get_u32(&buf, 4) as usize;
            for i in 0..cnt {
                let off = TAIL_HDR + i * elen;
                let lo = get_f64(&buf, off);
                let hi = get_f64(&buf, off + 8);
                if lo <= t && t <= hi {
                    visit(lo, hi, &buf[off + 16..off + 16 + self.payload_len]);
                }
            }
            blk = get_u64(&buf, 8);
        }
        Ok(())
    }

    /// Append an entry to the tail (`O(1)` amortized block writes — the
    /// paper's `O(log_B N)` bound is dominated by this plus the eventual
    /// amortized rebuild).
    pub fn append(&mut self, lo: f64, hi: f64, payload: &[u8]) -> Result<()> {
        if payload.len() != self.payload_len {
            return Err(IndexError::BadInput("payload length mismatch".into()));
        }
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(IndexError::BadInput(format!("bad interval [{lo}, {hi}]")));
        }
        let block = self.file.block_size();
        let epb = Self::entries_per_block(block, self.payload_len);
        let elen = Self::entry_len(self.payload_len);
        let mut buf = vec![0u8; block];
        let last = self.tail_last;
        let mut target = last;
        let mut count_in_block = 0usize;
        if last != 0 {
            self.file.read(last, &mut buf)?;
            count_in_block = get_u32(&buf, 4) as usize;
        }
        if last == 0 || count_in_block == epb {
            // Start a new tail block and link it in.
            let new_blk = self.file.allocate(1)?;
            if last != 0 {
                put_u64(&mut buf, 8, new_blk);
                self.file.write(last, &buf)?;
            } else {
                self.tail_head = new_blk;
            }
            buf.fill(0);
            put_u32(&mut buf, 0, TAIL_MAGIC);
            put_u32(&mut buf, 4, 0);
            put_u64(&mut buf, 8, 0);
            self.tail_last = new_blk;
            target = new_blk;
            count_in_block = 0;
        }
        let off = TAIL_HDR + count_in_block * elen;
        put_f64(&mut buf, off, lo);
        put_f64(&mut buf, off + 8, hi);
        buf[off + 16..off + 16 + self.payload_len].copy_from_slice(payload);
        put_u32(&mut buf, 4, (count_in_block + 1) as u32);
        self.file.write(target, &buf)?;
        self.tail_count += 1;
        self.n += 1;
        self.write_meta()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::{Env, StoreConfig};

    fn env() -> Env {
        Env::mem(StoreConfig { block_size: 256, pool_capacity: 64 })
    }

    fn entry(lo: f64, hi: f64, tag: u32) -> IntervalEntry {
        IntervalEntry { lo, hi, payload: tag.to_le_bytes().to_vec() }
    }

    fn stab_tags(tree: &IntervalTree, t: f64) -> Vec<u32> {
        let mut out = Vec::new();
        tree.stab(t, &mut |_, _, p| out.push(u32::from_le_bytes(p.try_into().unwrap()))).unwrap();
        out.sort();
        out
    }

    /// Every closed interval of `entries` containing `t`, by tag.
    fn brute_tags(entries: &[(f64, f64)], t: f64) -> Vec<u32> {
        (0u32..).zip(entries).filter(|(_, e)| e.0 <= t && t <= e.1).map(|(i, _)| i).collect()
    }

    #[test]
    fn budgeted_bulk_load_is_bit_identical() {
        // Spilling leaf fences to scratch must not change one byte of the
        // tree file, and every stab must equal brute force: around one
        // block (B = 12 entries here), over many runs, and on the shapes
        // that hold a run open — to the cap when every `lo` is equal.
        let e = env();
        let ramp = |n: u32| (0..n).map(|i| ((i / 2) as f64, (i / 2 + 5 + i % 7) as f64)).collect();
        let mut inputs: Vec<(String, Vec<(f64, f64)>)> =
            [0u32, 1, 11, 12, 13, 900].iter().map(|&n| (format!("ramp{n}"), ramp(n))).collect();
        let n = (RUN_CAP_LEAVES as u32 + 40) * 12 + 5;
        inputs.push(("equal_lo".into(), (0..n).map(|i| (3.0, 3.0 + (i % 37) as f64)).collect()));
        inputs.push(("equal_interval".into(), (0..n).map(|_| (1.0, 2.0)).collect()));
        inputs.push(("nested".into(), (0..n).map(|i| (i as f64, (2 * n - i) as f64)).collect()));
        for (name, entries) in &inputs {
            let mut plain =
                IntervalBulkLoader::new(e.create_file(&format!("plain_{name}")).unwrap(), 4)
                    .unwrap();
            let mut tight =
                IntervalBulkLoader::new(e.create_file(&format!("tight_{name}")).unwrap(), 4)
                    .unwrap();
            tight.fences =
                FenceSpill::budgeted(e.create_file(&format!("scratch_{name}")).unwrap(), 3)
                    .unwrap();
            for (i, &(lo, hi)) in (0u32..).zip(entries) {
                plain.push(lo, hi, &i.to_le_bytes()).unwrap();
                tight.push(lo, hi, &i.to_le_bytes()).unwrap();
            }
            let ta = plain.finish().unwrap();
            let tb = tight.finish().unwrap();
            assert_eq!(ta.file.num_blocks(), tb.file.num_blocks(), "{name}");
            let block = ta.file.block_size();
            let (mut ba, mut bb) = (vec![0u8; block], vec![0u8; block]);
            let mut leaves = 0;
            for id in 0..ta.file.num_blocks() {
                ta.file.read(id, &mut ba).unwrap();
                tb.file.read(id, &mut bb).unwrap();
                assert_eq!(ba, bb, "block {id} differs on {name}");
                leaves += (get_u32(&ba, 0) == LEAF_MAGIC) as usize;
            }
            assert_eq!(leaves, entries.len().div_ceil(12), "{name}: leaves stay at fill 1.0");
            let last = entries.last().map_or(0.0, |e| e.0);
            for probe in [0.0, 1.5, 3.0, 3.5, 21.0, 100.0, 449.0, last, last + 7.0, 1e6] {
                assert_eq!(stab_tags(&ta, probe), brute_tags(entries, probe), "{name} t={probe}");
                assert_eq!(stab_tags(&tb, probe), brute_tags(entries, probe), "{name} t={probe}");
            }
        }
    }

    #[test]
    fn stab_small_handmade_tree() {
        let e = env();
        let entries = vec![
            entry(0.0, 10.0, 1),
            entry(5.0, 15.0, 2),
            entry(12.0, 20.0, 3),
            entry(0.0, 3.0, 4),
            entry(18.0, 25.0, 5),
        ];
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        assert_eq!(tree.len(), 5);
        assert_eq!(stab_tags(&tree, 1.0), vec![1, 4]);
        assert_eq!(stab_tags(&tree, 7.0), vec![1, 2]);
        assert_eq!(stab_tags(&tree, 13.0), vec![2, 3]);
        assert_eq!(stab_tags(&tree, 19.0), vec![3, 5]);
        assert_eq!(stab_tags(&tree, 30.0), Vec::<u32>::new());
        // Endpoints are inclusive.
        assert_eq!(stab_tags(&tree, 10.0), vec![1, 2]);
        assert_eq!(stab_tags(&tree, 3.0), vec![1, 4]);
    }

    #[test]
    fn stab_matches_brute_force_on_random_intervals() {
        let e = env();
        let mut x = 42u64;
        let mut rnd = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for i in 0..800u32 {
            // One interval in ten is ten times longer: runs of several
            // leaves, each with a few entries that outlive the rest; half
            // the keys are negative (the `hi` sort orders them as bits).
            let lo = rnd() * 1000.0 - 500.0;
            let hi = lo + rnd() * if i % 10 == 0 { 1000.0 } else { 100.0 };
            entries.push(entry(lo, hi, i));
        }
        let reference = entries.clone();
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        // A grid, then every 16th entry's own endpoints (closed on both).
        let grid = (0..200).map(|probe| probe as f64 * 10.5 - 500.0);
        let ends = reference.iter().step_by(16).flat_map(|e| [e.lo, e.hi]).collect::<Vec<_>>();
        for t in grid.chain(ends) {
            let got = stab_tags(&tree, t);
            let mut want: Vec<u32> = reference
                .iter()
                .filter(|e| e.lo <= t && t <= e.hi)
                .map(|e| u32::from_le_bytes(e.payload.as_slice().try_into().unwrap()))
                .collect();
            want.sort();
            assert_eq!(got, want, "probe t={t}");
        }
    }

    #[test]
    fn empty_tree_stabs_nothing() {
        let e = env();
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, vec![]).unwrap();
        assert!(tree.is_empty());
        assert_eq!(stab_tags(&tree, 5.0), Vec::<u32>::new());
    }

    #[test]
    fn build_rejects_bad_entries() {
        let e = env();
        let bad = vec![entry(5.0, 1.0, 0)];
        assert!(IntervalTree::build(e.create_file("a").unwrap(), 4, bad).is_err());
        let bad = vec![IntervalEntry { lo: 0.0, hi: 1.0, payload: vec![0u8; 7] }];
        assert!(IntervalTree::build(e.create_file("b").unwrap(), 4, bad).is_err());
        let bad = vec![entry(f64::NAN, 1.0, 0)];
        assert!(IntervalTree::build(e.create_file("c").unwrap(), 4, bad).is_err());
    }

    #[test]
    fn bulk_loader_rejects_out_of_order_keys() {
        let e = env();
        let mut loader = IntervalBulkLoader::new(e.create_file("bl").unwrap(), 4).unwrap();
        loader.push(5.0, 6.0, &0u32.to_le_bytes()).unwrap();
        loader.push(5.0, 9.0, &1u32.to_le_bytes()).unwrap(); // ties are fine
        assert!(loader.push(4.0, 10.0, &2u32.to_le_bytes()).is_err());
    }

    #[test]
    fn bulk_loaded_stream_equals_vec_build() {
        // The loader fed a lo-sorted stream must answer identically to
        // `build` over the same entries in arbitrary order.
        let e = env();
        let mut x = 7u64;
        let mut rnd = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut entries = Vec::new();
        for i in 0..500u32 {
            let lo = rnd() * 800.0;
            entries.push(entry(lo, lo + rnd() * 120.0, i));
        }
        let built = IntervalTree::build(e.create_file("vec").unwrap(), 4, entries.clone()).unwrap();
        entries.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        let mut loader = IntervalBulkLoader::new(e.create_file("stream").unwrap(), 4).unwrap();
        for en in &entries {
            loader.push(en.lo, en.hi, &en.payload).unwrap();
        }
        let loaded = loader.finish().unwrap();
        assert_eq!(loaded.len(), built.len());
        for probe in 0..90 {
            let t = probe as f64 * 9.7;
            assert_eq!(stab_tags(&loaded, t), stab_tags(&built, t), "probe t={t}");
        }
    }

    #[test]
    fn appended_entries_are_stabbed() {
        let e = env();
        let entries = vec![entry(0.0, 10.0, 1)];
        let mut tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        for i in 0..50u32 {
            let lo = 10.0 + i as f64;
            tree.append(lo, lo + 2.0, &(100 + i).to_le_bytes()).unwrap();
        }
        assert_eq!(tree.len(), 51);
        assert_eq!(tree.tail_len(), 50);
        // t=30.5 hits appended intervals [29,31] and [30,32].
        assert_eq!(stab_tags(&tree, 30.5), vec![119, 120]);
        // Static entry still found.
        assert_eq!(stab_tags(&tree, 5.0), vec![1]);
        // Boundary overlap between static and tail.
        assert_eq!(stab_tags(&tree, 10.0), vec![1, 100]);
    }

    #[test]
    fn needs_rebuild_after_many_appends() {
        let e = env();
        let entries = vec![entry(0.0, 1.0, 0)];
        let mut tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        assert!(!tree.needs_rebuild());
        for i in 0..300u32 {
            tree.append(i as f64, i as f64 + 1.0, &i.to_le_bytes()).unwrap();
        }
        assert!(tree.needs_rebuild());
    }

    #[test]
    fn open_round_trips_with_tail() {
        let e = env();
        let entries = vec![entry(0.0, 10.0, 1), entry(5.0, 7.0, 2)];
        let mut tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        tree.append(10.0, 12.0, &3u32.to_le_bytes()).unwrap();
        tree.flush().unwrap();
        let file = {
            let IntervalTree { file, .. } = tree;
            file
        };
        let tree2 = IntervalTree::open(file).unwrap();
        assert_eq!(tree2.len(), 3);
        assert_eq!(stab_tags(&tree2, 6.0), vec![1, 2]);
        assert_eq!(stab_tags(&tree2, 11.0), vec![3]);
    }

    #[test]
    fn duplicate_intervals_all_reported() {
        let e = env();
        let entries = (0..40).map(|i| entry(1.0, 2.0, i)).collect();
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        assert_eq!(stab_tags(&tree, 1.5).len(), 40);
    }

    #[test]
    fn point_intervals_work() {
        let e = env();
        let entries = vec![entry(5.0, 5.0, 1), entry(0.0, 10.0, 2)];
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        assert_eq!(stab_tags(&tree, 5.0), vec![1, 2]);
        assert_eq!(stab_tags(&tree, 5.1), vec![2]);
    }

    #[test]
    fn stab_output_cost_scales_with_matches_not_size() {
        // Output-sensitivity: a stab that matches k intervals out of N must
        // not scan all N. Layout: many disjoint short intervals plus a few
        // long ones covering the probe.
        let e = Env::mem(StoreConfig { block_size: 4096, pool_capacity: 4096 });
        let mut entries = Vec::new();
        for i in 0..20_000u32 {
            let lo = i as f64 * 10.0;
            entries.push(entry(lo, lo + 5.0, i));
        }
        for i in 0..32u32 {
            entries.push(entry(0.0, 300_000.0, 1_000_000 + i));
        }
        let tree = IntervalTree::build(e.create_file("it").unwrap(), 4, entries).unwrap();
        tree.file().drop_cache().unwrap();
        e.reset_io();
        let got = stab_tags(&tree, 100_006.0); // inside a gap: only the long ones
        assert_eq!(got.len(), 32);
        let reads = e.io_stats().reads;
        assert!(reads < 64, "stab read {reads} blocks for 32 matches");
    }

    #[test]
    fn degenerate_inputs_build_and_stab_without_recursion() {
        // Regression for the old recursive `build_rec`: 10⁵ all-identical
        // intervals (every one pinned at the median endpoint) and 10⁵
        // fully nested intervals (a linear containment chain) both used to
        // risk linear recursion depth. The whole build + stab now runs in
        // a 512 KiB stack because nothing recurses; the identical set never
        // meets the run rule (zero `lo` width), so every run ends at the cap.
        let run = || {
            let e = Env::mem(StoreConfig { block_size: 4096, pool_capacity: 256 });
            let n: u32 = 100_000;
            let identical: Vec<_> = (0..n).map(|i| entry(5.0, 6.0, i)).collect();
            let tree = IntervalTree::build(e.create_file("same").unwrap(), 4, identical).unwrap();
            let mut hits = 0u64;
            tree.stab(5.0, &mut |_, _, _| hits += 1).unwrap();
            assert_eq!(hits, n as u64);
            let nested: Vec<_> = (0..n).map(|i| entry(i as f64, (2 * n - i) as f64, i)).collect();
            let tree = IntervalTree::build(e.create_file("nested").unwrap(), 4, nested).unwrap();
            let mut hits = 0u64;
            tree.stab(n as f64, &mut |_, _, _| hits += 1).unwrap();
            assert_eq!(hits, n as u64);
        };
        std::thread::Builder::new()
            .name("degenerate-build".into())
            .stack_size(512 * 1024)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }
}
