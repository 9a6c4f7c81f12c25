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
//!   append). The stream is split by length into a main stream and one
//!   stream per length band of outlier-long entries, and each stream is cut
//!   into **runs** of whole leaves; inside a run the entries are dealt to
//!   leaves by `hi`, and each leaf keeps its entries in `lo` order;
//! * **inner levels** are stacked bottom-up over the leaves sorted by
//!   `min_lo`; an inner node stores, per child, the page id plus two
//!   fences — the child subtree's minimum `lo` and maximum `hi` (a
//!   B-tree-order max-augmented interval tree);
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
//! and `w` leaves = `w·B/density` of `lo` turns `w² = R` into the rule a
//! run closes by, with no constant to tune:
//! `leaves × (last_lo − first_lo) ≥ longest interval in the run`.
//!
//! That rule lets the longest entry set the width of every run, which is
//! wrong when lengths span orders of magnitude: on Meme (records bunch
//! after an object's birth and thin out in its tail) a few long tails
//! widen each run, and each older run they outlive keeps one mostly dead
//! leaf that every later stab reads. So the loader holds one open run
//! **per stream**. An entry longer than 8× the median length of the main
//! stream's last closed run goes to the run of its band `⌊log₈ len⌋`;
//! every other entry goes to the main run. Each run closes by the rule
//! above, so long tails land in leaves full of long-lived entries, and a
//! query's two stabs often share those leaves. At `finish` each band run
//! writes its whole leaves and its partial rest joins the main run, which
//! closes last: the tree has one partial leaf, `⌈N/B⌉` leaves in all, the
//! size a single stream would write. Leaves are written as runs close, so
//! their fences are sorted by `min_lo` before the inner levels are
//! stacked; inner nodes stay in `min_lo` order, which a stab's early exit
//! needs. Data of one length scale (Temp, Stock, random walks) never
//! divert and write the bytes a single stream writes.
//!
//! Measured in cold blocks per stab against `⌈hits/B⌉` (pure `lo` order
//! in brackets): 31 vs 21.7 on a Temp shard of m = 2000 (46); on Meme
//! (m = 4000, 100 probes, `tests/stab_reads.rs`) 1,012 blocks where one
//! stream read 1,377 (3,350); EXACT3 on the benchmark's `paper_build`
//! (Meme, m = 29 850, two stabs a query) ≈ 65 blocks a query where one
//! stream read ≈ 99.
//!
//! Nothing here recurses: the build and the stab are loops over explicit
//! stacks and the open runs share a cap of `RUN_CAP_LEAVES`, so
//! degenerate inputs (all-identical intervals, fully nested endpoint
//! chains) cannot blow the call stack or the run buffers no matter how
//! large `N` grows.
//!
//! **Appends** (the paper's right-edge update model) go to a chained tail
//! of blocks scanned lineally by stabs; [`IntervalTree::needs_rebuild`]
//! tells the owner when folding the tail into a fresh build is due, which
//! is how the paper amortizes update cost.
//!
//! Interval containment is **closed** (`lo ≤ t ≤ hi`); callers that need
//! half-open semantics (EXACT3 does, to get exactly one entry per object)
//! dedupe at shared endpoints.

use crate::error::{IndexError, Result};
use crate::extsort::total_order_bits;
use chronorank_storage::page::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};
use chronorank_storage::{Page, PageId, PagedFile};

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

/// The open runs together never hold more whole leaves than this (1 MiB
/// of 4 KiB blocks), so all-equal `lo` keys cannot grow them without bound.
const RUN_CAP_LEAVES: usize = 256;

/// An entry longer than this many times the median length of the main
/// stream's last closed run is sent to its band's stream; a band spans one
/// power of the same factor (module docs: "the output term").
const DIVERT: f64 = 8.0;

/// The band of a diverted length: `⌊log₈ len⌋`.
fn band_of(len: f64) -> i32 {
    (len.log2().floor() as i32).div_euclid(3)
}

/// One stream's open run: `entry_len` records in push (= `lo`) order.
#[derive(Default)]
struct Run {
    entries: Vec<u8>,
    /// Longest `hi − lo` among them.
    longest: f64,
}

impl Run {
    /// Whole leaves among the entries, for leaves of `leaf_bytes`.
    fn whole_leaves(&self, leaf_bytes: usize) -> usize {
        self.entries.len() / leaf_bytes
    }
}

/// Streaming bottom-up builder: push entries in **nondecreasing `lo`
/// order** (an [`crate::ExternalSorter`] stream, typically) and leaves are
/// written at fill 1.0 as their run closes (module docs: "the output
/// term"); [`IntervalBulkLoader::finish`] stacks the inner levels over the
/// collected fences and returns the ready tree.
///
/// Memory held during the build: the open runs buffer at most 256 whole
/// leaves of entries between them plus one partial leaf per stream —
/// the cap counts every stream's leaves together, so a many-band input
/// cannot multiply it, and a band's buffer is freed when its run empties.
/// A closing run holds its entries beside their leaf pages, twice its own
/// size. Beside the runs, one 24-byte fence per leaf (`O(N/B)`), shrinking
/// by the inner fanout per level.
pub struct IntervalBulkLoader {
    file: PagedFile,
    payload_len: usize,
    /// The main stream's open run.
    main: Run,
    /// One open run per band `⌊log₈ len⌋` of diverted entries, in opening
    /// order; a band leaves the list when its run empties.
    bands: Vec<(i32, Run)>,
    /// Entries longer than this divert: [`DIVERT`] × the median length of
    /// the main stream's last closed run (∞ until its first close).
    divert_above: f64,
    buf: Vec<u8>,
    /// `(page, min_lo, max_hi)` of every written leaf, in write order.
    fences: Vec<(PageId, f64, f64)>,
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
            main: Run::default(),
            bands: Vec::new(),
            divert_above: f64::INFINITY,
            buf: vec![0u8; block],
            fences: Vec::new(),
            count: 0,
            last_lo: f64::NEG_INFINITY,
            file,
            payload_len,
        })
    }

    /// `(entry bytes, entries per leaf)`.
    fn shape(&self) -> (usize, usize) {
        let elen = IntervalTree::entry_len(self.payload_len);
        (elen, IntervalTree::entries_per_block(self.file.block_size(), self.payload_len))
    }

    /// Stream `0` is the main one, stream `i ≥ 1` is `bands[i − 1]`.
    fn run_mut(&mut self, stream: usize) -> &mut Run {
        match stream {
            0 => &mut self.main,
            band => &mut self.bands[band - 1].1,
        }
    }

    /// Every open run, in stream order.
    fn runs(&self) -> impl Iterator<Item = &Run> {
        std::iter::once(&self.main).chain(self.bands.iter().map(|(_, run)| run))
    }

    /// The stream an entry of length `len` goes to, opening its band's
    /// run if it diverts to a band with none.
    fn stream_of(&mut self, len: f64) -> usize {
        if len <= self.divert_above {
            return 0;
        }
        let band = band_of(len);
        match self.bands.iter().position(|&(b, _)| b == band) {
            Some(i) => i + 1,
            None => {
                self.bands.push((band, Run::default()));
                self.bands.len()
            }
        }
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
        self.count += 1;
        let len = hi - lo;
        let stream = self.stream_of(len);
        let (elen, epb) = self.shape();
        let run = self.run_mut(stream);
        run.entries.extend_from_slice(&lo.to_le_bytes());
        run.entries.extend_from_slice(&hi.to_le_bytes());
        run.entries.extend_from_slice(payload);
        run.longest = run.longest.max(len);
        let in_run = run.entries.len() / elen;
        if in_run.is_multiple_of(epb) {
            let width = lo - get_f64(&run.entries, 0);
            if (in_run / epb) as f64 * width >= run.longest {
                self.close(stream)?;
            } else if self.runs().map(|r| r.whole_leaves(epb * elen)).sum::<usize>()
                >= RUN_CAP_LEAVES
            {
                // The cap: the stream holding the most whole leaves (the
                // earliest on a tie) writes them.
                let fullest = (0..)
                    .zip(self.runs())
                    .max_by_key(|&(i, r)| (r.whole_leaves(epb * elen), std::cmp::Reverse(i)))
                    .map_or(0, |(i, _)| i);
                self.close(fullest)?;
            }
        }
        Ok(())
    }

    /// Write the whole leaves of `stream`'s open run; a partial leaf stays
    /// open. A main-stream close resets the divert threshold, and a band
    /// whose run empties leaves the list.
    fn close(&mut self, stream: usize) -> Result<()> {
        let (elen, epb) = self.shape();
        let mut run = std::mem::take(self.run_mut(stream));
        let whole = run.whole_leaves(epb * elen) * epb * elen;
        let median = self.write_leaves(&run.entries[..whole])?;
        if stream == 0 {
            self.divert_above = DIVERT * median;
        }
        run.entries.drain(..whole);
        run.longest = run
            .entries
            .chunks_exact(elen)
            .map(|e| get_f64(e, 8) - get_f64(e, 0))
            .fold(0.0, f64::max);
        if stream > 0 && run.entries.is_empty() {
            self.bands.remove(stream - 1);
        } else {
            *self.run_mut(stream) = run;
        }
        Ok(())
    }

    /// Write `entries` (records in `lo` order) as leaves: deal them to
    /// leaves by `hi` (a stable sort of `(hi, index)` pairs, not of the
    /// records), then copy them out in `lo` (= index) order, each to its
    /// leaf, so every leaf holds its entries in `lo` order. Returns the
    /// entries' median length (the upper one; ∞ for none), selected in the
    /// pair buffer once the dealing is done with it.
    fn write_leaves(&mut self, entries: &[u8]) -> Result<f64> {
        let block = self.file.block_size();
        let (elen, epb) = self.shape();
        let mut order: Vec<(u64, u32)> = entries
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
        for (entry, &leaf) in entries.chunks_exact(elen).zip(&leaf_of) {
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
            let max_hi = get_f64(entries, last as usize * elen + 8);
            let page = self.file.allocate(1)?;
            self.file.write(page, buf)?;
            self.fences.push((page, min_lo, max_hi));
        }
        // Lengths are ≥ +0, so their raw bits order as the lengths do.
        for (pair, e) in order.iter_mut().zip(entries.chunks_exact(elen)) {
            pair.0 = (get_f64(e, 8) - get_f64(e, 0)).to_bits();
        }
        if order.is_empty() {
            return Ok(f64::INFINITY);
        }
        let mid = order.len() / 2;
        Ok(f64::from_bits(order.select_nth_unstable(mid).1 .0))
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

    /// Close the open runs — each band's whole leaves, then the main run
    /// with every band's partial rest merged in by `lo`, so the tree's one
    /// partial leaf is the last written — stack the inner levels bottom-up
    /// over the leaves in `min_lo` order, persist the metadata page, and
    /// return the finished tree.
    pub fn finish(mut self) -> Result<IntervalTree> {
        let (elen, epb) = self.shape();
        let mut last = std::mem::take(&mut self.main.entries);
        let main_len = last.len();
        for (_, run) in std::mem::take(&mut self.bands) {
            let whole = run.whole_leaves(epb * elen) * epb * elen;
            self.write_leaves(&run.entries[..whole])?;
            last.extend_from_slice(&run.entries[whole..]);
        }
        if last.len() > main_len {
            let mut order: Vec<(u64, u32)> = last
                .chunks_exact(elen)
                .zip(0..)
                .map(|(e, i)| (total_order_bits(get_f64(e, 0)), i))
                .collect();
            order.sort_unstable();
            last = order
                .iter()
                .flat_map(|&(_, i)| &last[i as usize * elen..][..elen])
                .copied()
                .collect();
        }
        self.write_leaves(&last)?;
        let per_inner = (self.file.block_size() - INNER_HDR) / FENCE_LEN;
        // Ties keep write order, so a single stream's fences (written in
        // `min_lo` order) stay as they are.
        let mut level = std::mem::take(&mut self.fences);
        level.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
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

    /// Open a tree previously built in `file`. A metadata page that cannot
    /// describe a tree in this file — an entry wider than a block, a page
    /// id past its end, counts that do not add up — is refused as
    /// [`IndexError::Corrupt`].
    pub fn open(file: PagedFile) -> Result<Self> {
        let block = file.block_size();
        let buf = file.page(0)?;
        if get_u32(&buf, 0) != META_MAGIC {
            return Err(IndexError::Corrupt("not an interval-tree file".into()));
        }
        let tree = Self {
            payload_len: get_u32(&buf, 4) as usize,
            root: get_u64(&buf, 8),
            n: get_u64(&buf, 16),
            tail_head: get_u64(&buf, 24),
            tail_last: get_u64(&buf, 32),
            tail_count: get_u64(&buf, 40),
            main_count: get_u64(&buf, 48),
            file,
        };
        if TAIL_HDR + Self::entry_len(tree.payload_len) > block {
            return Err(IndexError::Corrupt(format!(
                "a {}-byte payload does not fit a {block}-byte block",
                tree.payload_len
            )));
        }
        let blocks = tree.file.num_blocks();
        if let Some(id) =
            [tree.root, tree.tail_head, tree.tail_last].into_iter().find(|&id| id >= blocks)
        {
            return Err(IndexError::Corrupt(format!("page {id} past the file's {blocks} blocks")));
        }
        if tree.main_count.checked_add(tree.tail_count) != Some(tree.n) {
            return Err(IndexError::Corrupt(format!(
                "{} main + {} tail entries != {}",
                tree.main_count, tree.tail_count, tree.n
            )));
        }
        Ok(tree)
    }

    /// A node's entry count, refused as corrupt past the block's `capacity`.
    fn node_count(buf: &[u8], capacity: usize) -> Result<usize> {
        let count = get_u32(buf, 4) as usize;
        if count > capacity {
            return Err(IndexError::Corrupt(format!("node holds {count} > {capacity} entries")));
        }
        Ok(count)
    }

    /// Total entries (static tree + tail).
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    /// page ids bounded by `height × fanout`, never the call stack. Each
    /// node is decoded from the pool's own page. A well-formed stab visits
    /// no page twice, so one that would visit more pages than the file
    /// holds (a tail or child link back into itself) is refused as
    /// [`IndexError::Corrupt`].
    pub fn stab(&self, t: f64, visit: &mut dyn FnMut(f64, f64, &[u8])) -> Result<()> {
        let block = self.file.block_size();
        let elen = Self::entry_len(self.payload_len);
        let epb = Self::entries_per_block(block, self.payload_len);
        let (blocks, mut visited) = (self.file.num_blocks(), 0u64);
        let mut fetch = |page: PageId| -> Result<Page> {
            visited += 1;
            if visited > blocks {
                let msg = format!("a stab visits more than the file's {blocks} blocks");
                return Err(IndexError::Corrupt(msg));
            }
            Ok(self.file.page(page)?)
        };
        let mut stack: Vec<PageId> = Vec::new();
        let root = self.root;
        if root != 0 {
            stack.push(root);
        }
        while let Some(page) = stack.pop() {
            let buf = fetch(page)?;
            match get_u32(&buf, 0) {
                INNER_MAGIC => {
                    let count = Self::node_count(&buf, (block - INNER_HDR) / FENCE_LEN)?;
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
                    for i in 0..Self::node_count(&buf, epb)? {
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
            let buf = fetch(blk)?;
            if get_u32(&buf, 0) != TAIL_MAGIC {
                return Err(IndexError::Corrupt("bad tail block magic".into()));
            }
            for i in 0..Self::node_count(&buf, epb)? {
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
        let last = self.tail_last;
        let mut target = last;
        let (mut buf, mut count_in_block) = if last != 0 {
            // Read-modify-write: our own copy of the block.
            let buf = self.file.page(last)?.to_vec();
            let count = Self::node_count(&buf, epb)?;
            (buf, count)
        } else {
            (vec![0u8; block], 0)
        };
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
    use std::collections::BTreeSet;

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

    /// The `min_lo` fences of each inner level, root level first, and the
    /// number of leaves under them.
    fn inner_levels(tree: &IntervalTree) -> (Vec<Vec<f64>>, usize) {
        let (mut levels, mut leaves) = (Vec::new(), 0);
        let mut level = if tree.root == 0 { vec![] } else { vec![tree.root] };
        while !level.is_empty() {
            let (mut fences, mut next) = (Vec::new(), Vec::new());
            for page in level {
                let buf = tree.file.page(page).unwrap();
                if get_u32(&buf, 0) == LEAF_MAGIC {
                    leaves += 1;
                    continue;
                }
                for i in 0..get_u32(&buf, 4) as usize {
                    next.push(get_u64(&buf, INNER_HDR + i * FENCE_LEN));
                    fences.push(get_f64(&buf, INNER_HDR + i * FENCE_LEN + 8));
                }
            }
            if !fences.is_empty() {
                levels.push(fences);
            }
            level = next;
        }
        (levels, leaves)
    }

    #[test]
    fn every_stream_shape_loads_one_partial_leaf_in_min_lo_order() {
        // B = 12 entries a leaf here. Around one block and over many runs;
        // the shapes that hold a run open (to the cap when every `lo` is
        // equal); and the shapes that divert: a heavy tail over two bands,
        // a band that stops qualifying when the median grows past it,
        // zero and subnormal lengths (a zero median diverts every nonzero
        // one), and equal `lo` over many bands, where only the shared cap
        // closes band runs. Each input names the distinct bands it must
        // divert to at least; 0 marks one length scale, which diverts none.
        type Shape = (String, Vec<(f64, f64)>, usize);
        let e = env();
        let ramp = |n: u32| (0..n).map(|i| ((i / 2) as f64, (i / 2 + 5 + i % 7) as f64)).collect();
        let mut inputs: Vec<Shape> =
            [0u32, 1, 11, 12, 13, 900].iter().map(|&n| (format!("ramp{n}"), ramp(n), 0)).collect();
        let n = (RUN_CAP_LEAVES as u32 + 40) * 12 + 5;
        let mut push = |name: &str, entries: Vec<(f64, f64)>, bands| {
            inputs.push((name.into(), entries, bands));
        };
        push("equal_lo", (0..n).map(|i| (3.0, 3.0 + (i % 37) as f64)).collect(), 0);
        push("equal_interval", (0..n).map(|_| (1.0, 2.0)).collect(), 0);
        push("nested", (0..n).map(|i| (i as f64, (2 * n - i) as f64)).collect(), 0);
        push("uniform", (0..n).map(|i| (i as f64 * 0.7, i as f64 * 0.7 + 10.0)).collect(), 0);
        let tail = |i: u32| match (i % 53, i % 17) {
            (0, _) => 5000.0,
            (_, 0) => 100.0,
            _ => 1.0 + (i % 5) as f64 * 0.1,
        };
        push(
            "heavy_tail",
            (0..6000).map(|i| (i as f64 * 0.1, i as f64 * 0.1 + tail(i))).collect(),
            2,
        );
        let late = |i: u32| if i.is_multiple_of(10) { 100.0 } else { 1.0 + i as f64 / 100.0 };
        push("stops_qualifying", (0..8000).map(|i| (i as f64, i as f64 + late(i))).collect(), 1);
        let sub = |i: u32| if i.is_multiple_of(5) { 1u64 << (i % 45) } else { 0 };
        let subnormal = (0..8000u32)
            .map(|i| (f64::from_bits(i as u64 / 2), f64::from_bits(i as u64 / 2 + sub(i))))
            .collect();
        push("zero_and_subnormal", subnormal, 2);
        let wide =
            |i: u32| if i.is_multiple_of(4) { 1.1 * 8f64.powi((i / 4 % 20) as i32) } else { 0.5 };
        push("equal_lo_many_bands", (0..4 * n).map(|i| (3.0, 3.0 + wide(i))).collect(), 10);

        for (name, entries, bands) in &inputs {
            let mut loader =
                IntervalBulkLoader::new(e.create_file(&format!("tree_{name}")).unwrap(), 4)
                    .unwrap();
            let leaf = 12 * IntervalTree::entry_len(4);
            let (mut diverted, mut stopped) = (BTreeSet::new(), BTreeSet::new());
            for (i, &(lo, hi)) in (0u32..).zip(entries) {
                let band = band_of(hi - lo);
                if hi - lo > loader.divert_above {
                    diverted.insert(band);
                } else if diverted.contains(&band) {
                    stopped.insert(band);
                }
                loader.push(lo, hi, &i.to_le_bytes()).unwrap();
                let buffered: usize = loader.runs().map(|r| r.entries.len()).sum();
                let streams = 1 + loader.bands.len();
                assert!(buffered <= (RUN_CAP_LEAVES + streams) * leaf, "{name}: {buffered} bytes");
            }
            if *bands == 0 {
                assert!(diverted.is_empty(), "{name} opened band streams {diverted:?}");
            }
            assert!(diverted.len() >= *bands, "{name}: bands {diverted:?}");
            if name == "stops_qualifying" {
                assert!(!stopped.is_empty(), "{name}: the median never outgrew a band");
            }
            let tree = loader.finish().unwrap();
            let (levels, leaves) = inner_levels(&tree);
            assert_eq!(leaves, entries.len().div_ceil(12), "{name}: one partial leaf");
            for fences in &levels {
                assert!(fences.is_sorted(), "{name}: an inner level leaves min_lo order");
            }
            let last = entries.last().map_or(0.0, |e| e.0);
            let ends = entries.iter().step_by(entries.len() / 16 + 1).flat_map(|e| [e.0, e.1]);
            let fixed = [0.0, 1.5, 3.0, 3.5, 21.0, 100.0, 449.0, last, last + 7.0, 1e6];
            for probe in fixed.into_iter().chain(ends) {
                assert_eq!(stab_tags(&tree, probe), brute_tags(entries, probe), "{name} t={probe}");
            }
        }
    }

    /// A 100-entry tree over `[i, i + 3]` with one appended tail entry,
    /// flushed: its file, root page and tail head.
    fn built_with_tail(e: &Env, name: &str) -> (PagedFile, PageId, PageId) {
        let entries = (0..100).map(|i| entry(i as f64, i as f64 + 3.0, i)).collect();
        let mut tree = IntervalTree::build(e.create_file(name).unwrap(), 4, entries).unwrap();
        tree.append(200.0, 201.0, &7u32.to_le_bytes()).unwrap();
        tree.flush().unwrap();
        let IntervalTree { file, root, tail_head, .. } = tree;
        (file, root, tail_head)
    }

    /// Overwrite the `u32` at offset 4 (a count), or the `u64` at `off`.
    fn patch(file: &PagedFile, page: PageId, off: usize, value: u64) {
        let mut buf = file.page(page).unwrap().to_vec();
        match off {
            4 => put_u32(&mut buf, off, value as u32),
            _ => put_u64(&mut buf, off, value),
        };
        file.write(page, &buf).unwrap();
    }

    #[test]
    fn a_corrupt_meta_page_or_node_count_is_refused_not_trusted() {
        // Every field of the meta page, and the count of an inner, a leaf
        // and a tail block, patched to a value no tree here can have:
        // `open` refuses the first kind and the first stab the second.
        let e = env();
        let built = |name: &str| built_with_tail(&e, name);
        let (file, ..) = built("probe");
        let past_end = file.num_blocks();
        for (off, value) in [
            (4, 5000),
            (8, past_end),
            (16, 102),
            (24, past_end),
            (32, past_end + 7),
            (40, 2),
            (48, 99),
        ] {
            let (file, ..) = built(&format!("meta{off}"));
            patch(&file, 0, off, value);
            let opened = IntervalTree::open(file);
            assert!(matches!(opened, Err(IndexError::Corrupt(_))), "meta offset {off}");
        }
        for node in ["inner", "leaf", "tail"] {
            let (file, root, tail_head) = built(node);
            let page = match node {
                "inner" => root,
                "leaf" => 1,
                _ => tail_head,
            };
            patch(&file, page, 4, 1 << 20);
            let tree = IntervalTree::open(file).unwrap();
            let stabbed = tree.stab(5.0, &mut |_, _, _| {});
            assert!(matches!(stabbed, Err(IndexError::Corrupt(_))), "{node} count");
        }
    }

    #[test]
    fn a_link_back_into_the_tree_or_its_tail_is_refused_not_followed() {
        // The root's first child and the tail block's next link, each
        // pointed at its own page: a stab that followed either would never
        // return. It may visit no more pages than the file holds.
        let e = env();
        for node in ["inner", "tail"] {
            let (file, root, tail_head) = built_with_tail(&e, node);
            let (page, link) = match node {
                "inner" => (root, INNER_HDR),
                _ => (tail_head, 8),
            };
            patch(&file, page, link, page);
            let tree = IntervalTree::open(file).unwrap();
            let stabbed = tree.stab(5.0, &mut |_, _, _| {});
            assert!(matches!(stabbed, Err(IndexError::Corrupt(_))), "{node} self-link");
        }
        // Appending to a tail block whose count is past its capacity.
        let (file, _, tail_head) = built_with_tail(&e, "append");
        patch(&file, tail_head, 4, 1 << 20);
        let mut tree = IntervalTree::open(file).unwrap();
        let appended = tree.append(300.0, 301.0, &8u32.to_le_bytes());
        assert!(matches!(appended, Err(IndexError::Corrupt(_))));
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
        assert_eq!(tree.tail_count, 50);
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
