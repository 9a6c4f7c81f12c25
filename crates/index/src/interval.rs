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
//! * **leaves** are written full as the sorted stream arrives
//!   ([`IntervalBulkLoader`], the sweep-bptree pattern: never insert, only
//!   append). The stream is split by length into a main stream and one
//!   stream per length band of outlier-long entries, and each stream is cut
//!   into **runs** of whole leaves; inside a run the entries are dealt to
//!   leaves by `hi`, and each leaf keeps its entries in `lo` order, packed
//!   (below);
//! * **inner levels** are stacked bottom-up over the leaves sorted by
//!   `min_lo`; an inner node stores, per child, the page id plus two
//!   fences — the child subtree's minimum `lo` and maximum `hi` (a
//!   B-tree-order max-augmented interval tree);
//! * a **stab** at `t` walks the tree with an explicit work stack,
//!   descending exactly into subtrees with `min_lo ≤ t ≤ max_hi`. Leaves
//!   scan their lo-ascending prefix while `lo ≤ t` and report entries with
//!   `hi ≥ t`. The boundary path costs `O(log_B N)`.
//!
//! **Packed leaves.** `B`, the entries a leaf holds, sets the `m/B` term,
//! so a leaf stores each entry in as few bytes as its neighbours allow
//! (frame-of-reference packing, Goldstein et al., ICDE 1998, on XOR-coded
//! floats, Pelkonen et al., VLDB 2015). An entry is cut into **lanes**: its
//! 8-byte words `lo`, `hi` and the payload's, the last one shorter when the
//! payload is not a multiple of 8. A leaf's header is its magic, its count,
//! one width in bytes per lane and its **base** — its first entry, whole.
//! Each entry is a **row**: per lane, the low `width` bytes of the lane
//! XOR the base's, little-endian, where `width` is the most significant
//! bytes any of the leaf's entries needs. Decoding is a zero-extended load
//! XOR the base, so every bit comes back — `−0.0`, NaN payloads and
//! subnormals included. A stab decodes `lo` for each row it scans and `hi`
//! and the payload only for hits. A leaf is cut by bytes, not by count: in
//! `hi` order it takes the next entry while its rows, widened to that
//! entry, still fit — and at most twice what whole records would fit, so
//! all-equal entries, whose rows take 0 bytes, fill bounded leaves. A
//! header whose count passes that cap, whose lane is wider than the lane,
//! or whose rows overrun the block is refused as [`IndexError::Corrupt`]
//! before any row is read. EXACT3's 44-byte entries pack to ≈ 35.5 bytes
//! on Temp and ≈ 38 on Meme.
//!
//! **The output term.** A run left of `t` is read only in the leaves whose
//! `max_hi` reaches `t` — the top of its `hi` order, `⌈its hits/B⌉` leaves
//! — while the run straddling `t` may be read whole. With runs of `w`
//! leaves and `R` = the leaves one longest interval spans in `lo` order
//! (`longest × density / B`), a stab pays its `⌈hits/B⌉` output plus
//! ≈ `R/w` clipped leaves plus ≈ `w`, least at `w² = R`. Substituting `R`
//! and `w` leaves = `w·B/density` of `lo` turns `w² = R` into the rule a
//! run closes by, with no constant to tune:
//! `leaves × (last_lo − first_lo) ≥ longest interval in the run`. A run
//! counts its leaves before any entry is cut, at the entries per leaf its
//! stream's last close filled, and checks the rule each time that count
//! grows; a close then cuts its entries once, in `hi` order, writing each
//! leaf its next entry does not fit, and each page once. The leaf the cut
//! leaves open is written too unless it holds under half a leaf, or exactly
//! the run's newest entries: then those entries stay in the run for its
//! next close, the only entries cut twice (1.01 cuts an entry on Temp, 1.05
//! on Meme; a `lo`-order count at push and a re-deal of what a close could
//! not write made 2.29 / 2.12).
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
//! query's two stabs often share those leaves. At `finish` every run is
//! cut and written whole, each band's before the main one's, so each
//! stream ends in one partial leaf; every other leaf a close writes holds
//! at least half its stream's count. Leaves are written as runs close, so
//! their fences are sorted by `min_lo` before the inner levels are
//! stacked; inner nodes stay in `min_lo` order, which a stab's early exit
//! needs. Data of one length scale (Temp, Stock, random walks) never
//! divert and write the bytes a single stream writes.
//!
//! Measured in cold blocks per stab against `⌈hits/B⌉`: 26.5 vs 17.5 on a
//! Temp shard of m = 2000 (31 vs 21.7 with 44-byte records); on Meme
//! (m = 4000, 100 probes, `tests/stab_reads.rs`) 970 blocks, where
//! 44-byte records read 1,012, one stream of runs 1,377 and `lo`-order
//! packed leaves 3,159; EXACT3 on the benchmark's `paper_build` (Meme,
//! m = 29 850, two stabs a query) 59.2 blocks a query at seed 7 (64.4
//! with 44-byte records, ≈ 99 with one stream).
//!
//! Nothing here recurses: the build and the stab are loops over explicit
//! stacks and the open runs share a cap of `RUN_CAP_LEAVES`, so
//! degenerate inputs (all-identical intervals, fully nested endpoint
//! chains) cannot blow the call stack or the run buffers no matter how
//! large `N` grows.
//!
//! A built tree never changes: no method takes `&mut self`. The paper's
//! right-edge appends live in the live engine, which keeps them in columns
//! beside a frozen tree and bulk-loads a new one when the mass doubles.
//!
//! Interval containment is **closed** (`lo ≤ t ≤ hi`); callers that need
//! half-open semantics (EXACT3 does, to get exactly one entry per object)
//! dedupe at shared endpoints.

use crate::error::{IndexError, Result};
use crate::extsort::total_order_bits;
use chronorank_storage::page::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};
use chronorank_storage::{PageId, PagedFile};
use std::ops::Range;

const META_MAGIC: u32 = 0x17EE_0003;
const LEAF_MAGIC: u32 = 0x17EE_00AC;
const INNER_MAGIC: u32 = 0x17EE_00BB;

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

/// A tree's packed leaf geometry, fixed by its block and payload sizes
/// (module docs: "packed leaves").
#[derive(Clone, Copy)]
struct Shape {
    /// Entry bytes: `lo`, `hi`, payload.
    elen: usize,
    /// Lanes an entry is cut into: its 8-byte words, the last one shorter
    /// when the payload is not a multiple of 8.
    lanes: usize,
    /// Leaf header bytes: magic, count, one width per lane, the base entry.
    hdr: usize,
    /// Row bytes a leaf holds after its header.
    body: usize,
}

impl Shape {
    /// `None` when a leaf cannot hold one entry at full width.
    fn new(block: usize, payload_len: usize) -> Option<Self> {
        let elen = 16 + payload_len;
        let lanes = elen.div_ceil(8);
        let hdr = 8 + lanes + elen;
        (hdr + elen <= block).then(|| Self { elen, lanes, hdr, body: block - hdr })
    }

    /// The most entries one leaf may hold: twice what full-width rows fit,
    /// so all-equal entries, whose rows pack to 0 bytes, still fill
    /// bounded leaves.
    fn cap(&self) -> usize {
        2 * (self.body / self.elen)
    }

    /// The most rows of `row` bytes one leaf holds.
    fn room(&self, row: usize) -> usize {
        match row {
            0 => self.cap(),
            row => self.cap().min(self.body / row),
        }
    }

    /// Lane `j`'s bytes within an entry.
    fn lane(&self, j: usize) -> Range<usize> {
        8 * j..(8 * j + 8).min(self.elen)
    }

    /// Lane `j` of `entry`, zero-extended.
    fn word(&self, entry: &[u8], j: usize) -> u64 {
        word(&entry[self.lane(j)])
    }

    /// Append the lanes of the entry `(lo, hi, payload)` to `out`: a loader
    /// holds its entries as lanes, so each is decoded once.
    fn encode(&self, lo: f64, hi: f64, payload: &[u8], out: &mut Vec<u64>) {
        out.extend([lo.to_bits(), hi.to_bits()]);
        out.extend(payload.chunks(8).map(word));
    }

    /// The bytes of the entry whose lanes are `words`, into `out`.
    fn decode(&self, words: &[u64], out: &mut [u8]) {
        for (j, &w) in words.iter().enumerate() {
            let lane = self.lane(j);
            out[lane.clone()].copy_from_slice(&w.to_le_bytes()[..lane.len()]);
        }
    }
}

/// A lane's bytes, little-endian, zero-extended.
#[inline]
fn word(lane: &[u8]) -> u64 {
    match lane.try_into() {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => lane.iter().rev().fold(0, |word, &b| word << 8 | b as u64),
    }
}

/// Bytes needed for the set bits of `diff`, a lane's XOR against its base.
fn width(diff: u64) -> usize {
    (71 - diff.leading_zeros() as usize) / 8
}

/// The low `width` bytes' bits.
fn mask(width: usize) -> u64 {
    if width == 8 {
        u64::MAX
    } else {
        (1 << (8 * width)) - 1
    }
}

/// One lane of a packed leaf: where it sits in a row, its width, and its
/// base value.
#[derive(Clone, Copy)]
struct Lane {
    at: usize,
    width: usize,
    mask: u64,
    base: u64,
}

impl Lane {
    fn new(at: usize, width: usize, base: u64) -> Self {
        Self { at, width, mask: mask(width), base }
    }

    /// The lane in the row at `row`: its low `width` bytes, zero-extended,
    /// XOR the base.
    #[inline]
    fn get(&self, buf: &[u8], row: usize) -> u64 {
        let at = row + self.at;
        let bits = match buf.get(at..at + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")) & self.mask,
            None => {
                let mut word = [0u8; 8];
                word[..self.width].copy_from_slice(&buf[at..at + self.width]);
                u64::from_le_bytes(word)
            }
        };
        self.base ^ bits
    }
}

/// A packed leaf's header, checked: its count, its row bytes and its key
/// lanes, `lo` and `hi`.
struct Rows {
    count: usize,
    row: usize,
    keys: [Lane; 2],
}

impl Rows {
    /// Read a leaf's header. A count above [`Shape::cap`], a lane width
    /// wider than its lane, or rows that overrun the block are refused as
    /// [`IndexError::Corrupt`], so every later read of a row is in bounds.
    fn parse(buf: &[u8], shape: &Shape) -> Result<Self> {
        let count = get_u32(buf, 4) as usize;
        if count > shape.cap() {
            return Err(IndexError::Corrupt(format!(
                "leaf holds {count} > {} entries",
                shape.cap()
            )));
        }
        let base = &buf[8 + shape.lanes..shape.hdr];
        let (mut keys, mut row) = ([Lane::new(0, 0, 0); 2], 0);
        for j in 0..shape.lanes {
            let (width, len) = (buf[8 + j] as usize, shape.lane(j).len());
            if width > len {
                return Err(IndexError::Corrupt(format!("lane {j} is {width} > {len} bytes wide")));
            }
            if j < 2 {
                keys[j] = Lane::new(row, width, shape.word(base, j));
            }
            row += width;
        }
        if count * row > shape.body {
            return Err(IndexError::Corrupt(format!(
                "{count} rows of {row} bytes overrun a {}-byte leaf body",
                shape.body
            )));
        }
        Ok(Self { count, row, keys })
    }

    /// Key `j` (0 = `lo`, 1 = `hi`) of row `i`.
    #[inline]
    fn key(&self, buf: &[u8], shape: &Shape, i: usize, j: usize) -> f64 {
        f64::from_bits(self.keys[j].get(buf, shape.hdr + i * self.row))
    }

    /// Row `i`'s payload, decoded into `out`.
    fn payload(&self, buf: &[u8], shape: &Shape, i: usize, out: &mut [u8]) {
        let base = &buf[8 + shape.lanes..shape.hdr];
        let mut at = shape.hdr + i * self.row + self.keys[0].width + self.keys[1].width;
        for (j, word) in (2..).zip(out.chunks_mut(8)) {
            let lane = Lane::new(0, buf[8 + j] as usize, shape.word(base, j));
            word.copy_from_slice(&lane.get(buf, at).to_le_bytes()[..word.len()]);
            at += lane.width;
        }
    }
}

/// The leaf a cut is filling: its entry count, its first entry's lanes
/// and, per lane, the low bits its width covers, which every entry's XOR
/// against that first entry fits. A lane's widest XOR against any one of a
/// leaf's entries is its widest against every other, so these widths are
/// what the leaf's base — whichever entry it is — needs.
#[derive(Default)]
struct OpenLeaf {
    count: usize,
    first: Vec<u64>,
    cover: Vec<u64>,
    /// Entries the leaf holds at its widths.
    room: usize,
}

impl OpenLeaf {
    /// Open the leaf afresh with `entry` alone.
    fn start(&mut self, shape: &Shape, entry: &[u64]) {
        self.first.clear();
        self.first.extend_from_slice(entry);
        self.cover.clear();
        self.cover.resize(shape.lanes, 0);
        (self.count, self.room) = (1, shape.room(0));
    }

    /// Take `entry` if the leaf's rows, widened to it, still fit; an empty
    /// leaf takes any entry.
    #[inline]
    fn take(&mut self, shape: &Shape, entry: &[u64]) -> bool {
        Self::counted();
        if self.count == 0 {
            self.start(shape, entry);
            return true;
        }
        let lanes = || entry.iter().zip(&self.first).map(|(word, first)| word ^ first);
        if lanes().zip(&self.cover).any(|(xor, cover)| xor & !cover != 0) {
            let row = lanes().zip(&self.cover).map(|(xor, cover)| width(xor | cover)).sum();
            if self.count + 1 > shape.room(row) {
                return false;
            }
            for (xor, cover) in
                entry.iter().zip(&self.first).map(|(w, f)| w ^ f).zip(&mut self.cover)
            {
                *cover = mask(width(xor | *cover));
            }
            self.room = shape.room(row);
        } else if self.count + 1 > self.room {
            return false;
        }
        self.count += 1;
        true
    }

    /// Counts a call of [`OpenLeaf::take`] in the unit tests, which define
    /// it; nothing otherwise.
    #[cfg(not(test))]
    #[inline(always)]
    fn counted() {}

    /// Its lanes' widths, in bytes.
    fn widths(&self) -> impl Iterator<Item = u8> + '_ {
        self.cover.iter().map(|&c| width(c) as u8)
    }
}

/// Entry `i`'s lanes in `entries`, `lanes` to an entry.
fn entry_at(entries: &[u64], lanes: usize, i: u32) -> &[u64] {
    &entries[i as usize * lanes..][..lanes]
}

/// What a cut wrote: the entries in and the count of the leaves a failed
/// take closed, and the median length of every entry it wrote (the upper
/// one; `None` for none).
struct Written {
    full_entries: usize,
    full_leaves: usize,
    median: Option<f64>,
}

/// Sort `pairs`, in index order, stably by key — so by `(key, index)` — a
/// byte of the key at a time from the lowest, skipping the bytes every key
/// shares (least-significant-digit radix sort, through `spare`): a few
/// passes over the run, where comparison sorts cost `log₂` of its length.
fn radix_sort(pairs: &mut Vec<(u64, u32)>, spare: &mut Vec<(u64, u32)>) {
    let Some(&(first, _)) = pairs.first() else { return };
    let mut counts = [[0usize; 256]; 8];
    let mut differ = 0;
    for &(key, _) in pairs.iter() {
        differ |= key ^ first;
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(key >> (8 * byte)) as usize & 0xFF] += 1;
        }
    }
    spare.resize(pairs.len(), (0, 0));
    for (byte, count) in counts.iter_mut().enumerate() {
        if (differ >> (8 * byte)) & 0xFF == 0 {
            continue;
        }
        let mut at = 0;
        for slot in count.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &pair in pairs.iter() {
            let slot = &mut count[(pair.0 >> (8 * byte)) as usize & 0xFF];
            spare[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(pairs, spare);
    }
}

/// A cut's working buffers, which a loader keeps across closes.
#[derive(Default)]
struct Cut {
    /// `(hi as total-order bits, index)`, sorted: the stable `hi` order.
    order: Vec<(u64, u32)>,
    /// The other half of each pass of its sort.
    sorted: Vec<(u64, u32)>,
    /// Per entry, its leaf.
    leaf_of: Vec<u32>,
    /// Per leaf in `hi` order, its lane widths.
    widths: Vec<u8>,
    /// Per leaf, its largest `hi`.
    max_hi: Vec<f64>,
    /// Per written leaf, its rows so far, its row bytes and its base's index.
    filled: Vec<(usize, usize, u32)>,
    /// The written leaves' pages.
    pages: Vec<u8>,
    /// The leaf being filled.
    open: OpenLeaf,
}

/// Disk-based bottom-up interval tree (see module docs).
///
/// `Send + Sync`: a built tree is immutable — no method takes `&mut self`
/// — and any number of threads may stab it concurrently (block access is
/// synchronized inside [`PagedFile`]).
pub struct IntervalTree {
    file: PagedFile,
    payload_len: usize,
    shape: Shape,
    root: PageId,
    n: u64,
}

/// The open runs together never hold more whole leaves than this (1 MiB
/// of 4 KiB blocks at full-width rows), so all-equal `lo` keys cannot grow
/// them without bound.
const RUN_CAP_LEAVES: usize = 256;

/// An entry longer than this many times the median length of the main
/// stream's last closed run is sent to its band's stream; a band spans one
/// power of the same factor (module docs: "the output term").
const DIVERT: f64 = 8.0;

/// The band of a diverted length: `⌊log₈ len⌋`.
fn band_of(len: f64) -> i32 {
    (len.log2().floor() as i32).div_euclid(3)
}

/// `hi − lo` of the entry whose lanes are `entry`.
fn length(entry: &[u64]) -> f64 {
    f64::from_bits(entry[1]) - f64::from_bits(entry[0])
}

/// One stream's open run: its entries' lanes in push (= `lo`) order. It
/// counts its whole leaves at the entries per leaf its stream's last close
/// filled, so it knows its leaf count before any entry is cut.
#[derive(Default)]
struct Run {
    entries: Vec<u64>,
    /// Longest `hi − lo` among them.
    longest: f64,
    /// Whole leaves its entries fill, `per_leaf` entries to a leaf.
    leaves: usize,
    /// Entries per leaf the stream's last close filled; before its first,
    /// what full-width rows fit.
    per_leaf: usize,
}

impl Run {
    fn new(shape: &Shape) -> Self {
        Self { per_leaf: shape.body / shape.elen, ..Self::default() }
    }
}

/// Streaming bottom-up builder: push entries in **nondecreasing `lo`
/// order** (an [`crate::ExternalSorter`] stream, typically) and leaves are
/// written full as their run closes (module docs: "the output term");
/// [`IntervalBulkLoader::finish`] stacks the inner levels over the
/// collected fences and returns the ready tree.
///
/// Memory held during the build: the open runs buffer about 256 whole
/// leaves of entries between them plus one partial leaf per stream —
/// the cap counts every stream's leaves together, so a many-band input
/// cannot multiply it. A close's buffers — 36 bytes per entry of its run
/// for the `hi` order, its sort and each entry's leaf, and the pages of the
/// leaves it writes — are kept across closes, so they grow to the largest
/// close and is not allocated again. Beside the runs, one 24-byte fence per
/// leaf (`O(N/B)`), shrinking by the inner fanout per level.
pub struct IntervalBulkLoader {
    file: PagedFile,
    payload_len: usize,
    shape: Shape,
    /// The main stream's open run.
    main: Run,
    /// One open run per band `⌊log₈ len⌋` of diverted entries, in opening
    /// order.
    bands: Vec<(i32, Run)>,
    /// Entries longer than this divert: [`DIVERT`] × the median length of
    /// the main stream's last closed run (∞ until its first close).
    divert_above: f64,
    /// The last cut's buffers, kept for reuse.
    cut: Cut,
    /// An inner node's page.
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
        let Some(shape) = Shape::new(block, payload_len) else {
            return Err(IndexError::BadInput(format!(
                "payload of {payload_len} bytes does not fit a {block}-byte block"
            )));
        };
        if (block - INNER_HDR) / FENCE_LEN < 2 {
            return Err(IndexError::BadInput(format!(
                "{block}-byte blocks cannot hold two child fences"
            )));
        }
        let meta = file.allocate(1)?;
        debug_assert_eq!(meta, 0);
        Ok(Self {
            main: Run::new(&shape),
            bands: Vec::new(),
            divert_above: f64::INFINITY,
            cut: Cut::default(),
            buf: vec![0u8; block],
            fences: Vec::new(),
            count: 0,
            last_lo: f64::NEG_INFINITY,
            file,
            payload_len,
            shape,
        })
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

    /// The stream of band `band`'s entries (the main stream's for `None`),
    /// opening the band's run if it has none.
    fn stream(&mut self, band: Option<i32>) -> usize {
        let Some(band) = band else { return 0 };
        match self.bands.iter().position(|&(b, _)| b == band) {
            Some(i) => i + 1,
            None => {
                self.bands.push((band, Run::new(&self.shape)));
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
        let band = (hi - lo > self.divert_above).then(|| band_of(hi - lo));
        let (shape, stream) = (self.shape, self.stream(band));
        let run = self.run_mut(stream);
        shape.encode(lo, hi, payload, &mut run.entries);
        run.longest = run.longest.max(hi - lo);
        if run.entries.len() < (run.leaves + 1) * run.per_leaf * shape.lanes {
            return Ok(());
        }
        // One whole leaf more: the rule may close the run.
        run.leaves += 1;
        if run.leaves as f64 * (lo - f64::from_bits(run.entries[0])) >= run.longest {
            self.close(stream)
        } else if self.runs().map(|r| r.leaves).sum::<usize>() >= RUN_CAP_LEAVES {
            // The cap: the stream holding the most whole leaves (the
            // earliest on a tie) writes them.
            let fullest = (0..)
                .zip(self.runs())
                .max_by_key(|&(i, r)| (r.leaves, std::cmp::Reverse(i)))
                .map_or(0, |(i, _)| i);
            self.close(fullest)
        } else {
            Ok(())
        }
    }

    /// Cut `stream`'s open run and write its leaves; the entries the cut
    /// leaves open may stay ([`IntervalBulkLoader::write_leaves`]). The run
    /// then counts its leaves at the entries per leaf this close filled
    /// (twice the last count, up to the cap, if it filled none). A
    /// main-stream close resets the divert threshold.
    fn close(&mut self, stream: usize) -> Result<()> {
        let (lanes, cap) = (self.shape.lanes, self.shape.cap());
        let mut run = std::mem::take(self.run_mut(stream));
        let written = self.write_leaves(&mut run.entries, Some(run.per_leaf))?;
        if let (0, Some(median)) = (stream, written.median) {
            self.divert_above = DIVERT * median;
        }
        run.per_leaf = match written.full_leaves {
            0 => (2 * run.per_leaf).min(cap),
            leaves => written.full_entries / leaves,
        };
        run.leaves = run.entries.len() / lanes / run.per_leaf;
        run.longest = run.entries.chunks_exact(lanes).map(length).fold(0.0, f64::max);
        *self.run_mut(stream) = run;
        Ok(())
    }

    /// Cut `entries` (lanes, in `lo` order) into packed leaves in one pass
    /// over their `hi` order — a sort of `(hi, index)` pairs, not of the
    /// entries: a leaf takes the next entry while its rows, widened to that
    /// entry, still fit. The leaf the pass leaves open is written too,
    /// unless this is a close of a run counted at `per_leaf` entries a leaf
    /// and that leaf holds fewer than half as many, or exactly the run's
    /// newest entries: then its entries stay in `entries`, in `lo` order,
    /// for the run's next close. So each entry is cut once, bar the few a
    /// close leaves open. Each entry then goes to its leaf's page in `lo`
    /// (= index) order, so every leaf holds its entries in `lo` order and
    /// its base is its lowest, and each page is written once.
    fn write_leaves(&mut self, entries: &mut Vec<u64>, per_leaf: Option<usize>) -> Result<Written> {
        let (shape, block, lanes) = (self.shape, self.file.block_size(), self.shape.lanes);
        let mut cut = std::mem::take(&mut self.cut);
        let Cut { order, sorted, leaf_of, widths, max_hi, filled, pages, open } = &mut cut;
        let entry = |i: u32| entry_at(entries, lanes, i);
        let hi = |i: u32| f64::from_bits(entry(i)[1]);
        order.clear();
        order.extend(
            entries
                .chunks_exact(lanes)
                .zip(0..)
                .map(|(e, i)| (total_order_bits(f64::from_bits(e[1])), i)),
        );
        radix_sort(order, sorted);
        leaf_of.clear();
        leaf_of.resize(order.len(), 0);
        widths.clear();
        max_hi.clear();
        let (mut start, mut full_entries) = (0, 0);
        open.count = 0;
        for (i, &(_, at)) in order.iter().enumerate() {
            if !open.take(&shape, entry(at)) {
                widths.extend(open.widths());
                max_hi.push(hi(order[i - 1].1));
                (start, full_entries) = (i, full_entries + open.count);
                open.start(&shape, entry(at));
            }
            leaf_of[at as usize] = max_hi.len() as u32;
        }
        let full_leaves = max_hi.len();
        // The open leaf holds the run's newest entries when no entry before
        // it in `hi` order comes after one of them in push order.
        let newest = || order[start..].iter().all(|&(_, i)| i as usize >= start);
        let stays = |per_leaf| 2 * open.count < per_leaf || newest();
        if start < order.len() && !per_leaf.is_some_and(stays) {
            widths.extend(open.widths());
            max_hi.push(hi(order[order.len() - 1].1));
            start = order.len();
        }
        // Lengths are ≥ +0, so their raw bits order as the lengths do.
        let written = &mut order[..start];
        for pair in written.iter_mut() {
            pair.0 = length(entry(pair.1)).to_bits();
        }
        let median = match written.len() {
            0 => None,
            n => Some(f64::from_bits(written.select_nth_unstable(n / 2).1 .0)),
        };
        let leaves = max_hi.len();
        // Every byte of a page up to its last row is written below, and
        // the rest zeroed after it: a page from an earlier close is reused
        // as it is.
        if pages.len() < leaves * block {
            pages.resize(leaves * block, 0);
        }
        filled.clear();
        filled.resize(leaves, (0, 0, 0));
        for (i, (e, &leaf)) in (0..).zip(entries.chunks_exact(lanes).zip(leaf_of.iter())) {
            let leaf = leaf as usize;
            if leaf == leaves {
                continue;
            }
            let (head, rows) = pages[leaf * block..][..block].split_at_mut(shape.hdr);
            let leaf_widths = &widths[leaf * lanes..][..lanes];
            let (count, row, base) = &mut filled[leaf];
            if *count == 0 {
                head[8..8 + lanes].copy_from_slice(leaf_widths);
                shape.decode(e, &mut head[8 + lanes..]);
                *row = leaf_widths.iter().map(|&w| w as usize).sum();
                *base = i;
            }
            let mut at = *count * *row;
            for ((word, base), &w) in e.iter().zip(entry(*base)).zip(leaf_widths) {
                // A lane's bytes past its width are 0: 8 written where 8 fit.
                let bytes = (word ^ base).to_le_bytes();
                match rows.get_mut(at..at + 8) {
                    Some(out) => out.copy_from_slice(&bytes),
                    None => rows[at..][..w as usize].copy_from_slice(&bytes[..w as usize]),
                }
                at += w as usize;
            }
            *count += 1;
        }
        let first = self.file.allocate(leaves as u64)?;
        for ((id, page), (&(count, row, base), &max_hi)) in
            (first..).zip(pages.chunks_exact_mut(block)).zip(filled.iter().zip(max_hi.iter()))
        {
            put_u32(page, 0, LEAF_MAGIC);
            put_u32(page, 4, count as u32);
            page[shape.hdr + count * row..].fill(0);
            self.file.write(id, page)?;
            self.fences.push((id, f64::from_bits(entry(base)[0]), max_hi));
        }
        let mut keep = 0;
        for (i, &leaf) in leaf_of.iter().enumerate() {
            if leaf as usize == leaves {
                entries.copy_within(i * lanes..(i + 1) * lanes, keep * lanes);
                keep += 1;
            }
        }
        entries.truncate(keep * lanes);
        self.cut = cut;
        Ok(Written { full_entries, full_leaves, median })
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

    /// Write every open run whole — each band's, then the main one's, so
    /// the last leaf written is the main stream's partial one — stack the
    /// inner levels bottom-up over the leaves in `min_lo` order, persist
    /// the metadata page, and return the finished tree.
    pub fn finish(mut self) -> Result<IntervalTree> {
        for (_, mut run) in std::mem::take(&mut self.bands) {
            self.write_leaves(&mut run.entries, None)?;
        }
        let mut main = std::mem::take(&mut self.main.entries);
        self.write_leaves(&mut main, None)?;
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
            shape: self.shape,
            root,
            n: self.count,
        };
        tree.write_meta()?;
        Ok(tree)
    }
}

impl IntervalTree {
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

    /// The metadata page: `magic u32 | payload_len u32 | root u64 | n u64`,
    /// three reserved words written 0 (an append tail's, in older files),
    /// then `n` again (the entries in the static tree — all of them).
    fn write_meta(&self) -> Result<()> {
        let mut buf = vec![0u8; self.file.block_size()];
        let mut o = put_u32(&mut buf, 0, META_MAGIC);
        o = put_u32(&mut buf, o, self.payload_len as u32);
        o = put_u64(&mut buf, o, self.root);
        o = put_u64(&mut buf, o, self.n);
        put_u64(&mut buf, o + 24, self.n);
        self.file.write(0, &buf)?;
        Ok(())
    }

    /// Open a tree previously built in `file`. A metadata page that cannot
    /// describe a tree in this file — another format's magic, a leaf that
    /// cannot hold one entry, a root past its end, a non-zero tail word or
    /// a static count other than `n` — is refused as
    /// [`IndexError::Corrupt`]; a malformed leaf is refused by the stab
    /// that reads it.
    pub fn open(file: PagedFile) -> Result<Self> {
        let block = file.block_size();
        let buf = file.page(0)?;
        if get_u32(&buf, 0) != META_MAGIC {
            return Err(IndexError::Corrupt("not a packed interval-tree file".into()));
        }
        let (payload_len, root, n) =
            (get_u32(&buf, 4) as usize, get_u64(&buf, 8), get_u64(&buf, 16));
        let Some(shape) = Shape::new(block, payload_len) else {
            return Err(IndexError::Corrupt(format!(
                "a {payload_len}-byte payload does not fit a {block}-byte block"
            )));
        };
        let blocks = file.num_blocks();
        if root >= blocks {
            return Err(IndexError::Corrupt(format!(
                "root {root} past the file's {blocks} blocks"
            )));
        }
        let tail = [24, 32, 40].map(|at| get_u64(&buf, at));
        if tail != [0; 3] || get_u64(&buf, 48) != n {
            return Err(IndexError::Corrupt(format!(
                "tail words {tail:?} and {} static entries in a tree of {n}",
                get_u64(&buf, 48)
            )));
        }
        Ok(Self { file, payload_len, shape, root, n })
    }

    /// Total entries.
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

    /// Visit every entry whose closed interval contains `t`:
    /// `visit(lo, hi, payload)`. Iterative — an explicit work stack of
    /// page ids bounded by `height × fanout`, never the call stack. Each
    /// node is decoded from the pool's own page; a leaf decodes `lo` for
    /// each row it scans and `hi` and the payload only for hits. A
    /// malformed leaf header is refused as [`IndexError::Corrupt`], as is
    /// a stab that would visit more pages than the file holds (a child
    /// link back into itself): a well-formed one visits no page twice.
    pub fn stab(&self, t: f64, visit: &mut dyn FnMut(f64, f64, &[u8])) -> Result<()> {
        let (block, shape) = (self.file.block_size(), &self.shape);
        let (blocks, mut visited) = (self.file.num_blocks(), 0u64);
        let mut stack: Vec<PageId> = Vec::new();
        // Payloads up to 64 bytes decode on the stack.
        let (mut inline, mut heap) = ([0u8; 64], Vec::new());
        let payload = match self.payload_len {
            len if len <= inline.len() => &mut inline[..len],
            len => {
                heap.resize(len, 0);
                &mut heap[..]
            }
        };
        let root = self.root;
        if root != 0 {
            stack.push(root);
        }
        while let Some(page) = stack.pop() {
            visited += 1;
            if visited > blocks {
                let msg = format!("a stab visits more than the file's {blocks} blocks");
                return Err(IndexError::Corrupt(msg));
            }
            let buf = self.file.page(page)?;
            match get_u32(&buf, 0) {
                INNER_MAGIC => {
                    let capacity = (block - INNER_HDR) / FENCE_LEN;
                    let count = get_u32(&buf, 4) as usize;
                    if count > capacity {
                        return Err(IndexError::Corrupt(format!(
                            "node holds {count} > {capacity} entries"
                        )));
                    }
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
                    let rows = Rows::parse(&buf, shape)?;
                    for i in 0..rows.count {
                        let lo = rows.key(&buf, shape, i, 0);
                        if lo > t {
                            break;
                        }
                        let hi = rows.key(&buf, shape, i, 1);
                        if hi >= t {
                            rows.payload(&buf, shape, i, payload);
                            visit(lo, hi, payload);
                        }
                    }
                }
                _ => return Err(IndexError::Corrupt("bad interval node magic".into())),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::{Env, StoreConfig};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Calls of [`OpenLeaf::take`] on this thread: one per entry a cut
        /// puts into a leaf, plus one per entry cut again.
        static TAKES: Cell<u64> = const { Cell::new(0) };
    }

    impl OpenLeaf {
        pub(super) fn counted() {
            TAKES.set(TAKES.get() + 1);
        }
    }

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
    /// entry count of each leaf under them.
    fn inner_levels(tree: &IntervalTree) -> (Vec<Vec<f64>>, Vec<usize>) {
        let (mut levels, mut leaves) = (Vec::new(), Vec::new());
        let mut level = if tree.root == 0 { vec![] } else { vec![tree.root] };
        while !level.is_empty() {
            let (mut fences, mut next) = (Vec::new(), Vec::new());
            for page in level {
                let buf = tree.file.page(page).unwrap();
                if get_u32(&buf, 0) == LEAF_MAGIC {
                    leaves.push(get_u32(&buf, 4) as usize);
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
    fn every_stream_shape_loads_one_short_leaf_per_stream_in_min_lo_order() {
        // A leaf here holds 11 full-width rows and at most 22 packed ones.
        // Around one block and over many runs; the shapes that hold a run
        // open (to the cap when every `lo` is
        // equal); and the shapes that divert: a heavy tail over two bands,
        // a band that stops qualifying when the median grows past it,
        // zero and subnormal lengths (a zero median diverts every nonzero
        // one), and equal `lo` over many bands, where only the shared cap
        // closes band runs. Each input names the distinct bands it must
        // divert to at least; 0 marks one length scale, which diverts none.
        type Input = (String, Vec<(f64, f64)>, usize);
        let e = env();
        let ramp = |n: u32| (0..n).map(|i| ((i / 2) as f64, (i / 2 + 5 + i % 7) as f64)).collect();
        let mut inputs: Vec<Input> =
            [0u32, 1, 11, 12, 13, 900].iter().map(|&n| (format!("ramp{n}"), ramp(n), 0)).collect();
        let shape = Shape::new(256, 4).unwrap();
        let (full_rows, cap) = (shape.body / shape.elen, shape.cap());
        assert_eq!((full_rows, cap), (11, 22));
        let n = (RUN_CAP_LEAVES + 40) as u32 * cap as u32 + 5;
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
            let (mut diverted, mut stopped) = (BTreeSet::new(), BTreeSet::new());
            for (i, &(lo, hi)) in (0u32..).zip(entries) {
                let band = band_of(hi - lo);
                if hi - lo > loader.divert_above {
                    diverted.insert(band);
                } else if diverted.contains(&band) {
                    stopped.insert(band);
                }
                loader.push(lo, hi, &i.to_le_bytes()).unwrap();
                let buffered: usize = loader.runs().map(|r| r.entries.len() / shape.lanes).sum();
                let streams = 1 + loader.bands.len();
                let whole: usize = loader.runs().map(|r| r.leaves).sum();
                assert!(whole < RUN_CAP_LEAVES + streams, "{name}: {whole} whole leaves");
                assert!(
                    buffered <= (RUN_CAP_LEAVES + streams) * cap,
                    "{name}: {buffered} entries buffered"
                );
            }
            if *bands == 0 {
                assert!(diverted.is_empty(), "{name} opened band streams {diverted:?}");
            }
            assert!(diverted.len() >= *bands, "{name}: bands {diverted:?}");
            if name == "stops_qualifying" {
                assert!(!stopped.is_empty(), "{name}: the median never outgrew a band");
            }
            let tree = loader.finish().unwrap();
            // A leaf is cut when its next entry does not fit, and no row is
            // wider than an entry, so a leaf a failed take closed holds at
            // least the full-width count, and a close writes the leaf its
            // cut leaves open only at half its stream's count or more: only
            // each stream's last leaf, written by `finish`, may hold less.
            let (levels, leaves) = inner_levels(&tree);
            assert_eq!(leaves.iter().sum::<usize>(), entries.len(), "{name}: entries");
            let small = leaves.iter().filter(|&&count| 2 * count < full_rows).count();
            assert!(small <= 1 + diverted.len(), "{name}: {small} leaves under half full");
            assert!(leaves.len() <= entries.len().div_ceil(full_rows), "{name}: leaves");
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

    /// Cuts per entry loaded: the calls of [`OpenLeaf::take`] a load of
    /// EXACT3's entries over the paper's generators makes, per entry. A
    /// close cuts each of its run's entries once and leaves at most one
    /// leaf's entries to its run's next close (2.29 on Temp and 2.12 on
    /// Meme while a push cut each entry in `lo` order to count its run's
    /// leaves, a close dealt them again by `hi`, re-dealt what it could not
    /// write and a run re-cut what a close left).
    #[test]
    fn a_load_cuts_each_entry_about_once() {
        use chronorank_workloads::{
            DatasetGenerator, MemeConfig, MemeGenerator, TempConfig, TempGenerator,
        };
        // EXACT3's entries, `(t0, t1, v0 | v1 | prefix | object)`, in `lo`
        // order with ties in object order, through one loader.
        fn cuts(generator: impl DatasetGenerator) -> f64 {
            let mut entries: Vec<(f64, f64, [u8; 28])> = Vec::new();
            for o in generator.generate_set().objects() {
                let mut prefix = 0.0f64;
                for s in o.curve.segments() {
                    prefix += s.integral_full();
                    let mut payload = [0u8; 28];
                    for (at, v) in [(0, s.v0), (8, s.v1), (16, prefix)] {
                        payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    }
                    payload[24..].copy_from_slice(&o.id.to_le_bytes());
                    entries.push((s.t0, s.t1, payload));
                }
            }
            entries.sort_by(|a, b| a.0.total_cmp(&b.0));
            let e = Env::mem(StoreConfig { block_size: 4096, pool_capacity: 64 });
            let mut loader = IntervalBulkLoader::new(e.create_file("cuts").unwrap(), 28).unwrap();
            TAKES.set(0);
            for (lo, hi, payload) in &entries {
                loader.push(*lo, *hi, payload).unwrap();
            }
            loader.finish().unwrap();
            TAKES.get() as f64 / entries.len() as f64
        }
        let temp = TempConfig { objects: 2000, avg_segments: 100, ..Default::default() };
        let temp = cuts(TempGenerator::new(temp));
        let meme = MemeConfig { objects: 4000, ..Default::default() };
        let meme = cuts(MemeGenerator::new(meme));
        println!("pinned: cuts per entry loaded, Temp shard / Meme: {temp:.2} / {meme:.2}");
        assert!(temp <= 1.1 && meme <= 1.1, "a load cut each entry {temp:.2} / {meme:.2} times");
    }

    /// A flushed 100-entry tree over `[i, i + 3]`: its file and root page.
    fn built(e: &Env, name: &str) -> (PagedFile, PageId) {
        let entries = (0..100).map(|i| entry(i as f64, i as f64 + 3.0, i)).collect();
        let tree = IntervalTree::build(e.create_file(name).unwrap(), 4, entries).unwrap();
        tree.flush().unwrap();
        let IntervalTree { file, root, .. } = tree;
        (file, root)
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
        // Every field of the meta page, and the count of an inner and a
        // leaf block, patched to a value no tree here can have: `open`
        // refuses the first kind and the first stab the second.
        let e = env();
        let (file, _) = built(&e, "probe");
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
            let (file, _) = built(&e, &format!("meta{off}"));
            patch(&file, 0, off, value);
            let opened = IntervalTree::open(file);
            assert!(matches!(opened, Err(IndexError::Corrupt(_))), "meta offset {off}");
        }
        for node in ["inner", "leaf"] {
            let (file, root) = built(&e, node);
            patch(&file, if node == "inner" { root } else { 1 }, 4, 1 << 20);
            let tree = IntervalTree::open(file).unwrap();
            let stabbed = tree.stab(5.0, &mut |_, _, _| {});
            assert!(matches!(stabbed, Err(IndexError::Corrupt(_))), "{node} count");
        }
    }

    /// A flushed tree over `(lo, hi, payload)` entries in `e`.
    fn tree_of(
        e: &Env,
        name: &str,
        payload_len: usize,
        entries: &[(f64, f64, Vec<u8>)],
    ) -> IntervalTree {
        let entries = entries.iter().map(|(lo, hi, p)| IntervalEntry {
            lo: *lo,
            hi: *hi,
            payload: p.clone(),
        });
        let tree =
            IntervalTree::build(e.create_file(name).unwrap(), payload_len, entries.collect())
                .unwrap();
        tree.flush().unwrap();
        tree
    }

    /// The lane widths of every leaf of `tree`.
    fn leaf_widths(tree: &IntervalTree) -> Vec<Vec<u8>> {
        let lanes = tree.shape.lanes;
        (1..tree.file.num_blocks())
            .map(|page| tree.file.page(page).unwrap())
            .filter(|buf| get_u32(buf, 0) == LEAF_MAGIC)
            .map(|buf| buf[8..8 + lanes].to_vec())
            .collect()
    }

    /// What a stab at `t` visits, as bits, sorted.
    fn stab_bits(tree: &IntervalTree, t: f64) -> Result<Vec<(u64, u64, Vec<u8>)>> {
        let mut out = Vec::new();
        tree.stab(t, &mut |lo, hi, p| out.push((lo.to_bits(), hi.to_bits(), p.to_vec())))?;
        out.sort();
        Ok(out)
    }

    #[test]
    fn a_malformed_packed_leaf_is_refused_or_read_never_panics() {
        // One 256-byte leaf of 12-byte payloads (a 4-byte last lane) and
        // full-width rows, then every truncation of it (the rest zeroed)
        // and every single-byte flip: a stab returns entries or an error.
        let e = env();
        let entries: Vec<(f64, f64, Vec<u8>)> = (0u8..6)
            .map(|i| {
                (i as f64 - 2.5, 3.0 + i as f64, (0..12).map(|b| b ^ i.wrapping_mul(97)).collect())
            })
            .collect();
        let tree = tree_of(&e, "leaf", 12, &entries);
        assert_eq!(leaf_widths(&tree).len(), 1);
        let good = tree.file.page(1).unwrap().to_vec();
        let want = stab_bits(&tree, 2.75).unwrap();
        assert_eq!(want.len(), 6);
        let mut outcomes = [0usize; 2];
        let mut probe = |page: &[u8]| {
            tree.file.write(1, page).unwrap();
            for t in [-3.0, 2.75, 8.5] {
                outcomes[usize::from(stab_bits(&tree, t).is_ok())] += 1;
            }
        };
        for len in 0..good.len() {
            let mut page = vec![0u8; good.len()];
            page[..len].copy_from_slice(&good[..len]);
            probe(&page);
        }
        for at in 0..good.len() {
            let mut page = good.clone();
            page[at] ^= 0xFF;
            probe(&page);
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "errors / values: {outcomes:?}");
        tree.file.write(1, &good).unwrap();
        assert_eq!(stab_bits(&tree, 2.75).unwrap(), want);
        // The three header faults, each refused as corrupt: a lane wider
        // than its lane, rows past the block, a count past the cap.
        let shape = tree.shape;
        let (count, widths) = (get_u32(&good, 4) as usize, &good[8..8 + shape.lanes]);
        let row: usize = widths.iter().map(|&w| w as usize).sum();
        let overrun = (shape.body / row + 1) as u64;
        for (at, value) in [(8 + shape.lanes - 1, 5), (4, overrun), (4, shape.cap() as u64 + 1)] {
            let mut page = good.clone();
            match at {
                4 => _ = put_u32(&mut page, 4, value as u32),
                _ => page[at] = value as u8,
            }
            tree.file.write(1, &page).unwrap();
            let stabbed = stab_bits(&tree, 1.0);
            assert!(matches!(stabbed, Err(IndexError::Corrupt(_))), "byte {at} = {value}");
        }
        assert!(count <= shape.cap() && overrun > count as u64);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Rows decode to the pushed bits — `−0.0`, subnormal keys and
        /// NaN-patterned payloads included — at every payload length whose
        /// last lane is short or whole, from 256-byte to 4 KiB blocks, and
        /// at both extremes of the format: all-equal entries (every lane 0
        /// bytes wide) and a leaf whose lanes all differ in their top byte.
        #[test]
        fn packed_rows_round_trip_bit_for_bit(
            payload_len in proptest::prelude::prop_oneof![
                proptest::strategy::Just(1usize), proptest::strategy::Just(4usize),
                proptest::strategy::Just(8usize), proptest::strategy::Just(12usize),
                proptest::strategy::Just(28usize)
            ],
            block_log in 8usize..13,
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..400,
        ) {
            let block = 1 << block_log;
            let e = Env::mem(StoreConfig { block_size: block, pool_capacity: 64 });
            let mut x = seed | 1;
            let mut rnd = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let keys = [-0.0, 0.0, f64::from_bits(1), f64::from_bits(0x000F_FFFF_FFFF_FFFF), -3.5, 1e300];
            let random: Vec<(f64, f64, Vec<u8>)> = (0..n)
                .map(|_| {
                    let lo = match rnd() % 3 {
                        0 => keys[(rnd() % 6) as usize],
                        _ => (rnd() % 1000) as f64 * 0.37 - 150.0,
                    };
                    let hi = match rnd() % 4 {
                        0 => lo,
                        _ => lo + (rnd() % 500) as f64 * 0.11,
                    };
                    let nan = f64::from_bits(0x7FF8_0000_0000_0000 | rnd() >> 13).to_le_bytes();
                    let payload = (0..payload_len).map(|b| if b < 8 { nan[b] } else { rnd() as u8 }).collect();
                    (lo, hi, payload)
                })
                .collect();
            let same = vec![(f64::from_bits(1), 2.5, vec![0xA5; payload_len]); n];
            let top = |v: u8| {
                let mut p = vec![v; payload_len];
                for lane in p.chunks_mut(8) {
                    *lane.last_mut().unwrap() ^= 0x80;
                }
                p
            };
            let full = vec![(-1.0, -0.5, top(0x00)), (-1.0, 2.0, top(0xFF)), (0.5, 2.0, top(0x0F))];
            for (name, entries) in [("random", &random), ("same", &same), ("full", &full)] {
                let tree = tree_of(&e, name, payload_len, entries);
                let widths = leaf_widths(&tree);
                let full_widths: Vec<u8> = (0..tree.shape.lanes).map(|j| tree.shape.lane(j).len() as u8).collect();
                match name {
                    "same" => proptest::prop_assert!(widths.iter().all(|w| w.iter().all(|&w| w == 0))),
                    "full" => proptest::prop_assert_eq!(&widths, &vec![full_widths]),
                    _ => {}
                }
                let mut probes: Vec<f64> = entries.iter().flat_map(|e| [e.0, e.1]).collect();
                probes.dedup();
                for t in probes {
                    let mut want: Vec<(u64, u64, Vec<u8>)> = entries
                        .iter()
                        .filter(|e| e.0 <= t && t <= e.1)
                        .map(|e| (e.0.to_bits(), e.1.to_bits(), e.2.clone()))
                        .collect();
                    want.sort();
                    proptest::prop_assert_eq!(stab_bits(&tree, t).unwrap(), want, "{} t={}", name, t);
                }
            }
        }
    }

    #[test]
    fn a_link_back_into_the_tree_or_its_tail_is_refused_not_followed() {
        // The root's first child pointed at the root itself: a stab that
        // followed it would never return. It may visit no more pages than
        // the file holds.
        let e = env();
        let (file, root) = built(&e, "inner");
        patch(&file, root, INNER_HDR, root);
        let tree = IntervalTree::open(file).unwrap();
        let stabbed = tree.stab(5.0, &mut |_, _, _| {});
        assert!(matches!(stabbed, Err(IndexError::Corrupt(_))), "inner self-link");
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
    fn open_round_trips_with_tail() {
        let e = env();
        let (file, _) = built(&e, "it");
        let tree = IntervalTree::open(file).unwrap();
        assert_eq!(tree.len(), 100);
        assert_eq!(stab_tags(&tree, 50.5), vec![48, 49, 50]);
        // The meta page of a tree carrying a one-entry append tail, its
        // counts consistent (100 static + 1 tail = 101): built trees have
        // no tail, so `open` refuses it rather than skip the entry.
        let IntervalTree { file, .. } = tree;
        let tail = file.allocate(1).unwrap();
        for (off, value) in [(16, 101), (24, tail), (32, tail), (40, 1)] {
            patch(&file, 0, off, value);
        }
        assert!(matches!(IntervalTree::open(file), Err(IndexError::Corrupt(_))));
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
