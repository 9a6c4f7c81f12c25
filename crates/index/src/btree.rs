//! A disk-based B+-tree over `f64` keys with fixed-size payloads.
//!
//! This is the structure the paper calls "a B+-tree" throughout Section 2:
//! EXACT1 bulk-loads one over all `N` segments keyed by left endpoint;
//! EXACT2 builds a forest of `m` of them over prefix-sum entries; the
//! approximate methods use small ones as breakpoint directories. A tree
//! comes from a streaming **bulk load** of key-sorted input
//! ([`BulkLoader`]) or from [`BPlusTree::open`], and never changes after:
//! it answers **lower-bound searches** with a [`Cursor`] positioned at the
//! first entry with key ≥ the probe, stepping rightward across leaf links.
//! Appends live in the live engine, which rebuilds a tree rather than
//! editing one.
//!
//! Duplicate keys are allowed; `seek` always lands on the *leftmost*
//! duplicate.
//!
//! ## Page layout (all little-endian)
//!
//! ```text
//! meta (block 0): magic u32 | value_len u32 | root u64 | height u32 |
//!                 count u64 | first_leaf u64
//! leaf:           magic u32 | count u32 | next u64 | count × (key f64, payload)
//! internal:       magic u32 | count u32 | child0 u64 | (count-1) × (key f64, child u64)
//! ```
//!
//! `height = 1` means the root is a leaf. Page id 0 is always the meta page,
//! so 0 doubles as the "no next leaf" sentinel.

use crate::bulk::FenceSpill;
use crate::error::{IndexError, Result};
use chronorank_storage::page::{get_f64, get_u64, put_f64, put_u32, put_u64};
use chronorank_storage::{Page, PageId, PagedFile, Reader};

const META_MAGIC: u32 = 0xB7EE_0001;
const LEAF_MAGIC: u32 = 0xB7EE_00AA;
const INTERNAL_MAGIC: u32 = 0xB7EE_00BB;

const LEAF_HDR: usize = 4 + 4 + 8;
const INTERNAL_HDR: usize = 4 + 4;

/// A disk-based B+-tree (see module docs).
///
/// `Send + Sync`: a built tree is immutable — no method takes `&mut self`
/// — and any number of threads may `seek`/scan it through a shared
/// reference (the backing [`PagedFile`] synchronizes block access
/// internally).
pub struct BPlusTree {
    file: PagedFile,
    value_len: usize,
    root: PageId,
    height: u32,
    count: u64,
    first_leaf: PageId,
}

impl BPlusTree {
    /// Maximum entries per leaf for this block size / payload length.
    fn leaf_cap(block: usize, value_len: usize) -> usize {
        (block - LEAF_HDR) / (8 + value_len)
    }

    /// Maximum children per internal node.
    fn internal_cap(block: usize) -> usize {
        (block - INTERNAL_HDR - 8) / 16 + 1
    }

    /// Open a tree previously bulk-loaded in `file`.
    pub fn open(file: PagedFile) -> Result<Self> {
        let buf = file.page(0)?;
        let mut r = Reader::new(&buf);
        if r.u32("B+-tree magic")? != META_MAGIC {
            return Err(IndexError::Corrupt("not a B+-tree file".into()));
        }
        Ok(Self {
            // A payload fits a page: bounded by the meta page's bytes.
            value_len: r.count("value length", 1)?,
            root: r.u64("root")?,
            height: r.u32("height")?,
            count: r.u64("entry count")?,
            first_leaf: r.u64("first leaf")?,
            file,
        })
    }

    fn write_meta(&self) -> Result<()> {
        let mut buf = vec![0u8; self.file.block_size()];
        let mut o = put_u32(&mut buf, 0, META_MAGIC);
        o = put_u32(&mut buf, o, self.value_len as u32);
        o = put_u64(&mut buf, o, self.root);
        o = put_u32(&mut buf, o, self.height);
        o = put_u64(&mut buf, o, self.count);
        put_u64(&mut buf, o, self.first_leaf);
        self.file.write(0, &buf)?;
        Ok(())
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes allocated on the backing device.
    pub fn size_bytes(&self) -> u64 {
        self.file.size_bytes()
    }

    /// The backing file (for cache control / IO accounting).
    pub fn file(&self) -> &PagedFile {
        &self.file
    }

    /// Flush dirty pages and persist metadata.
    pub fn flush(&self) -> Result<()> {
        self.write_meta()?;
        self.file.flush()?;
        Ok(())
    }

    /// Node `id` as the pool lends it, checked to be a `magic` node, with
    /// its entry count and its leaf link (a leaf's next leaf). A count its
    /// block cannot hold (or an internal node without a child) is refused
    /// as [`IndexError::Corrupt`]: every decode below indexes the block by
    /// it.
    fn node(&self, id: PageId, magic: u32) -> Result<(Page, usize, PageId)> {
        let page = self.file.page(id)?;
        let mut r = Reader::new(&page);
        let got = r.u32("node magic")?;
        if got != magic {
            return Err(IndexError::Corrupt(format!(
                "expected page magic {magic:#x}, found {got:#x}"
            )));
        }
        let block = self.file.block_size();
        let counts = match magic {
            LEAF_MAGIC => 0..=Self::leaf_cap(block, self.value_len),
            _ => 1..=Self::internal_cap(block),
        };
        let n = r.u32("node entry count")? as usize;
        if !counts.contains(&n) {
            return Err(IndexError::Corrupt(format!(
                "node {id} holds {n} entries, not {counts:?}"
            )));
        }
        let link = r.u64("leaf link")?;
        Ok((page, n, link))
    }

    // ----- search ---------------------------------------------------------

    /// Position a cursor at the first entry with key ≥ `key`.
    pub fn seek(&self, key: f64) -> Result<Cursor<'_>> {
        let mut node = self.root;
        let mut level = self.height;
        while level > 1 {
            let (buf, n, _) = self.node(node, INTERNAL_MAGIC)?;
            // Leftmost-duplicate rule: descend to the first child whose
            // separator range can contain an entry ≥ key, i.e. child index
            // = #separators strictly below `key`.
            let mut idx = 0usize;
            while idx + 1 < n && internal_key(&buf, idx + 1) < key {
                idx += 1;
            }
            node = internal_child(&buf, idx);
            level -= 1;
        }
        let (buf, n, next) = self.node(node, LEAF_MAGIC)?;
        let stride = 8 + self.value_len;
        let mut idx = 0usize;
        while idx < n && get_f64(&buf, LEAF_HDR + idx * stride) < key {
            idx += 1;
        }
        let mut cur = Cursor { tree: self, buf, next, idx, entries: n };
        if idx == n {
            cur.advance_leaf()?;
        }
        Ok(cur)
    }

    /// Cursor at the first entry of the tree.
    pub fn cursor_first(&self) -> Result<Cursor<'_>> {
        let leaf = self.first_leaf;
        let (buf, n, next) = self.node(leaf, LEAF_MAGIC)?;
        let mut cur = Cursor { tree: self, buf, next, idx: 0, entries: n };
        if n == 0 {
            cur.advance_leaf()?;
        }
        Ok(cur)
    }

    /// The entry with the largest key (`None` when empty), in
    /// `O(log_B n)`: a seek past the last key falls back to it (EXACT2's
    /// total mass `σ_i(I_{i,n_i})`, QUERY1's last breakpoint).
    pub fn last_entry(&self) -> Result<Option<(f64, Vec<u8>)>> {
        if self.is_empty() {
            return Ok(None);
        }
        let mut node = self.root;
        let mut level = self.height;
        while level > 1 {
            let (buf, n, _) = self.node(node, INTERNAL_MAGIC)?;
            node = internal_child(&buf, n - 1);
            level -= 1;
        }
        let (buf, n, _) = self.node(node, LEAF_MAGIC)?;
        if n == 0 {
            return Ok(None);
        }
        let stride = 8 + self.value_len;
        let off = LEAF_HDR + (n - 1) * stride;
        Ok(Some((get_f64(&buf, off), buf[off + 8..off + 8 + self.value_len].to_vec())))
    }
}

/// Streaming bulk loader: push key-sorted entries, then [`BulkLoader::finish`].
///
/// # Bulk-load invariants
///
/// * Input keys must be **nondecreasing**; every leaf except the last is
///   written at **fill rate 1.0** (exactly `leaf_cap` entries), which is
///   what makes the paper's `O(scanned/B)` range-output cost hold.
/// * Leaves are allocated and written in key order, so leaf page ids are
///   physically sequential and the `next` chain never seeks backwards.
/// * Construction memory is one leaf buffer plus one fence per sealed leaf
///   (a [`FenceSpill`] nobody budgets; it stays only while the benchmark's
///   adapter pins the type).
pub struct BulkLoader {
    file: PagedFile,
    value_len: usize,
    leaf_cap: usize,
    block: usize,
    /// Current partially-filled leaf.
    cur: Vec<u8>,
    cur_id: PageId,
    cur_n: usize,
    cur_first_key: f64,
    /// Previous full leaf waiting for its `next` pointer.
    pending: Option<(PageId, Vec<u8>)>,
    /// `(first_key, page)` for every sealed leaf, bottom level of the build.
    level: FenceSpill,
    first_leaf: PageId,
    count: u64,
    last_key: f64,
}

impl BulkLoader {
    /// Start a bulk load into a freshly created `file`.
    pub fn new(file: PagedFile, value_len: usize) -> Result<Self> {
        let block = file.block_size();
        let leaf_cap = BPlusTree::leaf_cap(block, value_len);
        if leaf_cap < 2 || BPlusTree::internal_cap(block) < 3 {
            return Err(IndexError::BadInput(format!(
                "payload of {value_len} bytes does not fit a {block}-byte block"
            )));
        }
        let meta = file.allocate(1)?;
        debug_assert_eq!(meta, 0);
        let cur_id = file.allocate(1)?;
        Ok(Self {
            cur: vec![0u8; block],
            cur_id,
            cur_n: 0,
            cur_first_key: 0.0,
            pending: None,
            level: FenceSpill::unbounded(),
            first_leaf: cur_id,
            count: 0,
            last_key: f64::NEG_INFINITY,
            file,
            value_len,
            leaf_cap,
            block,
        })
    }

    /// Append one entry; keys must be nondecreasing.
    pub fn push(&mut self, key: f64, payload: &[u8]) -> Result<()> {
        if payload.len() != self.value_len {
            return Err(IndexError::BadInput(format!(
                "payload length {} != value_len {}",
                payload.len(),
                self.value_len
            )));
        }
        if !key.is_finite() || key < self.last_key {
            return Err(IndexError::BadInput(format!(
                "bulk-load keys must be nondecreasing and finite (got {key} after {})",
                self.last_key
            )));
        }
        self.last_key = key;
        if self.cur_n == self.leaf_cap {
            self.seal_leaf()?;
        }
        if self.cur_n == 0 {
            self.cur_first_key = key;
        }
        let stride = 8 + self.value_len;
        let off = LEAF_HDR + self.cur_n * stride;
        put_f64(&mut self.cur, off, key);
        self.cur[off + 8..off + stride].copy_from_slice(payload);
        self.cur_n += 1;
        self.count += 1;
        Ok(())
    }

    /// Seal the current leaf and open a new one.
    fn seal_leaf(&mut self) -> Result<()> {
        let new_id = self.file.allocate(1)?;
        encode_leaf_header(&mut self.cur, self.cur_n as u32, 0);
        if let Some((pid, mut pbuf)) = self.pending.take() {
            put_u64(&mut pbuf, 8, self.cur_id);
            self.file.write(pid, &pbuf)?;
        }
        self.level.push(self.cur_first_key, 0.0, self.cur_id)?;
        self.pending = Some((self.cur_id, std::mem::replace(&mut self.cur, vec![0u8; self.block])));
        self.cur_id = new_id;
        self.cur_n = 0;
        Ok(())
    }

    /// Build the internal levels and return the finished tree.
    pub fn finish(mut self) -> Result<BPlusTree> {
        // Seal the final (possibly empty) leaf.
        encode_leaf_header(&mut self.cur, self.cur_n as u32, 0);
        if let Some((pid, mut pbuf)) = self.pending.take() {
            if self.cur_n > 0 {
                put_u64(&mut pbuf, 8, self.cur_id);
            }
            self.file.write(pid, &pbuf)?;
        }
        if self.cur_n > 0 || self.level.is_empty() {
            self.level.push(self.cur_first_key, 0.0, self.cur_id)?;
            self.file.write(self.cur_id, &self.cur)?;
        }
        // Build internal levels bottom-up. The leaf-fence level is the only
        // one that can exceed the fence budget, so it is streamed out of the
        // (possibly spilled) queue chunk by chunk; each level above shrinks
        // by the internal fanout and stays in memory.
        let cap = BPlusTree::internal_cap(self.block);
        let mut height = 1u32;
        let fences = std::mem::replace(&mut self.level, FenceSpill::unbounded());
        let single_leaf = fences.len() == 1;
        let mut replay = fences.replay()?;
        let mut level: Vec<(f64, PageId)> = Vec::new();
        if single_leaf {
            while let Some((k, _, page)) = replay.next()? {
                level.push((k, page));
            }
        } else {
            height += 1;
            let mut buf = vec![0u8; self.block];
            let mut chunk: Vec<(f64, PageId)> = Vec::with_capacity(cap);
            loop {
                let item = replay.next()?;
                if let Some((k, _, page)) = item {
                    chunk.push((k, page));
                }
                if chunk.len() == cap || (item.is_none() && !chunk.is_empty()) {
                    let id = self.file.allocate(1)?;
                    let children: Vec<u64> = chunk.iter().map(|&(_, c)| c).collect();
                    let keys: Vec<f64> = chunk.iter().skip(1).map(|&(k, _)| k).collect();
                    encode_internal(&mut buf, &children, &keys);
                    self.file.write(id, &buf)?;
                    level.push((chunk[0].0, id));
                    chunk.clear();
                }
                if item.is_none() {
                    break;
                }
            }
        }
        while level.len() > 1 {
            height += 1;
            let mut upper: Vec<(f64, PageId)> = Vec::with_capacity(level.len() / 2 + 1);
            let mut buf = vec![0u8; self.block];
            for chunk in level.chunks(cap) {
                let id = self.file.allocate(1)?;
                let children: Vec<u64> = chunk.iter().map(|&(_, c)| c).collect();
                let keys: Vec<f64> = chunk.iter().skip(1).map(|&(k, _)| k).collect();
                encode_internal(&mut buf, &children, &keys);
                self.file.write(id, &buf)?;
                upper.push((chunk[0].0, id));
            }
            level = upper;
        }
        let root = level[0].1;
        let tree = BPlusTree {
            file: self.file,
            value_len: self.value_len,
            root,
            height,
            count: self.count,
            first_leaf: self.first_leaf,
        };
        tree.write_meta()?;
        Ok(tree)
    }
}

/// A forward cursor over leaf entries. Created by [`BPlusTree::seek`] /
/// [`BPlusTree::cursor_first`]; step with [`Cursor::advance`].
pub struct Cursor<'a> {
    tree: &'a BPlusTree,
    /// The current leaf, as the pool lent it.
    buf: Page,
    /// The current leaf's next leaf, 0 after the last.
    next: PageId,
    idx: usize,
    entries: usize,
}

impl<'a> Cursor<'a> {
    /// True when positioned on an entry.
    pub fn valid(&self) -> bool {
        self.idx < self.entries
    }

    /// Current key; cursor must be valid.
    pub fn key(&self) -> f64 {
        debug_assert!(self.valid());
        let stride = 8 + self.tree.value_len;
        get_f64(&self.buf, LEAF_HDR + self.idx * stride)
    }

    /// Current payload bytes; cursor must be valid.
    pub fn payload(&self) -> &[u8] {
        debug_assert!(self.valid());
        let stride = 8 + self.tree.value_len;
        let off = LEAF_HDR + self.idx * stride + 8;
        &self.buf[off..off + self.tree.value_len]
    }

    /// Step to the next entry (following leaf links); returns `valid()`.
    pub fn advance(&mut self) -> Result<bool> {
        self.idx += 1;
        if self.idx >= self.entries {
            self.advance_leaf()?;
        }
        Ok(self.valid())
    }

    /// Move to the first entry of the next non-empty leaf, if any.
    fn advance_leaf(&mut self) -> Result<()> {
        loop {
            if self.next == 0 {
                self.idx = 0;
                self.entries = 0;
                return Ok(());
            }
            (self.buf, self.entries, self.next) = self.tree.node(self.next, LEAF_MAGIC)?;
            self.idx = 0;
            if self.entries > 0 {
                return Ok(());
            }
        }
    }
}

// ----- page codecs ---------------------------------------------------------

fn encode_leaf_header(buf: &mut [u8], count: u32, next: u64) {
    let o = put_u32(buf, 0, LEAF_MAGIC);
    let o = put_u32(buf, o, count);
    put_u64(buf, o, next);
}

fn internal_key(buf: &[u8], i: usize) -> f64 {
    // Key i (1-based separators): child0 at 8, then (key, child) pairs.
    get_f64(buf, INTERNAL_HDR + 8 + (i - 1) * 16)
}

fn internal_child(buf: &[u8], i: usize) -> u64 {
    if i == 0 {
        get_u64(buf, INTERNAL_HDR)
    } else {
        get_u64(buf, INTERNAL_HDR + 8 + (i - 1) * 16 + 8)
    }
}

fn encode_internal(buf: &mut [u8], children: &[u64], keys: &[f64]) {
    debug_assert_eq!(children.len(), keys.len() + 1);
    buf.fill(0);
    let o = put_u32(buf, 0, INTERNAL_MAGIC);
    put_u32(buf, o, children.len() as u32);
    put_u64(buf, INTERNAL_HDR, children[0]);
    for (i, (&k, &c)) in keys.iter().zip(children.iter().skip(1)).enumerate() {
        let off = INTERNAL_HDR + 8 + i * 16;
        put_f64(buf, off, k);
        put_u64(buf, off + 8, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronorank_storage::{Env, StoreConfig};

    fn env() -> Env {
        // Small blocks force multi-level trees quickly.
        Env::mem(StoreConfig { block_size: 256, pool_capacity: 64 })
    }

    fn payload(v: u64) -> [u8; 8] {
        v.to_le_bytes()
    }

    fn collect_all(tree: &BPlusTree) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cur = tree.cursor_first().unwrap();
        while cur.valid() {
            out.push((cur.key(), u64::from_le_bytes(cur.payload().try_into().unwrap())));
            cur.advance().unwrap();
        }
        out
    }

    #[test]
    fn budgeted_bulk_load_is_bit_identical() {
        // Satellite invariant: spilling leaf fences to scratch must not
        // change one byte of the tree file, at any input size.
        let e = env();
        for n in [0u64, 1, 5, 40, 1000] {
            let mut plain =
                BulkLoader::new(e.create_file(&format!("plain{n}")).unwrap(), 8).unwrap();
            let mut tight =
                BulkLoader::new(e.create_file(&format!("tight{n}")).unwrap(), 8).unwrap();
            tight.level =
                FenceSpill::budgeted(e.create_file(&format!("scratch{n}")).unwrap(), 2).unwrap();
            for i in 0..n {
                let k = (i / 3) as f64; // duplicates included
                plain.push(k, &payload(i)).unwrap();
                tight.push(k, &payload(i)).unwrap();
            }
            let ta = plain.finish().unwrap();
            let tb = tight.finish().unwrap();
            assert_eq!(ta.file.num_blocks(), tb.file.num_blocks(), "n={n}");
            for id in 0..ta.file.num_blocks() {
                assert_eq!(
                    ta.file.page(id).unwrap(),
                    tb.file.page(id).unwrap(),
                    "block {id} at n={n}"
                );
            }
            assert_eq!(collect_all(&ta), collect_all(&tb));
        }
    }

    #[test]
    fn bulk_load_and_scan_all() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        for i in 0..1000u64 {
            b.push(i as f64, &payload(i)).unwrap();
        }
        let tree = b.finish().unwrap();
        assert_eq!(tree.len(), 1000);
        assert!(tree.height >= 2, "1000 entries in 256B blocks must be multi-level");
        let all = collect_all(&tree);
        assert_eq!(all.len(), 1000);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as f64);
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn seek_finds_lower_bound() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        for i in 0..500u64 {
            b.push(2.0 * i as f64, &payload(i)).unwrap(); // even keys 0..998
        }
        let tree = b.finish().unwrap();
        // Exact hit.
        let c = tree.seek(100.0).unwrap();
        assert!(c.valid());
        assert_eq!(c.key(), 100.0);
        // Between keys: lands on the next even key.
        let c = tree.seek(101.0).unwrap();
        assert_eq!(c.key(), 102.0);
        // Before the first key.
        let c = tree.seek(-5.0).unwrap();
        assert_eq!(c.key(), 0.0);
        // Past the last key: invalid cursor.
        let c = tree.seek(999.0).unwrap();
        assert!(!c.valid());
    }

    #[test]
    fn seek_lands_on_leftmost_duplicate() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        // 50 copies of key 1, then 300 copies of key 5 (spanning leaves),
        // then 50 copies of key 9.
        let mut seq = 0u64;
        for _ in 0..50 {
            b.push(1.0, &payload(seq)).unwrap();
            seq += 1;
        }
        let first_five = seq;
        for _ in 0..300 {
            b.push(5.0, &payload(seq)).unwrap();
            seq += 1;
        }
        for _ in 0..50 {
            b.push(9.0, &payload(seq)).unwrap();
            seq += 1;
        }
        let tree = b.finish().unwrap();
        let c = tree.seek(5.0).unwrap();
        assert_eq!(c.key(), 5.0);
        assert_eq!(u64::from_le_bytes(c.payload().try_into().unwrap()), first_five);
        // Scanning forward sees all 300 fives then a nine.
        let mut c = tree.seek(5.0).unwrap();
        let mut fives = 0;
        while c.valid() && c.key() == 5.0 {
            fives += 1;
            c.advance().unwrap();
        }
        assert_eq!(fives, 300);
        assert_eq!(c.key(), 9.0);
    }

    #[test]
    fn last_entry_returns_max_key() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        for i in 0..250u64 {
            b.push(i as f64, &payload(i)).unwrap();
        }
        let tree = b.finish().unwrap();
        assert!(tree.height >= 2, "the rightmost descent must cross an inner level");
        let (k, v) = tree.last_entry().unwrap().unwrap();
        assert_eq!(k, 249.0);
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 249);
    }

    #[test]
    fn open_after_flush_round_trips() {
        let e = env();
        let f = e.create_file("t").unwrap();
        let mut b = BulkLoader::new(f, 8).unwrap();
        for i in 0..100u64 {
            b.push(i as f64, &payload(i)).unwrap();
        }
        let tree = b.finish().unwrap();
        tree.flush().unwrap();
        // Re-open through a second file handle over the same device is not
        // possible with MemDevice, so emulate persistence by re-opening the
        // tree struct from its own file.
        let file = {
            let BPlusTree { file, .. } = tree;
            file
        };
        let tree2 = BPlusTree::open(file).unwrap();
        assert_eq!(tree2.len(), 100);
        let c = tree2.seek(42.0).unwrap();
        assert_eq!(c.key(), 42.0);
    }

    #[test]
    fn bulk_load_rejects_unsorted_input() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        b.push(5.0, &payload(0)).unwrap();
        assert!(matches!(b.push(4.0, &payload(1)), Err(IndexError::BadInput(_))));
        assert!(matches!(b.push(f64::NAN, &payload(1)), Err(IndexError::BadInput(_))));
    }

    #[test]
    fn wrong_payload_len_rejected() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        assert!(matches!(b.push(1.0, &[0u8; 4]), Err(IndexError::BadInput(_))));
        assert!(matches!(b.push(1.0, &[0u8; 9]), Err(IndexError::BadInput(_))));
        b.push(1.0, &payload(1)).unwrap();
        let tree = b.finish().unwrap();
        assert_eq!(collect_all(&tree), vec![(1.0, 1)], "refused pushes leave no entry");
    }

    #[test]
    fn empty_tree_cursors_are_invalid() {
        let e = env();
        let tree = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap().finish().unwrap();
        assert!(!tree.cursor_first().unwrap().valid());
        assert!(!tree.seek(0.0).unwrap().valid());
    }

    #[test]
    fn empty_bulk_load_is_a_valid_empty_tree() {
        let e = env();
        let b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        let tree = b.finish().unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.height, 1);
        assert!(tree.last_entry().unwrap().is_none());
        tree.flush().unwrap();
        let BPlusTree { file, .. } = tree;
        let reopened = BPlusTree::open(file).unwrap();
        assert!(reopened.is_empty());
        assert!(!reopened.cursor_first().unwrap().valid());
    }

    #[test]
    fn large_payloads_still_split_correctly() {
        let e = env();
        // 100-byte payloads in 256-byte blocks → 2 entries per leaf: 50
        // leaves under an inner level, ten duplicates of each key.
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 100).unwrap();
        let mk = |i: u64| {
            let mut p = vec![0u8; 100];
            p[..8].copy_from_slice(&i.to_le_bytes());
            p
        };
        for i in 0..100u64 {
            b.push((i / 10) as f64, &mk(i)).unwrap();
        }
        let tree = b.finish().unwrap();
        assert_eq!(tree.len(), 100);
        assert!(tree.height >= 2);
        let mut cur = tree.cursor_first().unwrap();
        let mut n = 0u64;
        while cur.valid() {
            assert_eq!(cur.key(), (n / 10) as f64);
            assert_eq!(cur.payload(), mk(n).as_slice(), "entry {n}");
            n += 1;
            cur.advance().unwrap();
        }
        assert_eq!(n, 100);
        let c = tree.seek(7.0).unwrap();
        assert_eq!(c.payload(), mk(70).as_slice(), "leftmost duplicate across a leaf split");
    }

    #[test]
    fn payload_too_large_for_block_is_rejected() {
        let e = env();
        assert!(BulkLoader::new(e.create_file("u").unwrap(), 4000).is_err());
    }

    #[test]
    fn a_node_count_its_block_cannot_hold_is_refused_not_trusted() {
        // 1,000 entries in 256-byte blocks: 15 a leaf, 67 leaves written
        // from page 1 on, 5 inner nodes under a root of 5. The second leaf's
        // count past its capacity, and the root's past its capacity or 0:
        // each read path that meets the node refuses it instead of indexing
        // the block by the count.
        let e = env();
        let corrupt = |r: Result<()>| matches!(r, Err(IndexError::Corrupt(_)));
        for (node, count) in [("leaf", 1u32 << 20), ("root", 1 << 20), ("root", 0)] {
            let mut b =
                BulkLoader::new(e.create_file(&format!("{node}{count}")).unwrap(), 8).unwrap();
            for i in 0..1000u64 {
                b.push(i as f64, &payload(i)).unwrap();
            }
            let tree = b.finish().unwrap();
            assert_eq!(tree.height, 3);
            let page = if node == "leaf" { tree.first_leaf + 1 } else { tree.root };
            let mut buf = tree.file.page(page).unwrap().to_vec();
            put_u32(&mut buf, 4, count);
            tree.file.write(page, &buf).unwrap();
            assert!(corrupt(tree.seek(20.0).map(drop)), "{node} {count}: seek");
            if node == "leaf" {
                let mut cur = tree.cursor_first().unwrap();
                let scan = (0..100).map(|_| cur.advance().map(drop)).find(Result::is_err);
                assert!(corrupt(scan.unwrap()), "a scan into the leaf");
            } else {
                assert!(corrupt(tree.last_entry().map(drop)), "{count}: last entry");
            }
        }
    }

    #[test]
    fn seek_counts_logarithmic_ios_when_cold() {
        let big = Env::mem(StoreConfig { block_size: 4096, pool_capacity: 4096 });
        let mut b = BulkLoader::new(big.create_file("t").unwrap(), 8).unwrap();
        for i in 0..200_000u64 {
            b.push(i as f64, &payload(i)).unwrap();
        }
        let tree = b.finish().unwrap();
        tree.file().drop_cache().unwrap();
        big.reset_io();
        let c = tree.seek(123_456.0).unwrap();
        assert!(c.valid());
        let ios = big.io_stats().reads;
        // height is 2-3 at this fanout; the seek must not scan.
        assert!(ios <= 5, "cold seek took {ios} reads");
    }
}
