//! A disk-based B+-tree over `f64` keys with fixed-size payloads.
//!
//! This is the structure the paper calls "a B+-tree" throughout Section 2:
//! EXACT1 bulk-loads one over all `N` segments keyed by left endpoint;
//! EXACT2 builds a forest of `m` of them over prefix-sum entries; the
//! approximate methods use small ones as breakpoint directories. Supported
//! operations:
//!
//! * streaming **bulk load** from key-sorted input ([`BulkLoader`]),
//! * point **insert** with node splits (the paper's `O(log_B N)` update),
//! * **lower-bound search** returning a [`Cursor`] positioned at the first
//!   entry with key ≥ the probe, stepping rightward across leaf links.
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
use chronorank_storage::page::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};
use chronorank_storage::{PageId, PagedFile};

const META_MAGIC: u32 = 0xB7EE_0001;
const LEAF_MAGIC: u32 = 0xB7EE_00AA;
const INTERNAL_MAGIC: u32 = 0xB7EE_00BB;

const LEAF_HDR: usize = 4 + 4 + 8;
const INTERNAL_HDR: usize = 4 + 4;

/// A disk-based B+-tree (see module docs).
///
/// `Send + Sync`: a built tree is an immutable snapshot that any number of
/// threads may `seek`/scan through a shared reference (the backing
/// [`PagedFile`] synchronizes block access internally). Mutation
/// ([`BPlusTree::insert`]) takes `&mut self`.
pub struct BPlusTree {
    file: PagedFile,
    value_len: usize,
    root: PageId,
    height: u32,
    count: u64,
    first_leaf: PageId,
}

impl BPlusTree {
    /// Start a streaming bulk load (alias for [`BulkLoader::new`]).
    pub fn bulk_loader(file: PagedFile, value_len: usize) -> Result<BulkLoader> {
        BulkLoader::new(file, value_len)
    }

    /// Maximum entries per leaf for this block size / payload length.
    fn leaf_cap(block: usize, value_len: usize) -> usize {
        (block - LEAF_HDR) / (8 + value_len)
    }

    /// Maximum children per internal node.
    fn internal_cap(block: usize) -> usize {
        (block - INTERNAL_HDR - 8) / 16 + 1
    }

    /// Create an empty tree in `file` (which must be freshly created).
    pub fn create(file: PagedFile, value_len: usize) -> Result<Self> {
        let block = file.block_size();
        if Self::leaf_cap(block, value_len) < 2 || Self::internal_cap(block) < 3 {
            return Err(IndexError::BadInput(format!(
                "payload of {value_len} bytes does not fit a {block}-byte block"
            )));
        }
        let meta = file.allocate(1)?;
        debug_assert_eq!(meta, 0);
        let root = file.allocate(1)?;
        let mut buf = vec![0u8; block];
        encode_leaf_header(&mut buf, 0, 0);
        file.write(root, &buf)?;
        let tree = Self { file, value_len, root, height: 1, count: 0, first_leaf: root };
        tree.write_meta()?;
        Ok(tree)
    }

    /// Open a tree previously created/bulk-loaded in `file`.
    pub fn open(file: PagedFile) -> Result<Self> {
        let mut buf = vec![0u8; file.block_size()];
        file.read(0, &mut buf)?;
        if get_u32(&buf, 0) != META_MAGIC {
            return Err(IndexError::Corrupt("not a B+-tree file".into()));
        }
        let value_len = get_u32(&buf, 4) as usize;
        let root = get_u64(&buf, 8);
        let height = get_u32(&buf, 16);
        let count = get_u64(&buf, 20);
        let first_leaf = get_u64(&buf, 28);
        Ok(Self { file, value_len, root, height, count, first_leaf })
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

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Payload length in bytes.
    pub fn value_len(&self) -> usize {
        self.value_len
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

    // ----- search ---------------------------------------------------------

    /// Position a cursor at the first entry with key ≥ `key`.
    pub fn seek(&self, key: f64) -> Result<Cursor<'_>> {
        let mut buf = vec![0u8; self.file.block_size()];
        let mut node = self.root;
        let mut level = self.height;
        while level > 1 {
            self.file.read(node, &mut buf)?;
            check_magic(&buf, INTERNAL_MAGIC)?;
            let n = get_u32(&buf, 4) as usize;
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
        self.file.read(node, &mut buf)?;
        check_magic(&buf, LEAF_MAGIC)?;
        let n = get_u32(&buf, 4) as usize;
        let stride = 8 + self.value_len;
        let mut idx = 0usize;
        while idx < n && get_f64(&buf, LEAF_HDR + idx * stride) < key {
            idx += 1;
        }
        let mut cur = Cursor { tree: self, buf, leaf: node, idx, entries: n };
        if idx == n {
            cur.advance_leaf()?;
        }
        Ok(cur)
    }

    /// Cursor at the first entry of the tree.
    pub fn cursor_first(&self) -> Result<Cursor<'_>> {
        let mut buf = vec![0u8; self.file.block_size()];
        let leaf = self.first_leaf;
        self.file.read(leaf, &mut buf)?;
        check_magic(&buf, LEAF_MAGIC)?;
        let n = get_u32(&buf, 4) as usize;
        let mut cur = Cursor { tree: self, buf, leaf, idx: 0, entries: n };
        if n == 0 {
            cur.advance_leaf()?;
        }
        Ok(cur)
    }

    /// Payload of the entry with the largest key (`None` when empty).
    /// Used by the update path to fetch `σ_i(I_{i,n_i})` in `O(log_B n)`.
    pub fn last_entry(&self) -> Result<Option<(f64, Vec<u8>)>> {
        if self.is_empty() {
            return Ok(None);
        }
        let mut buf = vec![0u8; self.file.block_size()];
        let mut node = self.root;
        let mut level = self.height;
        while level > 1 {
            self.file.read(node, &mut buf)?;
            check_magic(&buf, INTERNAL_MAGIC)?;
            let n = get_u32(&buf, 4) as usize;
            node = internal_child(&buf, n - 1);
            level -= 1;
        }
        self.file.read(node, &mut buf)?;
        check_magic(&buf, LEAF_MAGIC)?;
        let n = get_u32(&buf, 4) as usize;
        if n == 0 {
            return Ok(None);
        }
        let stride = 8 + self.value_len;
        let off = LEAF_HDR + (n - 1) * stride;
        Ok(Some((get_f64(&buf, off), buf[off + 8..off + 8 + self.value_len].to_vec())))
    }

    // ----- insert ---------------------------------------------------------

    /// Insert an entry (duplicates allowed, placed after existing equals).
    pub fn insert(&mut self, key: f64, payload: &[u8]) -> Result<()> {
        if payload.len() != self.value_len {
            return Err(IndexError::BadInput(format!(
                "payload length {} != value_len {}",
                payload.len(),
                self.value_len
            )));
        }
        if !key.is_finite() {
            return Err(IndexError::BadInput("key must be finite".into()));
        }
        let split = self.insert_rec(self.root, self.height, key, payload)?;
        if let Some((sep, right)) = split {
            // Grow the tree: new root with two children.
            let new_root = self.file.allocate(1)?;
            let mut buf = vec![0u8; self.file.block_size()];
            let mut o = put_u32(&mut buf, 0, INTERNAL_MAGIC);
            o = put_u32(&mut buf, o, 2);
            o = put_u64(&mut buf, o, self.root);
            o = put_f64(&mut buf, o, sep);
            put_u64(&mut buf, o, right);
            self.file.write(new_root, &buf)?;
            self.root = new_root;
            self.height += 1;
        }
        self.count += 1;
        self.write_meta()?;
        Ok(())
    }

    fn insert_rec(
        &self,
        node: PageId,
        level: u32,
        key: f64,
        payload: &[u8],
    ) -> Result<Option<(f64, PageId)>> {
        let block = self.file.block_size();
        let mut buf = vec![0u8; block];
        self.file.read(node, &mut buf)?;
        if level == 1 {
            check_magic(&buf, LEAF_MAGIC)?;
            return self.leaf_insert(node, &mut buf, key, payload);
        }
        check_magic(&buf, INTERNAL_MAGIC)?;
        let n = get_u32(&buf, 4) as usize;
        // Rightmost-duplicate descent for inserts.
        let mut idx = 0usize;
        while idx + 1 < n && internal_key(&buf, idx + 1) <= key {
            idx += 1;
        }
        let child = internal_child(&buf, idx);
        let split = self.insert_rec(child, level - 1, key, payload)?;
        let Some((sep, right)) = split else { return Ok(None) };
        // Re-read: recursion may have evicted our frame, but contents of
        // this node only change through this single-threaded path, so the
        // buffer is still valid; decode fresh anyway for clarity.
        self.file.read(node, &mut buf)?;
        let (mut children, mut keys) = decode_internal(&buf);
        children.insert(idx + 1, right);
        keys.insert(idx, sep);
        let cap = Self::internal_cap(block);
        if children.len() <= cap {
            encode_internal(&mut buf, &children, &keys);
            self.file.write(node, &buf)?;
            return Ok(None);
        }
        // Split: promote the median separator.
        let mid = children.len() / 2; // left keeps `mid` children
        let promoted = keys[mid - 1];
        let right_children: Vec<u64> = children.split_off(mid);
        let right_keys: Vec<f64> = keys.split_off(mid);
        keys.pop(); // drop the promoted separator from the left node
        let right_id = self.file.allocate(1)?;
        encode_internal(&mut buf, &children, &keys);
        self.file.write(node, &buf)?;
        let mut rbuf = vec![0u8; block];
        encode_internal(&mut rbuf, &right_children, &right_keys);
        self.file.write(right_id, &rbuf)?;
        Ok(Some((promoted, right_id)))
    }

    fn leaf_insert(
        &self,
        node: PageId,
        buf: &mut [u8],
        key: f64,
        payload: &[u8],
    ) -> Result<Option<(f64, PageId)>> {
        let block = self.file.block_size();
        let stride = 8 + self.value_len;
        let cap = Self::leaf_cap(block, self.value_len);
        let n = get_u32(buf, 4) as usize;
        let mut pos = 0usize;
        while pos < n && get_f64(buf, LEAF_HDR + pos * stride) <= key {
            pos += 1;
        }
        if n < cap {
            // Shift right and insert in place.
            let start = LEAF_HDR + pos * stride;
            let end = LEAF_HDR + n * stride;
            buf.copy_within(start..end, start + stride);
            put_f64(buf, start, key);
            buf[start + 8..start + stride].copy_from_slice(payload);
            put_u32(buf, 4, (n + 1) as u32);
            self.file.write(node, buf)?;
            return Ok(None);
        }
        // Split the leaf: left keeps `half`, right takes the rest.
        let half = n.div_ceil(2);
        let right_id = self.file.allocate(1)?;
        let next = get_u64(buf, 8);
        let mut entries: Vec<(f64, Vec<u8>)> = (0..n)
            .map(|i| {
                let off = LEAF_HDR + i * stride;
                (get_f64(buf, off), buf[off + 8..off + stride].to_vec())
            })
            .collect();
        entries.insert(pos, (key, payload.to_vec()));
        let right_entries = entries.split_off(half);
        // Rewrite left leaf (points to the new right leaf).
        encode_leaf_header(buf, entries.len() as u32, right_id);
        for (i, (k, v)) in entries.iter().enumerate() {
            let off = LEAF_HDR + i * stride;
            put_f64(buf, off, *k);
            buf[off + 8..off + stride].copy_from_slice(v);
        }
        // Zero the tail so stale bytes never persist.
        for b in &mut buf[LEAF_HDR + entries.len() * stride..] {
            *b = 0;
        }
        self.file.write(node, buf)?;
        // Write the right leaf.
        let mut rbuf = vec![0u8; block];
        encode_leaf_header(&mut rbuf, right_entries.len() as u32, next);
        for (i, (k, v)) in right_entries.iter().enumerate() {
            let off = LEAF_HDR + i * stride;
            put_f64(&mut rbuf, off, *k);
            rbuf[off + 8..off + stride].copy_from_slice(v);
        }
        self.file.write(right_id, &rbuf)?;
        Ok(Some((right_entries[0].0, right_id)))
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
    buf: Vec<u8>,
    leaf: PageId,
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
            let next = get_u64(&self.buf, 8);
            if next == 0 {
                self.idx = 0;
                self.entries = 0;
                return Ok(());
            }
            self.tree.file.read(next, &mut self.buf)?;
            check_magic(&self.buf, LEAF_MAGIC)?;
            self.leaf = next;
            self.idx = 0;
            self.entries = get_u32(&self.buf, 4) as usize;
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

fn decode_internal(buf: &[u8]) -> (Vec<u64>, Vec<f64>) {
    let n = get_u32(buf, 4) as usize;
    let mut children = Vec::with_capacity(n + 1);
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        children.push(internal_child(buf, i));
        if i > 0 {
            keys.push(internal_key(buf, i));
        }
    }
    (children, keys)
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

fn check_magic(buf: &[u8], want: u32) -> Result<()> {
    let got = get_u32(buf, 0);
    if got != want {
        return Err(IndexError::Corrupt(format!("expected page magic {want:#x}, found {got:#x}")));
    }
    Ok(())
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
            let block = ta.file.block_size();
            let (mut ba, mut bb) = (vec![0u8; block], vec![0u8; block]);
            for id in 0..ta.file.num_blocks() {
                ta.file.read(id, &mut ba).unwrap();
                tb.file.read(id, &mut bb).unwrap();
                assert_eq!(ba, bb, "block {id} differs at n={n}");
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
        assert!(tree.height() >= 2, "1000 entries in 256B blocks must be multi-level");
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
    fn inserts_into_empty_tree() {
        let e = env();
        let mut tree = BPlusTree::create(e.create_file("t").unwrap(), 8).unwrap();
        assert!(tree.is_empty());
        for i in (0..300u64).rev() {
            tree.insert(i as f64, &payload(i)).unwrap();
        }
        assert_eq!(tree.len(), 300);
        let all = collect_all(&tree);
        assert_eq!(all.len(), 300);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as f64, "sorted order after random-order inserts");
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn interleaved_inserts_after_bulk_load() {
        let e = env();
        let mut b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        for i in 0..200u64 {
            b.push((2 * i) as f64, &payload(2 * i)).unwrap();
        }
        let mut tree = b.finish().unwrap();
        for i in 0..200u64 {
            tree.insert((2 * i + 1) as f64, &payload(2 * i + 1)).unwrap();
        }
        assert_eq!(tree.len(), 400);
        let all = collect_all(&tree);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as f64);
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn last_entry_returns_max_key() {
        let e = env();
        let mut tree = BPlusTree::create(e.create_file("t").unwrap(), 8).unwrap();
        assert!(tree.last_entry().unwrap().is_none());
        for i in 0..250u64 {
            tree.insert(i as f64, &payload(i)).unwrap();
        }
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
        let mut tree = BPlusTree::create(e.create_file("t").unwrap(), 8).unwrap();
        assert!(matches!(tree.insert(1.0, &[0u8; 4]), Err(IndexError::BadInput(_))));
        let mut b = BulkLoader::new(e.create_file("u").unwrap(), 8).unwrap();
        assert!(matches!(b.push(1.0, &[0u8; 9]), Err(IndexError::BadInput(_))));
    }

    #[test]
    fn empty_tree_cursors_are_invalid() {
        let e = env();
        let tree = BPlusTree::create(e.create_file("t").unwrap(), 8).unwrap();
        assert!(!tree.cursor_first().unwrap().valid());
        assert!(!tree.seek(0.0).unwrap().valid());
    }

    #[test]
    fn empty_bulk_load_is_a_valid_empty_tree() {
        let e = env();
        let b = BulkLoader::new(e.create_file("t").unwrap(), 8).unwrap();
        let mut tree = b.finish().unwrap();
        assert!(tree.is_empty());
        assert!(!tree.cursor_first().unwrap().valid());
        tree.insert(1.0, &payload(1)).unwrap();
        assert_eq!(collect_all(&tree), vec![(1.0, 1)]);
    }

    #[test]
    fn large_payloads_still_split_correctly() {
        let e = env();
        // 100-byte payloads in 256-byte blocks → 2 entries per leaf.
        let mut tree = BPlusTree::create(e.create_file("t").unwrap(), 100).unwrap();
        let mk = |i: u64| {
            let mut p = vec![0u8; 100];
            p[..8].copy_from_slice(&i.to_le_bytes());
            p
        };
        for i in 0..100u64 {
            tree.insert((i % 10) as f64, &mk(i)).unwrap();
        }
        assert_eq!(tree.len(), 100);
        let mut cur = tree.cursor_first().unwrap();
        let mut prev = f64::NEG_INFINITY;
        let mut n = 0;
        while cur.valid() {
            assert!(cur.key() >= prev);
            prev = cur.key();
            n += 1;
            cur.advance().unwrap();
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn payload_too_large_for_block_is_rejected() {
        let e = env();
        assert!(BPlusTree::create(e.create_file("t").unwrap(), 4000).is_err());
        assert!(BulkLoader::new(e.create_file("u").unwrap(), 4000).is_err());
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
