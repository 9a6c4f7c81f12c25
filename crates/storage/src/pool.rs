//! Buffer pool: a write-back block cache with LRU eviction.
//!
//! [`PagedFile`] is the unit the index crates build on. Reads that hit the
//! cache are free; misses fetch from the device and count one read IO;
//! dirty frames count one write IO when they are evicted or flushed. This
//! mirrors how TPIE-backed structures in the paper accumulate their IO
//! counts.
//!
//! A frame holds its block as a [`Page`] handle and exchanges it with the
//! device through [`BlockDevice::load`] / [`BlockDevice::store`]. Over a
//! [`crate::MemDevice`] both are a pointer copy, so a clean cached page and
//! the device's block are one allocation — the pool costs IO accounting, not
//! a second copy of the index. A frame owns its bytes (and is written in
//! place) from the first [`PagedFile::write`] after it was loaded or written
//! back until the next write-back; a write to a frame whose handle the
//! device also holds replaces it with a fresh buffer, so the device never
//! sees bytes that were not written back. Over a [`crate::FileDevice`]
//! nothing is shared and a frame's buffer is reused across evictions.
//!
//! Towards callers the API stays copy-in/copy-out (callers own scratch
//! buffers): that keeps the lock held for one block transfer only and the
//! pool reentrancy-safe without unsafe code, and callers decode records out
//! of the copy anyway — a 4 KB memcpy is far below the cost noise floor of
//! anything this workspace measures.
//!
//! `PagedFile` is `Send + Sync`: the pool state sits behind one internal
//! [`Mutex`], so any number of threads can read and write through a shared
//! reference (`&PagedFile` / `Arc<PagedFile>`). The critical section covers
//! exactly one block transfer plus the frame-table update — callers never
//! hold the lock while computing on block contents, because the API copies
//! the block out before returning.

use crate::device::{BlockDevice, Page};
use crate::error::{Result, StorageError};
use crate::stats::IoCounter;
use crate::PageId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Configuration for a [`PagedFile`]'s pool and device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Block size in bytes (paper default: 4096).
    pub block_size: usize,
    /// Number of cache frames per file.
    pub pool_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { block_size: crate::DEFAULT_BLOCK_SIZE, pool_capacity: crate::DEFAULT_POOL_CAPACITY }
    }
}

struct Frame {
    /// The block this frame caches; `None` after a load into it failed.
    id: Option<PageId>,
    dirty: bool,
    /// Tick of the most recent access (LRU victim = minimum).
    last_used: u64,
    page: Page,
}

struct PoolInner {
    device: Box<dyn BlockDevice>,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl PoolInner {
    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.frames[idx].last_used = self.tick;
    }

    /// Index of the frame holding `id`, faulting it in if necessary. A
    /// failed write-back leaves the pool as it was; a failed load costs at
    /// most the victim's cached copy, which was clean by then.
    fn frame_for(&mut self, id: PageId, counter: &IoCounter, load: bool) -> Result<usize> {
        if id >= self.device.num_blocks() {
            return Err(StorageError::OutOfBounds { id, len: self.device.num_blocks() });
        }
        if let Some(&idx) = self.map.get(&id) {
            self.hits += 1;
            self.touch(idx);
            return Ok(idx);
        }
        self.misses += 1;
        let idx = if self.frames.len() < self.capacity {
            // No buffer yet: the device's handle or the caller's bytes fill it.
            self.frames.push(Frame { id: None, dirty: false, last_used: 0, page: Page::default() });
            self.frames.len() - 1
        } else {
            let victim = self.pick_victim();
            self.write_back(victim, counter)?;
            victim
        };
        let frame = &mut self.frames[idx];
        // Unmapped until the page is in: a failed load may leave half a
        // transfer in the buffer, and the frame is then the next victim.
        if let Some(old) = frame.id.take() {
            self.map.remove(&old);
        }
        frame.last_used = 0;
        if load {
            self.device.load(id, &mut frame.page)?;
            counter.add_reads(1);
        }
        frame.id = Some(id);
        self.map.insert(id, idx);
        self.touch(idx);
        Ok(idx)
    }

    /// Hand frame `idx`'s page to the device if it is dirty.
    fn write_back(&mut self, idx: usize, counter: &IoCounter) -> Result<()> {
        let frame = &mut self.frames[idx];
        if let (true, Some(id)) = (frame.dirty, frame.id) {
            self.device.store(id, &frame.page)?;
            frame.dirty = false;
            counter.add_writes(1);
        }
        Ok(())
    }

    /// LRU victim: the frame with the smallest access tick. A linear scan is
    /// fine at the pool sizes this workspace uses (≤ a few thousand frames),
    /// and eviction cost is dominated by the device transfer anyway.
    fn pick_victim(&self) -> usize {
        self.frames
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i)
            .expect("pool has at least one frame")
    }

    fn flush(&mut self, counter: &IoCounter) -> Result<()> {
        for idx in 0..self.frames.len() {
            self.write_back(idx, counter)?;
        }
        self.device.sync()?;
        Ok(())
    }
}

/// A buffer-pool-cached block file. `Send + Sync`: share freely via
/// `&PagedFile` or `Arc<PagedFile>` — all methods take `&self` and the
/// pool synchronizes internally.
pub struct PagedFile {
    inner: Mutex<PoolInner>,
    counter: IoCounter,
    block_size: usize,
}

impl PagedFile {
    /// Wrap `device` with a pool of `config.pool_capacity` frames, charging
    /// IOs to `counter`.
    pub fn new(device: Box<dyn BlockDevice>, config: StoreConfig, counter: IoCounter) -> Self {
        assert_eq!(device.block_size(), config.block_size, "device/config block size mismatch");
        assert!(config.pool_capacity >= 1, "pool needs at least one frame");
        let block_size = device.block_size();
        Self {
            inner: Mutex::new(PoolInner {
                device,
                frames: Vec::new(),
                map: HashMap::new(),
                tick: 0,
                capacity: config.pool_capacity,
                hits: 0,
                misses: 0,
            }),
            counter,
            block_size,
        }
    }

    /// The pool state, poison-transparent: a panic inside the lock can only
    /// happen on a caller-visible invariant breach (and the pool never
    /// unwinds mid-update on the error paths it returns), so serving
    /// threads keep going instead of cascading the poison.
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of allocated blocks.
    pub fn num_blocks(&self) -> u64 {
        self.lock().device.num_blocks()
    }

    /// Total bytes allocated on the device (the "index size" metric).
    pub fn size_bytes(&self) -> u64 {
        self.num_blocks() * self.block_size as u64
    }

    /// The shared IO counter this file charges to.
    pub fn io(&self) -> IoCounter {
        self.counter.clone()
    }

    /// Read block `id` into `buf` (length must equal the block size).
    pub fn read(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(StorageError::BadBufferLen { got: buf.len(), want: self.block_size });
        }
        let mut inner = self.lock();
        let idx = inner.frame_for(id, &self.counter, true)?;
        buf.copy_from_slice(&inner.frames[idx].page);
        Ok(())
    }

    /// Write `buf` to block `id` (write-back: dirties the cached frame).
    pub fn write(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if buf.len() != self.block_size {
            return Err(StorageError::BadBufferLen { got: buf.len(), want: self.block_size });
        }
        let mut inner = self.lock();
        // A full-block overwrite never needs to fault the old contents in.
        let idx = inner.frame_for(id, &self.counter, false)?;
        let frame = &mut inner.frames[idx];
        // In place only where this frame holds the sole handle to a buffer:
        // the device must not see bytes before they are written back.
        match Arc::get_mut(&mut frame.page) {
            Some(own) if own.len() == buf.len() => own.copy_from_slice(buf),
            _ => frame.page = Page::from(buf),
        }
        frame.dirty = true;
        Ok(())
    }

    /// Extend the file by `n` zeroed blocks, returning the first new id.
    pub fn allocate(&self, n: u64) -> Result<PageId> {
        self.lock().device.allocate(n)
    }

    /// Write all dirty frames back and sync the device.
    pub fn flush(&self) -> Result<()> {
        self.lock().flush(&self.counter)
    }

    /// Flush, then empty the cache. Subsequent reads fault from the device,
    /// which is how per-query cold IO counts are measured.
    pub fn drop_cache(&self) -> Result<()> {
        let mut inner = self.lock();
        inner.flush(&self.counter)?;
        inner.frames.clear();
        inner.map.clear();
        inner.tick = 0;
        Ok(())
    }

    /// `(cache hits, cache misses)` since creation.
    pub fn cache_stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{FileDevice, MemDevice};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn file_on(device: impl BlockDevice + 'static, cap: usize) -> PagedFile {
        let cfg = StoreConfig { block_size: 128, pool_capacity: cap };
        PagedFile::new(Box::new(device), cfg, IoCounter::new())
    }

    fn file(cap: usize) -> PagedFile {
        file_on(MemDevice::new(128), cap)
    }

    /// A [`MemDevice`] the test keeps a second handle to, so it can look at
    /// the device's blocks behind the pool's back.
    #[derive(Clone)]
    struct Shared(Arc<Mutex<MemDevice>>);

    impl Shared {
        /// The handle the device holds for block `id` (what a load hands out).
        fn block(&self, id: PageId) -> Page {
            let mut page = Page::default();
            self.0.lock().unwrap().load(id, &mut page).unwrap();
            page
        }
    }

    impl BlockDevice for Shared {
        fn block_size(&self) -> usize {
            self.0.lock().unwrap().block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.lock().unwrap().num_blocks()
        }
        fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.0.lock().unwrap().read(id, buf)
        }
        fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
            self.0.lock().unwrap().write(id, buf)
        }
        fn allocate(&mut self, n: u64) -> Result<PageId> {
            self.0.lock().unwrap().allocate(n)
        }
        fn sync(&mut self) -> Result<()> {
            self.0.lock().unwrap().sync()
        }
        fn load(&mut self, id: PageId, page: &mut Page) -> Result<()> {
            self.0.lock().unwrap().load(id, page)
        }
        fn store(&mut self, id: PageId, page: &Page) -> Result<()> {
            self.0.lock().unwrap().store(id, page)
        }
    }

    /// The handle the pool's frame for block `id` holds.
    fn cached(f: &PagedFile, id: PageId) -> Page {
        let inner = f.lock();
        Arc::clone(&inner.frames[inner.map[&id]].page)
    }

    /// Fails the next transfer after the test arms it — a read fails half
    /// way through the caller's buffer. Only the required methods, so the
    /// pool reaches it through the provided `load` / `store`.
    struct Flaky {
        inner: MemDevice,
        fail_next: Arc<AtomicBool>,
    }

    impl Flaky {
        fn trip(&self) -> Result<()> {
            if self.fail_next.swap(false, Ordering::Relaxed) {
                return Err(StorageError::Io(std::io::Error::other("injected fault")));
            }
            Ok(())
        }
    }

    impl BlockDevice for Flaky {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
            let half = buf.len() / 2;
            self.trip().inspect_err(|_| buf[..half].fill(0xEE))?;
            self.inner.read(id, buf)
        }
        fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
            self.trip()?;
            self.inner.write(id, buf)
        }
        fn allocate(&mut self, n: u64) -> Result<PageId> {
            self.inner.allocate(n)
        }
        fn sync(&mut self) -> Result<()> {
            self.inner.sync()
        }
    }

    fn flaky_file(cap: usize) -> (PagedFile, Arc<AtomicBool>) {
        let fail_next = Arc::new(AtomicBool::new(false));
        let device = Flaky { inner: MemDevice::new(128), fail_next: Arc::clone(&fail_next) };
        (file_on(device, cap), fail_next)
    }

    #[test]
    fn write_then_read_hits_cache() {
        let f = file(4);
        let id = f.allocate(1).unwrap();
        let page = vec![7u8; 128];
        f.write(id, &page).unwrap();
        let mut out = vec![0u8; 128];
        f.read(id, &mut out).unwrap();
        assert_eq!(out, page);
        // Never touched the device: write was cached, read hit.
        assert_eq!(f.io().snapshot().total(), 0);
    }

    #[test]
    fn drop_cache_counts_cold_reads() {
        let f = file(4);
        let id = f.allocate(2).unwrap();
        f.write(id, &[1u8; 128]).unwrap();
        f.write(id + 1, &[2u8; 128]).unwrap();
        f.drop_cache().unwrap();
        assert_eq!(f.io().snapshot().writes, 2);
        f.io().reset();

        let mut out = vec![0u8; 128];
        f.read(id, &mut out).unwrap();
        assert_eq!(out[0], 1);
        f.read(id + 1, &mut out).unwrap();
        assert_eq!(out[0], 2);
        assert_eq!(f.io().snapshot().reads, 2);
        // Re-reads hit the cache.
        f.read(id, &mut out).unwrap();
        assert_eq!(f.io().snapshot().reads, 2);
    }

    #[test]
    fn eviction_writes_back_dirty_frames() {
        let f = file(2);
        let first = f.allocate(4).unwrap();
        for i in 0..4u64 {
            f.write(first + i, &[i as u8 + 1; 128]).unwrap();
        }
        // Pool holds 2 frames, so at least 2 dirty evictions must have hit
        // the device by now.
        assert!(f.io().snapshot().writes >= 2);
        // All four blocks are still correct after a full flush + cold read.
        f.drop_cache().unwrap();
        let mut out = vec![0u8; 128];
        for i in 0..4u64 {
            f.read(first + i, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == i as u8 + 1), "block {i}");
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_page() {
        let f = file(2);
        let first = f.allocate(3).unwrap();
        let mut out = vec![0u8; 128];
        f.read(first, &mut out).unwrap(); // frame A: block 0
        f.read(first + 1, &mut out).unwrap(); // frame B: block 1
        f.read(first, &mut out).unwrap(); // touch block 0 again
        f.read(first + 2, &mut out).unwrap(); // needs eviction
        f.io().reset();
        // Block 0 was recently referenced, so block 1 should be the victim;
        // reading block 0 again must still be a cache hit.
        f.read(first, &mut out).unwrap();
        assert_eq!(f.io().snapshot().reads, 0);
    }

    #[test]
    fn a_page_cached_from_or_flushed_to_memory_is_the_devices_allocation() {
        let dev = Shared(Arc::new(Mutex::new(MemDevice::new(128))));
        let f = file_on(dev.clone(), 4);
        f.allocate(1).unwrap();
        f.write(0, &[7u8; 128]).unwrap();
        assert!(dev.block(0).iter().all(|&b| b == 0), "write-back cache: nothing out yet");
        f.flush().unwrap();
        assert!(Arc::ptr_eq(&cached(&f, 0), &dev.block(0)), "a flush hands the frame's page over");
        assert!(dev.block(0).iter().all(|&b| b == 7));

        // A cold read allocates no page: the new frame points at the block.
        f.drop_cache().unwrap();
        let mut out = vec![0u8; 128];
        f.read(0, &mut out).unwrap();
        assert_eq!(out, [7u8; 128]);
        assert!(Arc::ptr_eq(&cached(&f, 0), &dev.block(0)));
        assert_eq!(f.io().snapshot(), crate::IoStats { reads: 1, writes: 1, ..Default::default() });
    }

    #[test]
    fn rewriting_a_clean_page_reaches_the_device_only_when_written_back() {
        let dev = Shared(Arc::new(Mutex::new(MemDevice::new(128))));
        let f = file_on(dev.clone(), 1);
        f.allocate(2).unwrap();
        f.write(0, &[1u8; 128]).unwrap();
        f.flush().unwrap();
        let mut out = vec![0u8; 128];
        for (round, by_flush) in [(2u8, true), (3u8, false)] {
            // The frame shares its page with the device here; the rewrite
            // must show to readers at once and to the device not yet.
            let before = dev.block(0);
            f.write(0, &[round; 128]).unwrap();
            f.read(0, &mut out).unwrap();
            assert_eq!(out, [round; 128]);
            assert!(Arc::ptr_eq(&before, &dev.block(0)));
            assert!(before.iter().all(|&b| b == round - 1), "the device saw an unflushed write");
            if by_flush {
                f.flush().unwrap();
                assert!(Arc::ptr_eq(&cached(&f, 0), &dev.block(0)));
            } else {
                f.read(1, &mut out).unwrap(); // one frame: evicts block 0
            }
            assert!(dev.block(0).iter().all(|&b| b == round));
        }
    }

    #[test]
    fn allocated_never_written_blocks_read_as_zeros_on_both_devices() {
        let dir = std::env::temp_dir().join(format!("chronorank-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let on_disk = FileDevice::create_scratch(&dir.join("zeros.blk"), 128).unwrap();
        for f in [file(2), file_on(on_disk, 2)] {
            f.allocate(3).unwrap();
            f.write(1, &[4u8; 128]).unwrap();
            let mut out = vec![0xAAu8; 128];
            for id in [0, 2] {
                f.read(id, &mut out).unwrap();
                assert_eq!(out, [0u8; 128], "block {id}");
            }
            f.read(1, &mut out).unwrap();
            assert_eq!(out, [4u8; 128]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_flush_keeps_the_page_dirty_and_readable() {
        let (f, fail_next) = flaky_file(2);
        f.allocate(1).unwrap();
        f.write(0, &[7u8; 128]).unwrap();
        fail_next.store(true, Ordering::Relaxed);
        assert!(matches!(f.flush(), Err(StorageError::Io(_))));
        let mut out = vec![0u8; 128];
        f.read(0, &mut out).unwrap();
        assert_eq!(out, [7u8; 128]);
        assert_eq!(f.io().snapshot().total(), 0, "the failed transfer is not charged");
        // The retry writes it, once.
        f.flush().unwrap();
        f.flush().unwrap();
        assert_eq!(f.io().snapshot().writes, 1);
        f.drop_cache().unwrap();
        f.read(0, &mut out).unwrap();
        assert_eq!(out, [7u8; 128]);
    }

    #[test]
    fn a_failed_load_loses_no_frame_and_serves_no_half_read_page() {
        let (f, fail_next) = flaky_file(2);
        f.allocate(3).unwrap();
        for id in 0..3u64 {
            f.write(id, &[id as u8 + 1; 128]).unwrap();
        }
        f.drop_cache().unwrap();
        f.io().reset();
        let mut out = vec![0u8; 128];
        let mut read = |id: u64| {
            f.read(id, &mut out)?;
            assert!(out.iter().all(|&b| b == out[0]), "block {id} is torn");
            Ok::<u8, StorageError>(out[0])
        };
        let reads = || f.io().snapshot().reads;

        // Into a frame the pool had not used yet.
        fail_next.store(true, Ordering::Relaxed);
        assert!(matches!(read(0), Err(StorageError::Io(_))));
        assert_eq!(reads(), 0);
        assert_eq!(read(0).unwrap(), 1);
        assert_eq!(reads(), 1, "the failed page is a miss again, charged once");
        assert_eq!(read(1).unwrap(), 2);
        assert_eq!((read(0).unwrap(), read(1).unwrap(), reads()), (1, 2, 2), "both frames cache");

        // Into block 0's frame (the LRU victim), half overwritten by the
        // failed read: block 0 must come back from the device, not from it.
        fail_next.store(true, Ordering::Relaxed);
        assert!(matches!(read(2), Err(StorageError::Io(_))));
        assert_eq!((read(1).unwrap(), reads()), (2, 2), "the other frame is untouched");
        assert_eq!((read(0).unwrap(), reads()), (1, 3));
        assert_eq!((read(2).unwrap(), reads()), (3, 4));
        f.write(1, &[9u8; 128]).unwrap();
        assert_eq!(read(1).unwrap(), 9);
    }

    #[test]
    fn read_past_end_errors() {
        let f = file(2);
        let mut out = vec![0u8; 128];
        assert!(matches!(f.read(3, &mut out), Err(StorageError::OutOfBounds { .. })));
    }

    #[test]
    fn bad_buffer_len_errors() {
        let f = file(2);
        f.allocate(1).unwrap();
        let mut out = vec![0u8; 4];
        assert!(matches!(f.read(0, &mut out), Err(StorageError::BadBufferLen { .. })));
        assert!(matches!(f.write(0, &out), Err(StorageError::BadBufferLen { .. })));
    }

    #[test]
    fn size_bytes_tracks_allocation() {
        let f = file(2);
        assert_eq!(f.size_bytes(), 0);
        f.allocate(3).unwrap();
        assert_eq!(f.size_bytes(), 3 * 128);
    }

    #[test]
    fn single_frame_pool_works() {
        let f = file(1);
        let first = f.allocate(8).unwrap();
        for i in 0..8u64 {
            f.write(first + i, &[i as u8; 128]).unwrap();
        }
        f.drop_cache().unwrap();
        let mut out = vec![0u8; 128];
        for i in (0..8u64).rev() {
            f.read(first + i, &mut out).unwrap();
            assert_eq!(out[0], i as u8);
        }
    }

    #[test]
    fn paged_file_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PagedFile>();
    }

    #[test]
    fn shared_reads_and_writes_from_threads_are_coherent() {
        // Two threads ping-pong over a shared reference; the pool's lock
        // must keep every block intact (fuller 8-thread stress with device
        // ground truth lives in tests/concurrency.rs).
        let f = file(2);
        let first = f.allocate(8).unwrap();
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let f = &f;
                scope.spawn(move || {
                    let mut buf = vec![0u8; 128];
                    for round in 0..200u64 {
                        for i in (0..8).filter(|i| i % 2 == t) {
                            buf.fill((i + round) as u8);
                            f.write(first + i, &buf).unwrap();
                            let mut out = vec![0u8; 128];
                            f.read(first + i, &mut out).unwrap();
                            assert_eq!(out[0], (i + round) as u8);
                        }
                    }
                });
            }
        });
    }
}
