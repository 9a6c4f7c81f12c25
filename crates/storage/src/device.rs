//! Raw block devices.
//!
//! A [`BlockDevice`] is an uncached, uncounted array of fixed-size blocks.
//! The buffer pool ([`crate::PagedFile`]) sits on top and is the only
//! component that should talk to a device directly.
//!
//! The pool and a device exchange whole blocks as [`Page`] handles
//! ([`BlockDevice::load`] / [`BlockDevice::store`]): a pointer where the
//! device keeps its blocks in this heap ([`MemDevice`]), the bytes otherwise.

use crate::error::{Result, StorageError};
use crate::PageId;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One block's bytes behind a shared handle. The bytes are immutable while
/// the handle is shared: whoever wants to change them either holds the only
/// handle ([`Arc::get_mut`]) or replaces its handle with a fresh buffer.
pub type Page = Arc<[u8]>;

/// A fresh, exclusively owned page of `block_size` zeros.
fn zeroed_page(block_size: usize) -> Page {
    std::iter::repeat_n(0u8, block_size).collect()
}

/// An array of fixed-size blocks addressed by [`PageId`].
///
/// `Send + Sync` are supertraits: devices live inside pools and logs that
/// move between (and are shared by) threads, so every implementation must
/// be transferable and reference-shareable. Devices take `&mut self` —
/// exclusion is the caller's job (the pool's internal lock, or plain
/// ownership) — so `Sync` costs implementations nothing.
pub trait BlockDevice: Send + Sync {
    /// Block size in bytes; all buffers passed in must be exactly this long.
    fn block_size(&self) -> usize;

    /// Number of allocated blocks.
    fn num_blocks(&self) -> u64;

    /// Read block `id` into `buf`.
    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` to block `id`.
    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Extend the device by `n` zeroed blocks, returning the id of the first.
    fn allocate(&mut self, n: u64) -> Result<PageId>;

    /// Force durability (no-op for memory devices).
    fn sync(&mut self) -> Result<()>;

    /// Make `page` hold block `id`. The default reads into `page`'s own
    /// buffer when the caller holds the only handle to a block-sized one (a
    /// pool reusing an evicted frame) and into a fresh one otherwise; a
    /// device that keeps pages itself hands out its handle instead. On error
    /// `page`'s bytes are unspecified.
    fn load(&mut self, id: PageId, page: &mut Page) -> Result<()> {
        if Arc::get_mut(page).is_none_or(|buf| buf.len() != self.block_size()) {
            *page = zeroed_page(self.block_size());
        }
        self.read(id, Arc::get_mut(page).expect("checked or fresh: the only handle"))
    }

    /// Make block `id` hold `page`'s bytes. The default writes them out; a
    /// device that keeps pages itself keeps the handle instead, after which
    /// the caller must not expect to own the bytes alone.
    fn store(&mut self, id: PageId, page: &Page) -> Result<()> {
        self.write(id, page)
    }
}

fn check_len(buf_len: usize, block_size: usize) -> Result<()> {
    if buf_len != block_size {
        return Err(StorageError::BadBufferLen { got: buf_len, want: block_size });
    }
    Ok(())
}

fn check_bounds(id: PageId, len: u64) -> Result<()> {
    if id >= len {
        return Err(StorageError::OutOfBounds { id, len });
    }
    Ok(())
}

/// An in-memory block device. The default backing for benchmarks: IO counts
/// are identical to the file-backed device while keeping runs fast and
/// filesystem-independent.
///
/// Each block is a [`Page`] handle. [`BlockDevice::load`] hands out a clone
/// of it and [`BlockDevice::store`] keeps the caller's, so a page the pool
/// has cached from, or flushed to, this device is resident once. A block
/// nobody has written yet is a handle to the device's one page of zeros.
pub struct MemDevice {
    block_size: usize,
    blocks: Vec<Page>,
    /// What every allocated, never-written block points at.
    zeros: Page,
}

impl MemDevice {
    /// Create an empty device with the given block size.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size >= 64, "block size unreasonably small");
        Self { block_size, blocks: Vec::new(), zeros: zeroed_page(block_size) }
    }

    fn block_mut(&mut self, id: PageId, len: usize) -> Result<&mut Page> {
        check_len(len, self.block_size)?;
        check_bounds(id, self.blocks.len() as u64)?;
        Ok(&mut self.blocks[id as usize])
    }

    /// Bytes currently held by the device.
    pub fn size_bytes(&self) -> u64 {
        self.blocks.len() as u64 * self.block_size as u64
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(self.block_mut(id, buf.len())?);
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        // In place unless someone else holds this block's handle.
        Arc::make_mut(self.block_mut(id, buf.len())?).copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&mut self, n: u64) -> Result<PageId> {
        let first = self.blocks.len() as u64;
        self.blocks.extend((0..n).map(|_| Arc::clone(&self.zeros)));
        Ok(first)
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn load(&mut self, id: PageId, page: &mut Page) -> Result<()> {
        *page = Arc::clone(self.block_mut(id, self.block_size)?);
        Ok(())
    }

    fn store(&mut self, id: PageId, page: &Page) -> Result<()> {
        *self.block_mut(id, page.len())? = Arc::clone(page);
        Ok(())
    }
}

/// A file-backed block device: block `i` lives at byte offset
/// `i * block_size` of a single file.
pub struct FileDevice {
    file: File,
    block_size: usize,
    num_blocks: u64,
    /// Set for scratch devices: the path to unlink when the device drops.
    scratch_path: Option<PathBuf>,
}

impl FileDevice {
    /// Create (truncate) a device file at `path`.
    pub fn create(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size >= 64, "block size unreasonably small");
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self { file, block_size, num_blocks: 0, scratch_path: None })
    }

    /// [`FileDevice::create`] for build-time scratch (sort runs, fence
    /// spills): the file is removed when the device drops.
    pub fn create_scratch(path: &Path, block_size: usize) -> Result<Self> {
        let mut dev = Self::create(path, block_size)?;
        dev.scratch_path = Some(path.to_path_buf());
        Ok(dev)
    }

    /// Open an existing device file; its length must be a whole number of
    /// blocks.
    pub fn open(path: &Path, block_size: usize) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % block_size as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of block size {block_size}"
            )));
        }
        Ok(Self { file, block_size, num_blocks: len / block_size as u64, scratch_path: None })
    }
}

impl Drop for FileDevice {
    fn drop(&mut self) {
        if let Some(path) = &self.scratch_path {
            // Best effort: a leftover scratch file costs disk, not correctness.
            std::fs::remove_file(path).ok();
        }
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        check_len(buf.len(), self.block_size)?;
        check_bounds(id, self.num_blocks)?;
        self.file.seek(SeekFrom::Start(id * self.block_size as u64))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write(&mut self, id: PageId, buf: &[u8]) -> Result<()> {
        check_len(buf.len(), self.block_size)?;
        check_bounds(id, self.num_blocks)?;
        self.file.seek(SeekFrom::Start(id * self.block_size as u64))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    fn allocate(&mut self, n: u64) -> Result<PageId> {
        let first = self.num_blocks;
        self.num_blocks += n;
        self.file.set_len(self.num_blocks * self.block_size as u64)?;
        Ok(first)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dev: &mut dyn BlockDevice) {
        let bs = dev.block_size();
        let first = dev.allocate(3).unwrap();
        assert_eq!(dev.num_blocks(), 3);
        let mut page = vec![0u8; bs];
        for i in 0..3u64 {
            page.fill(i as u8 + 1);
            dev.write(first + i, &page).unwrap();
        }
        let mut out = vec![0u8; bs];
        for i in 0..3u64 {
            dev.read(first + i, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == i as u8 + 1), "block {i} mismatch");
        }
        // Fresh allocations are zeroed, read either way.
        let id = dev.allocate(1).unwrap();
        dev.read(id, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        let mut handle = Page::default();
        dev.load(id, &mut handle).unwrap();
        assert!(handle.len() == bs && handle.iter().all(|&b| b == 0));
        // A stored page reads back through both, and a load over a handle
        // someone else still holds leaves their bytes alone.
        let nines = Page::from(vec![9u8; bs]);
        dev.store(id, &nines).unwrap();
        dev.read(id, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 9));
        let (mut loaded, held) = (Arc::clone(&handle), handle);
        dev.load(id, &mut loaded).unwrap();
        assert_eq!(loaded, nines);
        assert!(held.iter().all(|&b| b == 0));
        // A plain write never reaches a handle already handed out.
        dev.write(id, &vec![5u8; bs]).unwrap();
        assert!(loaded.iter().all(|&b| b == 9) && nines.iter().all(|&b| b == 9));
        dev.read(id, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 5));
        dev.sync().unwrap();
    }

    #[test]
    fn mem_device_roundtrip() {
        roundtrip(&mut MemDevice::new(256));
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("chronorank-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.blk");
        roundtrip(&mut FileDevice::create(&path, 256).unwrap());
        // Re-open and confirm persisted contents.
        let mut dev = FileDevice::open(&path, 256).unwrap();
        assert_eq!(dev.num_blocks(), 4);
        let mut out = vec![0u8; 256];
        dev.read(1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scratch_device_unlinks_its_file_on_drop() {
        let dir = std::env::temp_dir().join(format!("chronorank-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (kept, scratch) = (dir.join("kept.blk"), dir.join("scratch.blk"));
        roundtrip(&mut FileDevice::create(&kept, 256).unwrap());
        let mut dev = FileDevice::create_scratch(&scratch, 256).unwrap();
        roundtrip(&mut dev);
        assert!(scratch.exists());
        drop(dev);
        assert!(kept.exists() && !scratch.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut dev = MemDevice::new(128);
        let mut buf = vec![0u8; 128];
        assert!(matches!(dev.read(0, &mut buf), Err(StorageError::OutOfBounds { .. })));
        dev.allocate(1).unwrap();
        assert!(dev.read(0, &mut buf).is_ok());
        assert!(matches!(dev.write(5, &buf), Err(StorageError::OutOfBounds { .. })));
    }

    #[test]
    fn wrong_buffer_length_is_an_error() {
        let mut dev = MemDevice::new(128);
        dev.allocate(1).unwrap();
        let mut small = vec![0u8; 64];
        assert!(matches!(dev.read(0, &mut small), Err(StorageError::BadBufferLen { .. })));
    }

    #[test]
    fn open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("chronorank-rag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.blk");
        std::fs::write(&path, vec![0u8; 300]).unwrap();
        assert!(matches!(FileDevice::open(&path, 256), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
