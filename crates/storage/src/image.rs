//! Generation images: a versioned, CRC'd on-disk container that freezes a
//! built index generation so a restart can serve it without rebuilding.
//!
//! An image is a single file with a fixed header, a sequence of named
//! **sections**, and a CRC'd manifest describing them:
//!
//! ```text
//! header   magic "CRGEN001" | epoch u64 | manifest_off u64
//!          | manifest_len u64 | manifest_crc u32
//! payload  section bytes, back to back, in add order
//! manifest per section: name_len u16 | name | kind u8 | block_size u32
//!          | start u64 | len u64 | crc u32
//! ```
//!
//! Two section kinds exist: **blob** (opaque bytes — serialized metadata,
//! breakpoint tables, curve snapshots) and **paged** (a page-for-page
//! capture of a [`PagedFile`] — a whole B+-tree or interval tree, reopened
//! later without any sort or build pass). Every section carries its own
//! CRC-32, checked on extraction; the manifest carries another, checked at
//! open. The `epoch` field stamps which WAL epoch the image belongs to, so
//! recovery knows exactly which log suffix still needs replaying.
//!
//! Writing is crash-safe by construction: [`ImageWriter`] streams into
//! `<path>.tmp` and [`ImageWriter::finish`] renames it into place only
//! after the header (written last) and all payload bytes are synced. A
//! crash mid-write leaves either the old image or none — never a torn one.

use crate::device::zeroed_page;
use crate::error::{Result, StorageError};
use crate::page::Reader;
use crate::pool::{PagedFile, StoreConfig};
use crate::stats::IoCounter;
use crate::wal::crc32;
use crate::{BlockDevice, MemDevice};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CRGEN001";
const HEADER_LEN: u64 = 8 + 8 + 8 + 8 + 4;

const KIND_BLOB: u8 = 0;
const KIND_PAGED: u8 = 1;

#[derive(Debug, Clone)]
struct Section {
    name: String,
    kind: u8,
    /// Block size of the captured [`PagedFile`] (0 for blobs).
    block_size: u32,
    start: u64,
    len: u64,
    crc: u32,
}

/// Streams sections into `<path>.tmp`; [`ImageWriter::finish`] atomically
/// publishes the image at `path`.
pub struct ImageWriter {
    file: File,
    tmp: PathBuf,
    dest: PathBuf,
    offset: u64,
    sections: Vec<Section>,
}

impl ImageWriter {
    /// Start writing an image that will be published at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let dest = path.into();
        let tmp = tmp_path(&dest);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&tmp)?;
        // Header placeholder; the real header lands in finish().
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(Self { file, tmp, dest, offset: HEADER_LEN, sections: Vec::new() })
    }

    fn check_name(&self, name: &str) -> Result<()> {
        if name.is_empty() || name.len() > u16::MAX as usize {
            return Err(StorageError::Corrupt(format!("bad image section name {name:?}")));
        }
        if self.sections.iter().any(|s| s.name == name) {
            return Err(StorageError::DuplicateFile(name.to_string()));
        }
        Ok(())
    }

    /// Append an opaque byte section.
    pub fn add_blob(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.check_name(name)?;
        self.file.write_all(bytes)?;
        self.sections.push(Section {
            name: name.to_string(),
            kind: KIND_BLOB,
            block_size: 0,
            start: self.offset,
            len: bytes.len() as u64,
            crc: crc32(0, bytes),
        });
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Capture a [`PagedFile`] page for page. Flushes it first so the
    /// device holds every dirty frame, then writes each page as the pool
    /// lends it.
    pub fn add_paged(&mut self, name: &str, paged: &PagedFile) -> Result<()> {
        self.check_name(name)?;
        paged.flush()?;
        let bs = paged.block_size();
        let blocks = paged.num_blocks();
        let mut crc = 0u32;
        for id in 0..blocks {
            let page = paged.page(id)?;
            self.file.write_all(&page)?;
            crc = crc32(crc, &page);
        }
        self.sections.push(Section {
            name: name.to_string(),
            kind: KIND_PAGED,
            block_size: bs as u32,
            start: self.offset,
            len: blocks * bs as u64,
            crc,
        });
        self.offset += blocks * bs as u64;
        Ok(())
    }

    /// Write the manifest and header, sync, and atomically rename the
    /// temporary file into place. `epoch` stamps the WAL epoch this image
    /// belongs to (recovery replays only records from epochs ≥ `epoch`).
    pub fn finish(mut self, epoch: u64) -> Result<()> {
        let mut manifest = Vec::new();
        for s in &self.sections {
            manifest.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
            manifest.extend_from_slice(s.name.as_bytes());
            manifest.push(s.kind);
            manifest.extend_from_slice(&s.block_size.to_le_bytes());
            manifest.extend_from_slice(&s.start.to_le_bytes());
            manifest.extend_from_slice(&s.len.to_le_bytes());
            manifest.extend_from_slice(&s.crc.to_le_bytes());
        }
        self.file.write_all(&manifest)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&epoch.to_le_bytes());
        header.extend_from_slice(&self.offset.to_le_bytes());
        header.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(0, &manifest).to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_data()?;
        std::fs::rename(&self.tmp, &self.dest)?;
        Ok(())
    }
}

/// A validated, read-only generation image.
pub struct GenerationImage {
    file: File,
    epoch: u64,
    sections: Vec<Section>,
}

impl GenerationImage {
    /// Open and validate an image: magic, header sanity, manifest CRC.
    /// Section payloads are CRC-checked lazily on extraction.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(StorageError::Corrupt("image shorter than header".into()));
        }
        file.read_exact(&mut header)?;
        let mut r = Reader::new(&header);
        if &r.array("image magic")? != MAGIC {
            return Err(StorageError::Corrupt("bad generation image magic".into()));
        }
        let epoch = r.u64("image epoch")?;
        let (manifest_off, manifest_len) = (r.u64("manifest offset")?, r.u64("manifest length")?);
        let manifest_crc = r.u32("manifest CRC")?;
        if manifest_off < HEADER_LEN
            || manifest_off.checked_add(manifest_len).is_none_or(|end| end > file_len)
        {
            return Err(StorageError::Corrupt("image manifest out of bounds".into()));
        }
        let mut manifest = vec![0u8; manifest_len as usize];
        file.seek(SeekFrom::Start(manifest_off))?;
        file.read_exact(&mut manifest)?;
        if crc32(0, &manifest) != manifest_crc {
            return Err(StorageError::Corrupt("image manifest CRC mismatch".into()));
        }
        let sections = parse_manifest(&manifest, manifest_off)?;
        Ok(Self { file, epoch, sections })
    }

    /// The WAL epoch stamped at [`ImageWriter::finish`] time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Names of all sections, in add order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|s| s.name.as_str()).collect()
    }

    fn section(&self, name: &str) -> Result<&Section> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StorageError::Corrupt(format!("image has no section {name:?}")))
    }

    /// Extract a blob section (CRC-checked).
    pub fn blob(&mut self, name: &str) -> Result<Vec<u8>> {
        let s = self.section(name)?.clone();
        if s.kind != KIND_BLOB {
            return Err(StorageError::Corrupt(format!("section {name:?} is not a blob")));
        }
        let mut bytes = vec![0u8; s.len as usize];
        self.file.seek(SeekFrom::Start(s.start))?;
        self.file.read_exact(&mut bytes)?;
        if crc32(0, &bytes) != s.crc {
            return Err(StorageError::Corrupt(format!("section {name:?} CRC mismatch")));
        }
        Ok(bytes)
    }

    /// Reconstruct a captured [`PagedFile`]: the section is read one block
    /// at a time straight into the pages a fresh [`MemDevice`] keeps (the
    /// handles the pool will later share), CRC-chained, and the device is
    /// discarded on a mismatch. The file serves queries with no build pass;
    /// IOs charge to `counter`.
    pub fn paged(
        &mut self,
        name: &str,
        pool_capacity: usize,
        counter: IoCounter,
    ) -> Result<PagedFile> {
        let s = self.section(name)?.clone();
        if s.kind != KIND_PAGED {
            return Err(StorageError::Corrupt(format!("section {name:?} is not paged")));
        }
        let bs = s.block_size as usize;
        if bs < 64 || s.len % bs as u64 != 0 {
            return Err(StorageError::Corrupt(format!("section {name:?} has a bad block size")));
        }
        let mut dev = MemDevice::new(bs);
        dev.allocate(s.len / bs as u64)?;
        self.file.seek(SeekFrom::Start(s.start))?;
        let mut crc = 0u32;
        for id in 0..dev.num_blocks() {
            let mut page = zeroed_page(bs);
            self.file.read_exact(std::sync::Arc::get_mut(&mut page).expect("a fresh page"))?;
            crc = crc32(crc, &page);
            dev.store(id, &page)?;
        }
        if crc != s.crc {
            return Err(StorageError::Corrupt(format!("section {name:?} CRC mismatch")));
        }
        let config = StoreConfig { block_size: bs, pool_capacity };
        Ok(PagedFile::new(Box::new(dev), config, counter))
    }
}

fn parse_manifest(manifest: &[u8], payload_end: u64) -> Result<Vec<Section>> {
    let mut r = Reader::new(manifest);
    let mut sections = Vec::new();
    while r.left() > 0 {
        let name_len = r.u16("section name length")? as usize;
        let name = std::str::from_utf8(r.bytes("section name", name_len)?)
            .map_err(|_| StorageError::Corrupt("non-utf8 image section name".into()))?
            .to_string();
        let section = Section {
            name,
            kind: r.u8("section kind")?,
            block_size: r.u32("section block size")?,
            start: r.u64("section start")?,
            len: r.u64("section length")?,
            crc: r.u32("section CRC")?,
        };
        if section.kind > KIND_PAGED
            || section.start < HEADER_LEN
            || section.start.checked_add(section.len).is_none_or(|end| end > payload_end)
        {
            return Err(StorageError::Corrupt(format!(
                "image section {:?} out of bounds",
                section.name
            )));
        }
        sections.push(section);
    }
    Ok(sections)
}

fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    dest.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Env;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chronorank-img-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chained_crc_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let (a, b) = data.split_at(17);
        assert_eq!(crc32(crc32(0, a), b), crc32(0, data));
    }

    #[test]
    fn blob_and_paged_sections_round_trip() {
        let dir = tmp_dir("rt");
        let path = dir.join("gen.img");

        let env = Env::mem(StoreConfig { block_size: 128, pool_capacity: 4 });
        let f = env.create_file("tree").unwrap();
        let first = f.allocate(5).unwrap();
        for i in 0..5u64 {
            f.write(first + i, &[i as u8 + 1; 128]).unwrap();
        }

        let mut w = ImageWriter::create(&path).unwrap();
        w.add_blob("meta", b"hello metadata").unwrap();
        w.add_paged("tree", &f).unwrap();
        w.add_blob("empty", b"").unwrap();
        w.finish(42).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file renamed away");

        let mut img = GenerationImage::open(&path).unwrap();
        assert_eq!(img.epoch(), 42);
        assert_eq!(img.section_names(), vec!["meta", "tree", "empty"]);
        assert_eq!(img.blob("meta").unwrap(), b"hello metadata");
        assert_eq!(img.blob("empty").unwrap(), b"");
        let re = img.paged("tree", 4, IoCounter::new()).unwrap();
        assert_eq!(re.block_size(), 128);
        assert_eq!(re.num_blocks(), 5);
        let mut buf = vec![0u8; 128];
        for i in 0..5u64 {
            re.read(i, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8 + 1), "block {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kind_confusion_and_missing_sections_error() {
        let dir = tmp_dir("kind");
        let path = dir.join("gen.img");
        let mut w = ImageWriter::create(&path).unwrap();
        w.add_blob("meta", b"x").unwrap();
        w.finish(0).unwrap();
        let mut img = GenerationImage::open(&path).unwrap();
        assert!(img.paged("meta", 2, IoCounter::new()).is_err());
        assert!(img.blob("nope").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_section_names_rejected_at_write() {
        let dir = tmp_dir("dup");
        let mut w = ImageWriter::create(dir.join("gen.img")).unwrap();
        w.add_blob("a", b"1").unwrap();
        assert!(matches!(w.add_blob("a", b"2"), Err(StorageError::DuplicateFile(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("gen.img");
        let mut w = ImageWriter::create(&path).unwrap();
        w.add_blob("meta", b"important bytes").unwrap();
        w.finish(7).unwrap();

        // Flip a payload byte: open succeeds (manifest intact) but the
        // section extraction must fail its CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut img = GenerationImage::open(&path).unwrap();
        assert!(matches!(img.blob("meta"), Err(StorageError::Corrupt(_))));

        // Flip a manifest byte: open itself must fail.
        bytes[HEADER_LEN as usize] ^= 0xFF; // restore payload
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(GenerationImage::open(&path), Err(StorageError::Corrupt(_))));

        // Bad magic.
        bytes[last] ^= 0xFF;
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(GenerationImage::open(&path), Err(StorageError::Corrupt(_))));

        // Truncated to less than a header.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(GenerationImage::open(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_in_the_last_block_of_a_paged_section_is_detected() {
        let dir = tmp_dir("corrupt-paged");
        let path = dir.join("gen.img");
        let env = Env::mem(StoreConfig { block_size: 128, pool_capacity: 4 });
        let f = env.create_file("tree").unwrap();
        let first = f.allocate(3).unwrap();
        for i in 0..3u64 {
            f.write(first + i, &[i as u8 + 1; 128]).unwrap();
        }
        let mut w = ImageWriter::create(&path).unwrap();
        w.add_paged("tree", &f).unwrap();
        w.finish(1).unwrap();
        // The section is the whole payload: its last byte sits just before
        // the manifest.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize + 3 * 128 - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut img = GenerationImage::open(&path).unwrap();
        assert!(matches!(img.paged("tree", 4, IoCounter::new()), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unfinished_tmp_file_is_not_an_image() {
        let dir = tmp_dir("unfinished");
        let path = dir.join("gen.img");
        let mut w = ImageWriter::create(&path).unwrap();
        w.add_blob("meta", b"never published").unwrap();
        drop(w); // crash before finish(): no rename, header still zeroed
        assert!(!path.exists());
        assert!(matches!(GenerationImage::open(tmp_path(&path)), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
