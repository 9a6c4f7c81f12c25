//! A block-device-backed write-ahead log.
//!
//! The ingest path of a live system (see `chronorank-live`) must make every
//! accepted append durable *before* acknowledging it, long before the
//! in-memory indexes fold it in. [`WriteAheadLog`] provides exactly that on
//! top of any [`BlockDevice`]:
//!
//! * **records** — opaque payloads framed as `[len][crc][payload]`, packed
//!   back to back into a flat byte stream laid over blocks `1..` of the
//!   device (block `0` is the header). The CRC covers the log *epoch*, the
//!   length and the payload, so a torn tail write, zeroed free space, or a
//!   leftover record from before a truncation all fail verification and
//!   terminate replay cleanly;
//! * **replay** — [`WriteAheadLog::replay`] walks every durable record from
//!   the current start offset, in append order, for crash recovery;
//! * **truncation on checkpoint** — [`WriteAheadLog::truncate`] logically
//!   empties the log by bumping the epoch and resetting the offsets, so the
//!   same device blocks are reused by later appends (old bytes are never
//!   re-interpreted: their CRCs were computed under the previous epoch).
//!
//! Durability is batched: [`WriteAheadLog::append`] buffers into the tail
//! block and only [`WriteAheadLog::sync`] guarantees the records are on the
//! device (one `fsync` per batch, the classic group-commit shape). Block
//! flushes are counted as `wal_writes`/`wal_bytes` on the shared
//! [`IoCounter`] — deliberately separate from the buffer-pool `writes` so
//! benchmarks can attribute cost to the ingest path.

use crate::device::{BlockDevice, MemDevice};
use crate::error::{Result, StorageError};
use crate::page::Reader;
use crate::stats::{IoCounter, IoStats};
use crate::PageId;

const MAGIC: [u8; 8] = *b"CRWAL001";
/// Upper bound on one record's payload — anything larger in a scan is
/// treated as corruption.
const MAX_RECORD_LEN: usize = 1 << 24;
const FRAME: u64 = 8; // [len: u32][crc: u32]

/// CRC-32 (IEEE 802.3, reflected), table-driven. Small and dependency-free;
/// this is an integrity check against torn writes, not a cryptographic MAC.
/// Public because every framed byte format in the workspace (this WAL, the
/// chronorank-net wire protocol) shares the one implementation; chain
/// multi-part checksums by passing the previous result as `seed` (`0`
/// starts a fresh checksum).
pub fn crc32(seed: u32, data: &[u8]) -> u32 {
    fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut j = 0;
            while j < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                j += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(table);
    let mut c = !seed;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC of one record: epoch ∥ len ∥ payload.
fn record_crc(epoch: u64, payload: &[u8]) -> u32 {
    let mut c = crc32(0, &epoch.to_le_bytes());
    c = crc32(c, &(payload.len() as u32).to_le_bytes());
    crc32(c, payload)
}

/// A write-ahead log over a block device (see module docs).
pub struct WriteAheadLog {
    device: Box<dyn BlockDevice>,
    counter: IoCounter,
    block_size: u64,
    /// Truncation epoch, mixed into every record CRC.
    epoch: u64,
    /// Byte offset (in the record region) of the first live record.
    start: u64,
    /// Byte offset one past the last appended record.
    end: u64,
    /// Everything below this offset is durable on the device.
    synced_end: u64,
    /// The block containing `end`, buffered for partial appends.
    tail: Vec<u8>,
    /// Payload+frame bytes appended since the last device flush (for the
    /// `wal_bytes` attribution).
    unflushed_bytes: u64,
    /// Live records: scanned on open, incremented per append, zeroed on
    /// truncation.
    records: u64,
}

impl WriteAheadLog {
    /// Create a fresh log on an empty device (any existing blocks are
    /// ignored; the header is written immediately).
    pub fn create(mut device: Box<dyn BlockDevice>, counter: IoCounter) -> Result<Self> {
        let block_size = device.block_size() as u64;
        if device.num_blocks() == 0 {
            device.allocate(1)?;
        }
        let mut wal = Self {
            device,
            counter,
            block_size,
            epoch: 0,
            start: 0,
            end: 0,
            synced_end: 0,
            tail: vec![0u8; block_size as usize],
            unflushed_bytes: 0,
            records: 0,
        };
        wal.write_header()?;
        Ok(wal)
    }

    /// Open an existing log: verify the header, then scan forward from the
    /// recorded start offset until the first record that fails its CRC —
    /// that is the durable end (a torn tail write is silently discarded,
    /// exactly the contract a crashed writer expects).
    pub fn open(mut device: Box<dyn BlockDevice>, counter: IoCounter) -> Result<Self> {
        let block_size = device.block_size() as u64;
        if device.num_blocks() == 0 {
            return Err(StorageError::Corrupt("WAL device has no header block".into()));
        }
        let mut header = vec![0u8; block_size as usize];
        device.read(0, &mut header)?;
        let mut r = Reader::new(&header);
        if r.array("WAL magic")? != MAGIC {
            return Err(StorageError::Corrupt("bad WAL magic".into()));
        }
        let bs = r.u32("WAL block size")? as u64;
        if bs != block_size {
            return Err(StorageError::Corrupt(format!(
                "WAL written with block size {bs}, opened with {block_size}"
            )));
        }
        let (epoch, start) = (r.u64("WAL epoch")?, r.u64("WAL start")?);
        if r.u32("WAL header CRC")? != crc32(0, &header[..28]) {
            return Err(StorageError::Corrupt("WAL header CRC mismatch".into()));
        }
        let mut wal = Self {
            device,
            counter,
            block_size,
            epoch,
            start,
            end: start,
            synced_end: start,
            tail: vec![0u8; block_size as usize],
            unflushed_bytes: 0,
            records: 0,
        };
        // Scan to find the durable end.
        let mut offset = start;
        while let Some(payload) = wal.probe(offset)? {
            offset += FRAME + payload.len() as u64;
            wal.records += 1;
        }
        wal.end = offset;
        wal.synced_end = offset;
        // Pre-load the block holding `end` so partial-block appends extend
        // the existing bytes instead of clobbering them.
        let tail_block = wal.block_of(wal.end);
        if tail_block < wal.device.num_blocks() {
            let mut buf = std::mem::take(&mut wal.tail);
            wal.device.read(tail_block, &mut buf)?;
            wal.tail = buf;
        }
        Ok(wal)
    }

    /// Open when the device already holds a log, create otherwise.
    pub fn open_or_create(device: Box<dyn BlockDevice>, counter: IoCounter) -> Result<Self> {
        if device.num_blocks() == 0 {
            Self::create(device, counter)
        } else {
            Self::open(device, counter)
        }
    }

    /// An in-memory log (tests, benchmarks without durability).
    pub fn mem(block_size: usize) -> Self {
        Self::create(Box::new(MemDevice::new(block_size)), IoCounter::new())
            .expect("memory WAL cannot fail")
    }

    /// Append one record, returning its log sequence number (byte offset).
    /// The record is durable only after the next [`WriteAheadLog::sync`].
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.is_empty() {
            return Err(StorageError::Corrupt("WAL records must be non-empty".into()));
        }
        if payload.len() > MAX_RECORD_LEN {
            return Err(StorageError::Corrupt(format!(
                "WAL record of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let lsn = self.end;
        let crc = record_crc(self.epoch, payload);
        self.put(&(payload.len() as u32).to_le_bytes())?;
        self.put(&crc.to_le_bytes())?;
        self.put(payload)?;
        self.unflushed_bytes += FRAME + payload.len() as u64;
        self.records += 1;
        Ok(lsn)
    }

    /// Flush the buffered tail block and force device durability. After
    /// this returns, every appended record survives a crash.
    pub fn sync(&mut self) -> Result<()> {
        if self.synced_end < self.end {
            self.flush_tail()?;
        }
        self.device.sync()?;
        self.synced_end = self.end;
        Ok(())
    }

    /// Replay every live record in append order. Implicitly syncs first so
    /// the walk can read everything from the device.
    pub fn replay(&mut self, mut f: impl FnMut(u64, &[u8])) -> Result<u64> {
        self.sync()?;
        let mut offset = self.start;
        let mut replayed = 0u64;
        while offset < self.end {
            let Some(payload) = self.probe(offset)? else { break };
            f(offset, &payload);
            offset += FRAME + payload.len() as u64;
            replayed += 1;
        }
        Ok(replayed)
    }

    /// Checkpoint truncation: logically empty the log. The epoch bump makes
    /// every old record unverifiable, and the offset reset reuses the same
    /// device blocks for future appends.
    pub fn truncate(&mut self) -> Result<()> {
        self.epoch += 1;
        self.start = 0;
        self.end = 0;
        self.synced_end = 0;
        self.records = 0;
        self.tail.fill(0);
        self.unflushed_bytes = 0;
        self.write_header()?;
        self.device.sync()?;
        Ok(())
    }

    /// Number of live records (appended since the last truncation).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The current truncation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when no live record exists.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Snapshot of the shared IO counter this log reports into.
    pub fn io_stats(&self) -> IoStats {
        self.counter.snapshot()
    }

    // --- byte-stream plumbing over blocks 1.. ---

    fn block_of(&self, offset: u64) -> PageId {
        1 + offset / self.block_size
    }

    /// Append raw bytes at `end`, flushing filled blocks as they complete.
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        let mut src = bytes;
        while !src.is_empty() {
            let in_block = (self.end % self.block_size) as usize;
            let room = self.block_size as usize - in_block;
            let take = room.min(src.len());
            self.tail[in_block..in_block + take].copy_from_slice(&src[..take]);
            self.end += take as u64;
            src = &src[take..];
            if self.end.is_multiple_of(self.block_size) {
                // Block filled: push it out and start a fresh one.
                self.flush_block(self.block_of(self.end - 1))?;
                self.tail.fill(0);
            }
        }
        Ok(())
    }

    /// Write the (possibly partial) tail block to the device.
    fn flush_tail(&mut self) -> Result<()> {
        if !self.end.is_multiple_of(self.block_size) {
            self.flush_block(self.block_of(self.end))?;
        }
        Ok(())
    }

    fn flush_block(&mut self, id: PageId) -> Result<()> {
        while id >= self.device.num_blocks() {
            self.device.allocate(1)?;
        }
        self.device.write(id, &self.tail)?;
        self.counter.add_wal_write(self.unflushed_bytes);
        self.unflushed_bytes = 0;
        Ok(())
    }

    /// Read `buf.len()` bytes of the record region starting at `offset`,
    /// consulting the in-memory tail block for the not-yet-flushed suffix.
    fn read_stream(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut pos = offset;
        let mut dst = 0usize;
        let mut scratch = vec![0u8; self.block_size as usize];
        while dst < buf.len() {
            let in_block = (pos % self.block_size) as usize;
            let take = (self.block_size as usize - in_block).min(buf.len() - dst);
            let id = self.block_of(pos);
            let tail_block = self.block_of(self.end);
            if id == tail_block && !self.end.is_multiple_of(self.block_size) {
                buf[dst..dst + take].copy_from_slice(&self.tail[in_block..in_block + take]);
            } else {
                if id >= self.device.num_blocks() {
                    return Err(StorageError::Corrupt(format!(
                        "WAL read past allocated blocks (offset {pos})"
                    )));
                }
                self.device.read(id, &mut scratch)?;
                buf[dst..dst + take].copy_from_slice(&scratch[in_block..in_block + take]);
            }
            pos += take as u64;
            dst += take;
        }
        Ok(())
    }

    /// The payload of the record at `offset` when it parses and passes its
    /// CRC, `None` when the stream ends there. Its length is bounded by the
    /// bytes the log holds past the frame before it sizes the payload.
    fn probe(&mut self, offset: u64) -> Result<Option<Vec<u8>>> {
        let capacity = (self.device.num_blocks().saturating_sub(1)) * self.block_size;
        let in_memory_end = self.end.max(self.synced_end);
        let readable = capacity.max(in_memory_end);
        if offset + FRAME > readable {
            return Ok(None);
        }
        let mut frame = [0u8; FRAME as usize];
        self.read_stream(offset, &mut frame)?;
        let mut r = Reader::new(&frame);
        let (len, crc) = (r.u32("WAL record length")? as u64, r.u32("WAL record CRC")?);
        if len == 0 || len > MAX_RECORD_LEN as u64 || offset + FRAME + len > readable {
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        self.read_stream(offset + FRAME, &mut payload)?;
        Ok((record_crc(self.epoch, &payload) == crc).then_some(payload))
    }

    fn write_header(&mut self) -> Result<()> {
        let mut header = vec![0u8; self.block_size as usize];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&(self.block_size as u32).to_le_bytes());
        header[12..20].copy_from_slice(&self.epoch.to_le_bytes());
        header[20..28].copy_from_slice(&self.start.to_le_bytes());
        let crc = crc32(0, &header[..28]);
        header[28..32].copy_from_slice(&crc.to_le_bytes());
        self.device.write(0, &header)?;
        self.counter.add_wal_write(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FileDevice;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("chronorank-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.wal"))
    }

    #[test]
    fn wal_is_send() {
        // One appender, movable between threads (the ingest engine owns it
        // wherever it lives); `Sync` is deliberately not required.
        fn assert_send<T: Send>() {}
        assert_send::<WriteAheadLog>();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        // Seeded continuation equals one-shot over the concatenation.
        let c = crc32(0, b"1234");
        assert_eq!(crc32(c, b"56789"), crc32(0, b"123456789"));
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let mut wal = WriteAheadLog::mem(128);
        let payloads: Vec<Vec<u8>> =
            (0u8..40).map(|i| vec![i; 3 + (i as usize * 7) % 50]).collect();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.records(), 40);
        let mut seen = Vec::new();
        let n = wal.replay(|_, p| seen.push(p.to_vec())).unwrap();
        assert_eq!(n, 40);
        assert_eq!(seen, payloads);
    }

    #[test]
    fn records_span_blocks() {
        let mut wal = WriteAheadLog::mem(64);
        let big = vec![0xAB; 500]; // spans ~8 blocks
        wal.append(&big).unwrap();
        wal.append(&[1, 2, 3]).unwrap();
        let mut seen = Vec::new();
        wal.replay(|_, p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen, vec![big, vec![1, 2, 3]]);
    }

    #[test]
    fn reopen_recovers_synced_records_only() {
        let path = temp_path("reopen");
        let counter = IoCounter::new();
        {
            let dev = FileDevice::create(&path, 128).unwrap();
            let mut wal = WriteAheadLog::create(Box::new(dev), counter.clone()).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.sync().unwrap();
            wal.append(b"never-synced").unwrap();
            // Simulated crash: dropped without sync.
        }
        let dev = FileDevice::open(&path, 128).unwrap();
        let mut wal = WriteAheadLog::open(Box::new(dev), IoCounter::new()).unwrap();
        let mut seen = Vec::new();
        wal.replay(|_, p| seen.push(p.to_vec())).unwrap();
        // The unsynced record may or may not have reached the device
        // (partial tail flushes happen when blocks fill); the synced prefix
        // must always survive, in order.
        assert!(seen.len() >= 2);
        assert_eq!(&seen[0], b"alpha");
        assert_eq!(&seen[1], b"beta");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_empties_and_reuses_blocks() {
        let mut wal = WriteAheadLog::mem(128);
        for i in 0..10u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap();
        let blocks_before = wal.device.num_blocks();
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.replay(|_, _| panic!("log must be empty")).unwrap(), 0);
        // New appends land in the reused region and old bytes are never
        // resurrected (epoch mismatch).
        wal.append(b"fresh").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.device.num_blocks(), blocks_before, "blocks are reused");
        let mut seen = Vec::new();
        wal.replay(|_, p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn truncation_survives_reopen() {
        let path = temp_path("truncate");
        {
            let dev = FileDevice::create(&path, 128).unwrap();
            let mut wal = WriteAheadLog::create(Box::new(dev), IoCounter::new()).unwrap();
            wal.append(b"old-1").unwrap();
            wal.append(b"old-2").unwrap();
            wal.sync().unwrap();
            wal.truncate().unwrap();
            wal.append(b"new").unwrap();
            wal.sync().unwrap();
        }
        let dev = FileDevice::open(&path, 128).unwrap();
        let mut wal = WriteAheadLog::open(Box::new(dev), IoCounter::new()).unwrap();
        let mut seen = Vec::new();
        wal.replay(|_, p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen, vec![b"new".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_write_is_discarded() {
        let path = temp_path("torn");
        {
            let dev = FileDevice::create(&path, 128).unwrap();
            let mut wal = WriteAheadLog::create(Box::new(dev), IoCounter::new()).unwrap();
            wal.append(b"good").unwrap();
            wal.sync().unwrap();
            wal.append(&vec![7u8; 300]).unwrap();
            wal.sync().unwrap();
        }
        // Corrupt the middle of the second (spanning) record on disk.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(128 + 70)).unwrap();
            f.write_all(&[0xFF; 8]).unwrap();
        }
        let dev = FileDevice::open(&path, 128).unwrap();
        let mut wal = WriteAheadLog::open(Box::new(dev), IoCounter::new()).unwrap();
        let mut seen = Vec::new();
        wal.replay(|_, p| seen.push(p.to_vec())).unwrap();
        assert_eq!(seen, vec![b"good".to_vec()], "corrupted suffix must be dropped");
        // The log remains appendable after recovery.
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_flushes_are_counted_on_the_shared_counter() {
        let mut wal = WriteAheadLog::mem(128);
        for _ in 0..5 {
            wal.append(&[9u8; 40]).unwrap();
        }
        wal.sync().unwrap();
        let s = wal.io_stats();
        assert!(s.wal_writes >= 2, "header + at least one data flush: {s:?}");
        assert_eq!(s.wal_bytes, 5 * 48, "frame (8) + payload (40) per record");
        assert_eq!(s.writes, 0, "WAL traffic must not count as pool writes");
    }

    #[test]
    fn invalid_appends_are_rejected() {
        let mut wal = WriteAheadLog::mem(128);
        assert!(wal.append(&[]).is_err());
        assert!(wal.append(&vec![0u8; MAX_RECORD_LEN + 1]).is_err());
    }

    #[test]
    fn open_rejects_foreign_headers() {
        let mut dev = MemDevice::new(128);
        dev.allocate(1).unwrap();
        dev.write(0, &[0x42u8; 128]).unwrap();
        assert!(matches!(
            WriteAheadLog::open(Box::new(dev), IoCounter::new()),
            Err(StorageError::Corrupt(_))
        ));
        // Block-size mismatch is also rejected.
        let path = temp_path("bs");
        {
            let dev = FileDevice::create(&path, 128).unwrap();
            WriteAheadLog::create(Box::new(dev), IoCounter::new()).unwrap();
        }
        let dev = FileDevice::open(&path, 64).unwrap();
        assert!(WriteAheadLog::open(Box::new(dev), IoCounter::new()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
