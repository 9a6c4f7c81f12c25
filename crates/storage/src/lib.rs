//! # chronorank-storage — block storage engine
//!
//! The paper ("Ranking Large Temporal Data", VLDB 2012) implements all of its
//! index structures on top of TPIE, an external-memory library that moves
//! data in fixed-size blocks and reports costs in **block IOs**. This crate
//! is the equivalent substrate for the Rust reproduction:
//!
//! * [`BlockDevice`] — a raw array of fixed-size blocks, either in memory
//!   ([`MemDevice`]) or backed by a file ([`FileDevice`]);
//! * [`PagedFile`] — a buffer-pool-cached view of a device with
//!   segmented-LRU eviction (a page hit once more is protected from scans);
//!   an index file caches write-back, a tree a streaming build loads
//!   writes through, and build scratch keeps no frame, each fixed when
//!   [`Env`] creates the file;
//! * [`Page`] — one block's bytes behind a shared handle, the unit the pool,
//!   a device and a reader exchange. A memory device and the pool in front
//!   of it hold the same handle for a clean page, so an index built in
//!   memory is resident once, not once as "disk" and again as cache;
//!   [`PagedFile::page`] lends callers that handle to decode outside the
//!   pool's lock, so bytes are copied only when a cached page someone else
//!   also holds is rewritten;
//! * [`IoCounter`] / [`IoStats`] — shared counters that record every block
//!   transfer between the pool and the device. These counters are the
//!   quantity reported as "I/Os" in the paper's figures;
//! * [`Env`] — a factory that hands out [`PagedFile`]s sharing one counter,
//!   so a multi-structure index (e.g. EXACT2's forest of B+-trees) has a
//!   single IO budget;
//! * [`ScaleBudget`] — one explicit byte budget (TPIE's single memory
//!   knob, reproduced) from which paper-scale builds derive buffer-pool
//!   capacities and external-sort run lengths;
//! * [`WriteAheadLog`] — a block-device-backed durability log for the
//!   ingest path (CRC'd records, crash replay, truncation on checkpoint),
//!   counted separately as `wal_writes`/`wal_bytes`;
//! * [`ImageWriter`] / [`GenerationImage`] — a versioned, CRC'd container
//!   that persists a frozen index generation (page captures of whole
//!   [`PagedFile`]s plus metadata blobs) so a restart serves it directly
//!   instead of rebuilding;
//! * [`Reader`] — the one decoder of untrusted bytes: every container
//!   read back from a file or a socket (this crate's, the indexes', the
//!   wire's) goes through it, so a malformed one is a [`DecodeError`] and
//!   a decoded count sizes memory only after [`Reader::count`] has checked
//!   it against the bytes that back it.
//!
//! ## Concurrency
//!
//! Every structure here is **thread-safe**: [`IoCounter`] is an `Arc` of
//! atomics (lock-free adds), [`PagedFile`] synchronizes its pool behind an
//! internal mutex so all methods take `&self`, and [`Env`] guards its name
//! registry the same way. A fully built index is therefore an immutable,
//! shareable snapshot — serving layers put one behind an `Arc` and query it
//! from any number of worker threads. [`WriteAheadLog`] takes `&mut self`
//! (a log has exactly one appender); it is `Send`, so the single owner can
//! live on whichever thread ingests.
//!
//! ## Example
//!
//! ```
//! use chronorank_storage::{Env, StoreConfig};
//!
//! let env = Env::mem(StoreConfig::default());
//! let f = env.create_file("data").unwrap();
//! let id = f.allocate(1).unwrap();
//! let mut page = vec![0u8; f.block_size()];
//! page[..4].copy_from_slice(&42u32.to_le_bytes());
//! f.write(id, &page).unwrap();
//! f.flush().unwrap();
//! f.drop_cache().unwrap();
//!
//! let page = f.page(id).unwrap();
//! assert_eq!(&page[..4], &42u32.to_le_bytes());
//! assert!(env.io_stats().reads >= 1);
//! ```

#![forbid(unsafe_code)]

mod budget;
mod device;
mod env;
mod error;
mod image;
pub mod page;
mod pool;
mod stats;
mod wal;

pub use budget::ScaleBudget;
pub use device::{BlockDevice, FileDevice, MemDevice, Page};
pub use env::Env;
pub use error::{Result, StorageError};
pub use image::{GenerationImage, ImageWriter};
pub use page::{DecodeError, Reader};
pub use pool::{PagedFile, StoreConfig};
pub use stats::{IoCounter, IoStats};
pub use wal::{crc32, WriteAheadLog};

/// Identifier of a block within one [`BlockDevice`] / [`PagedFile`].
pub type PageId = u64;

/// The paper's default block size (TPIE was configured with 4 KB blocks).
const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Default number of frames in a buffer pool (4 MB of cache at the default
/// block size — deliberately small so that cold-query IO counts are honest).
const DEFAULT_POOL_CAPACITY: usize = 1024;
