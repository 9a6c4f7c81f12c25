//! # chronorank-index — external-memory index structures
//!
//! The paper's methods are all built from three classic external-memory
//! ingredients, which this crate provides on top of the
//! [`chronorank-storage`](chronorank_storage) block layer:
//!
//! * [`BPlusTree`] — a disk-based B+-tree over `f64` keys with fixed-size
//!   payloads: bulk loading from sorted input, lower-bound search, and
//!   leaf-linked range cursors. EXACT1 indexes all `N` segments in one such
//!   tree; EXACT2 builds a forest of `m`; QUERY1's nested breakpoint
//!   directory is two levels of them.
//! * [`IntervalTree`] — a disk-resident interval tree with stabbing
//!   queries (`O(height + output/B)` IOs), the backbone of EXACT3. Built
//!   bottom-up at leaf fill 1.0 from lo-sorted streams via
//!   [`IntervalBulkLoader`].
//! * [`ExternalSorter`] — run-based external merge sort, used by every
//!   streaming construction (the paper sorts all `N` segments before every
//!   build). A run is its byte budget: `record_len` bytes plus a 4-byte
//!   permutation slot per record, nothing beside it; it goes to a scratch
//!   file that keeps no pool frame, and the merge reads it back one block
//!   per run. There is no external priority queue: every sweep here
//!   consumes a sorted stream.
//!
//! A built structure never changes: none of them has a method that takes
//! `&mut self`. The paper's §4 right-edge appends are the live engine's
//! (`chronorank-live`): it keeps them beside a frozen generation and
//! bulk-loads the next one.
//!
//! All structures charge their block transfers to the
//! [`IoCounter`](chronorank_storage::IoCounter) of the environment that
//! created their file, which is how the benchmark harness measures the
//! paper's "I/Os" columns.
//!
//! Each bulk loader keeps its per-leaf fences — the only `O(N/B)` memory
//! term in a bulk load — in memory: the interval loader in a `Vec` it
//! sorts by `min_lo` at `finish`, the B+-tree loader in a [`FenceSpill`],
//! which can spill past a budget and replay in order; no loader
//! constructor budgets it, and the type stays public only while
//! `benchmark/src/adapter.rs` pins it.

#![forbid(unsafe_code)]

mod btree;
mod bulk;
mod error;
mod extsort;
mod interval;

pub use btree::{BPlusTree, BulkLoader, Cursor};
pub use bulk::{FenceReplay, FenceSpill};
pub use error::{IndexError, Result};
pub use extsort::ExternalSorter;
pub use interval::{IntervalBulkLoader, IntervalEntry, IntervalTree};
