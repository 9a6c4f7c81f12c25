//! # chronorank-index — external-memory index structures
//!
//! The paper's methods are all built from three classic external-memory
//! ingredients, which this crate provides on top of the
//! [`chronorank-storage`](chronorank_storage) block layer:
//!
//! * [`BPlusTree`] — a disk-based B+-tree over `f64` keys with fixed-size
//!   payloads: bulk loading from sorted input, point inserts (splits),
//!   lower-bound search, and leaf-linked range cursors. EXACT1 indexes all
//!   `N` segments in one such tree; EXACT2 builds a forest of `m`; QUERY1's
//!   nested breakpoint directory is two levels of them.
//! * [`IntervalTree`] — a disk-resident interval tree with stabbing
//!   queries (`O(height + output/B)` IOs) and right-edge appends, the
//!   backbone of EXACT3. Built bottom-up at leaf fill 1.0 from lo-sorted
//!   streams via [`IntervalBulkLoader`].
//! * [`ExternalSorter`] / [`ExternalPq`] — run-based external merge sort
//!   and a buffered external priority queue, used by the construction
//!   sweeps (the paper sorts all `N` segments before every build).
//!
//! All structures charge their block transfers to the
//! [`IoCounter`](chronorank_storage::IoCounter) of the environment that
//! created their file, which is how the benchmark harness measures the
//! paper's "I/Os" columns.
//!
//! Both bulk loaders queue their per-leaf fences — the only `O(N/B)`
//! memory term in a bulk load — in a [`FenceSpill`], which can spill past
//! a budget and replay in order; no loader constructor budgets it, and the
//! type stays public only while `benchmark/src/adapter.rs` pins it.

#![forbid(unsafe_code)]

mod btree;
mod bulk;
mod error;
mod extsort;
mod interval;

pub use btree::{BPlusTree, BulkLoader, Cursor};
pub use bulk::{FenceReplay, FenceSpill};
pub use error::{IndexError, Result};
pub use extsort::{ExternalPq, ExternalSorter, RunCursor};
pub use interval::{IntervalBulkLoader, IntervalEntry, IntervalTree};
