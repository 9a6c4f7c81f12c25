//! # chronorank-live — WAL-backed streaming ingestion with epoch-swapped
//! # indexes under continuous query traffic
//!
//! The paper's §4 extension handles *updates*: new segments appended at
//! each object's right time edge (stock volumes ticking, stations
//! reporting), with index maintenance amortized by periodic rebuilds once
//! the appended mass doubles. `chronorank-core` provides those primitives
//! per index; this crate is the **system** around them — an
//! [`IngestEngine`] that accepts a live append stream while
//! `chronorank-serve`-style query traffic keeps flowing:
//!
//! 1. **Durability first** — a batch is validated whole against its
//!    objects' right edges, then every append is framed into a
//!    block-device-backed [`chronorank_storage::WriteAheadLog`] (CRC'd
//!    records, one group-commit sync per batch) *before* it is
//!    acknowledged; a rejected batch never reaches the log. Crash recovery
//!    replays the log over the latest checkpoint snapshot, and
//!    [`IngestEngine::checkpoint`] truncates it.
//! 2. **Mutable tails** — each of `W` ingest shards holds its partition of
//!    the live data in columns behind one lock (the one copy: the engine
//!    itself keeps only each object's right edge, the live mass and the
//!    time domain), and an append is applied to it before `append_batch`
//!    returns. Queries answer as *frozen-generation candidates ∪
//!    tail-touched objects*, exactly rescored on the live curves, so
//!    results are **exact-fresh at every point between rebuilds**: the
//!    frozen index only nominates candidates, never scores the answer.
//! 3. **Epoch-swapped generations** — the §4 geometric mass-doubling
//!    policy (or a full tail) triggers a rebuild: a builder thread
//!    constructs fresh EXACT3/APPX2(+)/breakpoint structures from a
//!    snapshot **outside the shard lock** and returns the immutable
//!    generation; the engine installs it on its next `&mut self` step — a
//!    microsecond `Arc` swap measured in [`LiveReport::swap_pause`]. Queries
//!    take `&self`, so none overlaps an install, none blocks on a build,
//!    and each probes the shared snapshot directly (`Send + Sync`).
//! 4. **ε re-validation** — an approximate generation built over mass
//!    `M_built` carries an absolute bound `ε·M_built`. As appends grow the
//!    live mass, the planner
//!    ([`chronorank_serve::Planner::route_with_freshness`]) restates that
//!    bound against `M_live` before admitting the route, and the
//!    shard-local result cache (serve's [`chronorank_serve::ResultCache`],
//!    which each append batch charges) keeps a per-entry *staleness account*:
//!    a snapped answer is served only while
//!    `ε·M_built + appended-mass-overlapping ≤ ε_query·M_live`, else the
//!    entry is invalidated and recomputed. No stale approximate answer
//!    ever escapes the budget.
//!
//! Queries go through one body, [`IngestEngine::execute`]: a window is
//! routed from one snapshot of the shards' profiles and masses and run
//! through [`chronorank_serve::WorkerPool::scatter_gather`] — the pool
//! (booted by [`chronorank_serve::WorkerPool::boot`], which owns the
//! shards), one job per shard's own worker, per-query merge and span tree
//! `chronorank-serve` itself uses, with a live shard behind
//! [`chronorank_serve::ShardProbe`] where serve has an immutable one — and
//! answered as one
//! [`chronorank_serve::Answer`] per query whose `eps_used` is restated
//! from that same snapshot.
//! [`IngestEngine::query`] is a window of one. Beside the pool's `W`
//! workers, one per shard, the only threads the engine starts are generation builders,
//! one per build.
//!
//! ## Example
//!
//! ```
//! use chronorank_core::AppendRecord;
//! use chronorank_live::{IngestEngine, LiveConfig};
//! use chronorank_serve::ServeQuery;
//! use chronorank_core::TemporalSet;
//! use chronorank_curve::PiecewiseLinear;
//!
//! let curves: Vec<_> = (0..16)
//!     .map(|i| {
//!         PiecewiseLinear::from_points(&[(0.0, i as f64), (50.0, (16 - i) as f64)]).unwrap()
//!     })
//!     .collect();
//! let seed = TemporalSet::from_curves(curves).unwrap();
//! let mut engine =
//!     IngestEngine::new(&seed, LiveConfig { workers: 2, ..Default::default() }).unwrap();
//! // Stream new readings in while querying: answers include the appends.
//! engine.append_batch(&[AppendRecord { object: 3, t: 60.0, v: 500.0 }]).unwrap();
//! let top = engine.query(ServeQuery::exact(40.0, 60.0, 3)).unwrap();
//! assert_eq!(top.rank(0).0, 3, "the fresh append dominates the right edge");
//! println!("{}", engine.report());
//! ```

#![forbid(unsafe_code)]

mod config;
mod engine;
mod generation;
mod obs;
mod report;
mod shard;

pub use config::{LiveConfig, RebuildPolicy};
pub use engine::{IngestEngine, LiveError};
pub use report::{LiveReport, PauseHistogram, PAUSE_BUCKETS_US};

// Re-export the append vocabulary so callers need not name the core crate
// for the common path.
pub use chronorank_core::AppendRecord;
