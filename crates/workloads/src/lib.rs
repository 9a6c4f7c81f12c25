//! # chronorank-workloads — synthetic datasets and query workloads
//!
//! The paper evaluates on two large real datasets that are not
//! redistributable:
//!
//! * **Temp** — MesoWest temperature readings (26,383 stations, ~2.6·10⁹
//!   readings, 1997–2011), preprocessed into one object per station-year
//!   (`m = 145,628`, `n_avg = 17,833`), piecewise-linear by connecting
//!   consecutive readings;
//! * **Meme** — Memetracker phrase/URL records (`m ≈ 1.5·10⁶` URLs,
//!   `N = 10⁸` records, `n_avg = 67`), scores = number of memes on a page,
//!   bursty with fast decay.
//!
//! This crate generates faithful *synthetic* equivalents (see
//! `REPRODUCTION.md`, "Environment deviations", for the substitution
//! argument): [`TempGenerator`] produces smooth
//! seasonal+diurnal curves with weather-front noise; [`MemeGenerator`]
//! produces short-lived, heavy-tailed burst curves. Both expose the knobs
//! the paper sweeps (`m`, `n_avg`) and are fully deterministic under a
//! seed. [`StockGenerator`] supports the introduction's stock-volume
//! example, and [`RandomWalkGenerator`] is the neutral fallback.
//!
//! [`QueryWorkload`] generates the paper's query mix: random intervals of
//! a given length fraction (default 20 % of `T`) with random `k`.
//!
//! [`AppendStream`] replays any generator as a §4 right-edge append trace
//! (base prefix + time-ordered [`chronorank_core::AppendRecord`]s, with
//! configurable batch size and arrival skew), and
//! [`AppendStream::hotspot`] interleaves a query workload between batches
//! — the live ingest traffic shape.
//!
//! [`ClosedLoopTraffic`] deals one query workload round-robin into `C`
//! per-client streams for closed-loop network load generation (shared
//! hotspots, per-client interleavings) — the traffic shape the
//! wire-protocol tier (`chronorank-net`) is benchmarked with.
//!
//! ## Streaming generation (paper scale)
//!
//! At the paper's Meme scale (`m ≈ 1.5·10⁶`, `N ≈ 10⁸`) a materialized
//! `Vec` of all objects does not fit a sane memory budget, so generators
//! that also implement [`StreamingGenerator`] expose their dataset
//! **object-at-a-time** under a three-part contract:
//!
//! 1. **deterministic under seed** — `object(id)` is a pure function of
//!    `(config, id)`; the per-object RNG is seeded by a splitmix64
//!    derivation of `(seed, id)` (pure `u64` arithmetic, so ids past 2³²
//!    stay distinct);
//! 2. **sorted ids, sorted segments** — [`StreamingGenerator::objects`]
//!    yields ids `0..m` in order, and every curve's segments are emitted
//!    in nondecreasing `t0` order, which is exactly the order the
//!    external-sort build pipelines consume;
//! 3. **resumable** — because of (1), any id range can be re-generated
//!    independently (restart after a crash, partition across workers,
//!    or make a second pass for a later build phase) with bit-identical
//!    output; no generator state needs checkpointing.
//!
//! [`DatasetGenerator::generate`] is required to agree with the streaming
//! view: it is the same `object(id)` loop, collected.

#![forbid(unsafe_code)]

mod append;
mod meme;
mod query;
mod randomwalk;
mod stock;
mod temp;
mod traffic;
mod util;

pub use append::{AppendStream, AppendStreamConfig, LiveOp};
pub use meme::{MemeConfig, MemeGenerator};
pub use query::{IntervalPattern, QueryInterval, QueryWorkload, QueryWorkloadConfig};
pub use randomwalk::{RandomWalkConfig, RandomWalkGenerator};
pub use stock::{StockConfig, StockGenerator};
pub use temp::{TempConfig, TempGenerator};
pub use traffic::{ClosedLoopTraffic, TrafficConfig};

use chronorank_core::{ObjectId, TemporalObject, TemporalSet};

/// Common interface of all dataset generators.
pub trait DatasetGenerator {
    /// Generate the configured objects (ids dense from 0).
    fn generate(&self) -> Vec<TemporalObject>;

    /// Convenience: generate and wrap into a [`TemporalSet`].
    fn generate_set(&self) -> TemporalSet {
        TemporalSet::from_objects(self.generate()).expect("generator produced a valid set")
    }
}

/// Object-at-a-time access for paper-scale builds (see the crate docs'
/// *Streaming generation* section for the full contract: sorted,
/// deterministic under seed, resumable).
pub trait StreamingGenerator {
    /// Number of objects `m` this generator will produce.
    fn num_objects(&self) -> usize;

    /// Generate exactly one object — a pure function of the generator's
    /// configuration and `id`, independent of any other object.
    fn object(&self, id: ObjectId) -> TemporalObject;

    /// All objects in id order, generated lazily. Peak memory is a single
    /// object's curve; the `N`-segment dataset never materializes.
    fn objects(&self) -> impl Iterator<Item = TemporalObject> + '_ {
        (0..self.num_objects()).map(|id| self.object(id as ObjectId))
    }
}
