//! # chronorank — ranking large temporal data
//!
//! A Rust reproduction of *“Ranking Large Temporal Data”* (Jestes, Phillips,
//! Li, Tang — PVLDB 5(11), 2012). The library answers **aggregate top-k
//! queries** on temporal data: given `m` objects whose score attribute is a
//! piecewise-linear function of time, `top-k(t1, t2, sum)` returns the `k`
//! objects with the largest `∫_{t1}^{t2} g_i(t) dt`.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`storage`] — block storage engine with a buffer pool and IO counters,
//! * [`index`] — disk-based B+-tree, interval tree, external sort,
//! * [`curve`] — piecewise-linear / piecewise-polynomial curve model,
//! * [`core`] — the paper's exact (`EXACT1..3`) and approximate
//!   (`APPX1-B/2-B/1/2/2+`) ranking methods,
//! * [`workloads`] — synthetic MesoWest-Temp / Memetracker-Meme style data
//!   generators and query workloads,
//! * [`serve`] — the sharded, cost-routed query-serving engine with
//!   shard-local result caching,
//! * [`live`] — the WAL-backed streaming ingest engine: durable right-edge
//!   appends, mutable shard tails merged into every answer, and §4
//!   amortized rebuilds published as non-blocking epoch swaps,
//! * [`net`] — the wire protocol: a length-prefixed CRC'd frame format, a
//!   TCP server fronting the serve/live engines with admission control,
//!   and a blocking client with request pipelining,
//! * [`obs`] — the telemetry plane: lock-free counters/gauges/log-bucketed
//!   histograms in a process-wide registry with Prometheus-style text
//!   exposition (served over the wire as `METRICS`), plus a slow-query
//!   flight recorder of end-to-end traces.
//!
//! ## Quickstart
//!
//! ```
//! use chronorank::core::{Exact3, RankMethod, AggKind};
//! use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};
//!
//! // Build a small weather-station style dataset.
//! let set = TempGenerator::new(TempConfig {
//!     objects: 50,
//!     avg_segments: 80,
//!     seed: 7,
//!     ..Default::default()
//! })
//! .generate_set();
//!
//! // Index it with the paper's best exact method and rank.
//! let exact3 = Exact3::build(&set, Default::default()).unwrap();
//! let (t1, t2) = (set.t_min() + 0.2 * set.span(), set.t_min() + 0.4 * set.span());
//! let top = exact3.top_k(t1, t2, 10, AggKind::Sum).unwrap();
//! assert_eq!(top.len(), 10);
//! ```

#![forbid(unsafe_code)]

pub use chronorank_core as core;
pub use chronorank_curve as curve;
pub use chronorank_index as index;
pub use chronorank_live as live;
pub use chronorank_net as net;
pub use chronorank_obs as obs;
pub use chronorank_serve as serve;
pub use chronorank_storage as storage;
pub use chronorank_workloads as workloads;
