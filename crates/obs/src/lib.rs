//! `chronorank-obs` — the dependency-free observability plane.
//!
//! Every serving tier of chronorank keeps its own ad-hoc numbers
//! (`IoStats`, `LiveReport`, the wire STATS body). This crate gives them
//! one shared vocabulary and one scrape point:
//!
//! * [`Counter`] / [`Gauge`] — single atomic cells, `Relaxed` ordering,
//!   safe to bump from any hot path.
//! * [`Histogram`] — a log-bucketed (HDR-style) latency histogram whose
//!   buckets are plain atomics; recording is two relaxed RMWs plus a
//!   `fetch_max`, never a lock. Snapshots report p50/p95/p99/max.
//! * [`Registry`] — a process-wide (or private) collection of named
//!   metric families with labels, rendered as Prometheus-style text
//!   exposition by [`Registry::render`]. [`Registry::noop`] hands out
//!   handles whose operations compile to a branch on `None` — the side
//!   `tests/obs_counts.rs` compares the global registry's allocations
//!   per query against (the difference is pinned at zero).
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of structured
//!   [`QueryTrace`] records for queries slower than a settable
//!   threshold: route, per-shard fan-out timings, cache outcome, and the
//!   IO delta the query caused.
//! * [`SpanSink`] / [`ActiveSpan`] — explicit span trees for end-to-end
//!   distributed tracing: [`TraceId`]s cross the wire, parent links join
//!   client, server, engine and shard timings into one tree, and the
//!   sink is a bounded ring of inline slots behind one lock — no
//!   allocation per span — with take-and-clear [`SpanSink::drain`].
//! * [`SloTracker`] — multi-window (1 s / 10 s / 60 s) burn-rate
//!   tracking over a latency objective ([`SloObjective`]), exposed as
//!   registry gauges and as structured JSON for the wire `TRACE` op.
//!
//! The crate depends on `std` only, so every tier (including `storage`)
//! can use it without a cycle.

#![forbid(unsafe_code)]

mod metrics;
mod recorder;
mod registry;
mod slo;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use recorder::{CacheOutcome, FlightRecorder, IoDelta, QueryTrace, ShardSpan};
pub use registry::{validate_exposition, MetricKind, Registry};
pub use slo::{SloObjective, SloStatus, SloTracker, WindowStatus, SLO_WINDOWS_S};
pub use span::{
    spans_json, ActiveSpan, AttrList, AttrValue, Span, SpanId, SpanSink, TraceId, MAX_ATTRS,
};

/// Elapsed microseconds of an [`std::time::Instant`], saturated into `u64`.
///
/// The one conversion every instrumented tier needs; centralised so each
/// call site is a single expression.
pub fn elapsed_us(t0: std::time::Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}
