//! # chronorank-core — ranking large temporal data
//!
//! The primary contribution of *"Ranking Large Temporal Data"* (Jestes,
//! Phillips, Li, Tang — PVLDB 5(11), 2012), reimplemented in Rust.
//!
//! Given a temporal database of `m` objects, the `i`-th represented by a
//! piecewise-linear function `g_i` with `n_i` segments (`N = Σ n_i` total),
//! the **aggregate top-k query** `top-k(t1, t2, σ)` returns the `k` objects
//! with the largest aggregate score `σ_i(t1, t2)`; for `σ = sum` that is
//! `∫_{t1}^{t2} g_i(t) dt`.
//!
//! ## Methods (paper section in parentheses)
//!
//! | Method | Type | Guarantee | Query IOs |
//! |--------|------|-----------|-----------|
//! | [`Exact1`] (§2) | B+-tree over all segments | exact | `O(log_B N + Σ q_i/B)` |
//! | [`Exact2`] (§2) | forest of `m` prefix-sum B+-trees | exact | `O(Σ log_B n_i)` |
//! | [`Exact3`] (§2) | one interval tree, two stabbing queries | exact | `O(log_B N + m/B)` |
//! | [`ApproxIndex`] APPX1-B/1 (§3) | breakpoints + nested B+-trees | `(ε, 1)` | `O(k/B + log_B r)` |
//! | [`ApproxIndex`] APPX2-B/2 (§3) | breakpoints + dyadic intervals | `(ε, 2 log r)` | `O(k log r)` |
//! | [`ApproxIndex`] APPX2+ (§3.3) | APPX2 + exact candidate re-scoring from [`PackedPrefix`] | `(ε, 2 log r)`, near-exact in practice | `O(k log r log n/B)` |
//!
//! Breakpoints come in the two flavours of §3.1 — [`Breakpoints::b1_with_eps`]
//! (global sum reaches `εM` per gap, `r = Θ(1/ε)`) and [`Breakpoints::b2_with_eps`]
//! (per-object max reaches `εM`, `r = O(1/ε)`, much smaller in practice) —
//! with both the baseline and the efficient §3.1 constructions for B2.
//!
//! Section 4 extensions included: **negative scores** (absolute-value
//! thresholds), and `avg` and instant top-k **aggregates**
//! ([`AggKind::apply`] is where `avg` is computed). A built index never
//! changes — no method of one takes `&mut self`. Right-edge **updates**
//! with amortized rebuilds are `chronorank-live`'s: its WAL and columnar
//! tails take the appends (WAL replay applies them with
//! [`TemporalSet::apply`]), every answer rescores them, and a fresh
//! generation is built when the mass doubles. Piecewise-polynomial data is
//! not supported: every index stores linear segments.
//!
//! ## Glossary (paper Table 1)
//!
//! | Symbol | Here |
//! |--------|------|
//! | `m` | [`TemporalSet::num_objects`] |
//! | `N` | [`TemporalSet::num_segments`] |
//! | `n_i` | `set.object(i).curve.num_segments()` |
//! | `M = Σ σ_i(0,T)` | [`TemporalSet::total_mass`] |
//! | `σ_i(t1,t2)` | [`TemporalSet::score`] |
//! | `A(k,t1,t2)` | [`TopK`] |
//! | `B`, `B(t)` | [`Breakpoints`], [`Breakpoints::snap`] |
//! | `r` | [`Breakpoints::len`] |
//! | `kmax` | [`ApproxConfig::kmax`] |

#![forbid(unsafe_code)]

mod agg;
mod appx;
mod breakpoints;
pub mod cost_model;
mod error;
mod exact1;
mod exact2;
mod exact3;
mod method;
pub mod metrics;
mod object;
mod packed;
mod query1;
mod query2;
mod streambuild;
#[cfg(test)]
pub(crate) mod test_support;
mod topk;

pub use agg::AggKind;
pub use appx::{ApproxConfig, ApproxIndex, ApproxVariant, QueryKind};
pub use breakpoints::{B2Construction, Breakpoints, BreakpointsKind, FitStats, B2_FIT_MAX_SWEEPS};
pub use error::{CoreError, Result};
pub use exact1::Exact1;
pub use exact2::Exact2;
pub use exact3::Exact3;
pub use method::{GenerationProfile, MethodProfile, SharedMethod, TopKMethod};
pub use object::{AppendRecord, MergeOrder, ObjectId, TemporalObject, TemporalSet};
pub use packed::{PackedPrefix, PackedPrefixBuilder, PackedScorer};
pub use query1::Query1Index;
pub use query2::Query2Index;
pub use streambuild::{b2_streaming, scan_stats, StreamStats, StreamedB2};
pub use topk::{RankMethod, TopK};

/// Default index configuration shared by all methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexConfig {
    /// Block size / buffer-pool settings for the method's storage.
    pub store: chronorank_storage::StoreConfig,
}
