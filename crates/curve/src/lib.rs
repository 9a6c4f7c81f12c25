//! # chronorank-curve — the temporal function model
//!
//! The paper represents every temporal object `o_i` as a piecewise-linear
//! function `g_i : [0,T] → ℝ` with `n_i` segments; the aggregate score of an
//! object over a query interval is the integral `σ_i(t1,t2) = ∫ g_i`.
//! This crate implements that model and the numeric kernels every method in
//! the paper is built from:
//!
//! * [`Segment`] — one linear piece; trapezoid integral over a clipped
//!   sub-interval (the paper's Eq. (1)), absolute-value integrals (for the
//!   Section 4 negative-score extension), and accumulation-crossing solves
//!   (used by breakpoint construction);
//! * [`PiecewiseLinear`] — a validated sequence of segments with binary
//!   search evaluation, interval integrals, prefix sums
//!   `σ_i(I_{i,ℓ})` (the quantity EXACT2/EXACT3 store), and right-edge
//!   appends (the paper's update model);
//! * [`ColumnarTail`] — curves with append-only mutable tails: a frozen
//!   base of shared [`PiecewiseLinear`] curves plus a columnar append log,
//!   with branch-light batch integral kernels bit-identical to the scalar
//!   path (the live tier's rescoring engine);
//! * [`numeric`] — shared robust solvers (quadratic accumulation
//!   crossings).
//!
//! Everything is plain `f64` math with no storage dependencies.

#![forbid(unsafe_code)]

mod columnar;
mod error;
pub mod numeric;
mod pwl;
mod segment;

pub use columnar::ColumnarTail;
pub use error::{CurveError, Result};
pub use pwl::PiecewiseLinear;
pub use segment::Segment;

/// Objects' times are `f64` seconds (or any consistent unit) throughout.
pub type Time = f64;

/// Score values.
pub type Value = f64;

/// `max(a, b)` as a straight select (`b > a ? b : a`). Identical to
/// `f64::max` on the finite inputs curves validate; unlike `f64::max` it
/// carries no NaN bookkeeping, so the backend turns it into one
/// `maxsd`/`maxpd` and the SLP vectorizer accepts clipping loops built on
/// it. **Both** the scalar clipping path ([`Segment::integral_clipped`])
/// and the columnar kernels use this helper, so their bits can never
/// drift apart.
#[inline(always)]
pub(crate) fn sel_max(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// `min(a, b)` as a straight select — see [`sel_max`].
#[inline(always)]
pub(crate) fn sel_min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}
