//! Breakpoint construction (paper §3.1).
//!
//! Both approximate methods snap query endpoints to a set of breakpoints
//! `B = {b_0 = 0, …, b_r = T}` chosen so that **no object accumulates more
//! than `εM` between consecutive breakpoints** (`M = Σ_i σ_i(0,T)`), which
//! gives Lemma 2: `|σ_i(t1,t2) − σ_i(B(t1),B(t2))| ≤ εM` for every object
//! and every query.
//!
//! * [`Breakpoints::b1_with_eps`] — **BREAKPOINTS1**: sweep all segment
//!   vertices maintaining the *global* sum value `V(t) = Σ_i g_i(t)` and
//!   slope `W(t)`; close a gap when `Σ_i σ_i(b_j, t) = εM`. Exactly
//!   `r = Θ(1/ε)` breakpoints; one `O((N/B) log_B N)` sorted sweep.
//! * [`Breakpoints::b2_with_eps`] — **BREAKPOINTS2**: close a gap when
//!   `max_i σ_i(b_j, t) = εM`. `r = O(1/ε)` but *far* smaller in practice
//!   (paper Fig. 11(a): ε at equal r is orders of magnitude smaller). Two
//!   constructions, selected by [`B2Construction`]:
//!   [`B2Construction::Baseline`] re-bases every object's running integral
//!   at every breakpoint (`O(rm + N log N)` time — the paper's baseline),
//!   while [`B2Construction::Efficient`] re-bases lazily via per-object
//!   epochs and eagerly only for *dangerous* objects (those that already
//!   crossed the threshold), achieving the paper's Lemma 1
//!   `O(N log N)` bound. Both produce identical breakpoints.
//!   [`Breakpoints::b2_with_count`] fits `ε` to a breakpoint budget `r`
//!   with a few sweeps over one merge order, merged here or recorded by
//!   a shard's EXACT3 load ([`Breakpoints::b2_with_count_stats_in_order`]).
//!
//! There is one BREAKPOINTS2 sweep, `B2Sweeper`: one loop over the queue Q
//! and one `commit`, generic only over what feeds it segments. A resident
//! [`TemporalSet`] feeds the replay of an `m`-way merge of its curves,
//! kept as one object id per segment (`ResidentRun`) — in a shard build
//! the merge EXACT3 loads from, unless the set has negative values and its
//! `|g_i|` curves need one of their own; [`crate::b2_streaming`]
//! feeds an external sort's merge. Its state is
//! `O(m)`: of everything it has consumed, the sweep keeps **one segment per
//! object, the last one**. That is all a re-base can ask about, because
//! when object `i` is re-based at breakpoint `b`, every segment consumed
//! for `i` starts at or before `b`:
//!
//! * segments are consumed in `t0` order and only while `t0 ≤ next`, the
//!   earliest pending crossing; a crossing found in a segment lies at or
//!   after that segment's `t0`, so `next` never drops below the `t0` of
//!   anything already consumed, and a commit happens at `b = next`;
//! * a lazy re-base at the latest breakpoint `b` only reaches an object
//!   that has consumed nothing since `b` was committed.
//!
//! An object's segments tile its domain, so all but the last consumed one
//! end at or before `b` and contribute nothing to `σ_i(b, frontier)`.
//!
//! Negative scores (paper §4) are handled by running both sweeps over
//! `|g_i|`: curves are pre-split at zero crossings and mirrored, so `M`
//! and every threshold use absolute mass.

use crate::error::{CoreError, Result};
use crate::object::{columns, MergeOrder, TemporalSet, TimeOrdered};
use chronorank_curve::numeric::accumulation_crossing;
use chronorank_curve::{PiecewiseLinear, Segment};

/// Which of the paper's two breakpoint families a [`Breakpoints`] set is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakpointsKind {
    /// BREAKPOINTS1: global-sum threshold, `r = Θ(1/ε)`.
    B1,
    /// BREAKPOINTS2: per-object-max threshold, `r = O(1/ε)`.
    B2,
}

/// Which construction algorithm to use for BREAKPOINTS2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum B2Construction {
    /// Reset all `m` running integrals at every breakpoint
    /// (`O(rm + N log N)`; the paper's "BREAKPOINTS2-B").
    Baseline,
    /// Lazy epoch-based re-basing (`O(N log N)`, Lemma 1; the paper's
    /// "BREAKPOINTS2-E").
    #[default]
    Efficient,
}

/// A constructed breakpoint set `B` (paper §3.1), with the `ε` that
/// generated it.
#[derive(Debug, Clone)]
pub struct Breakpoints {
    kind: BreakpointsKind,
    points: Vec<f64>,
    eps: f64,
    /// Total absolute mass `M` at construction time (the amortized-update
    /// rule rebuilds when the live mass doubles; see `ApproxIndex`).
    mass: f64,
}

impl Breakpoints {
    /// Assemble a breakpoint set from an already-run sweep. Used by the
    /// streaming construction (`streambuild`), which runs
    /// [`B2Sweeper::sweep`] without materializing the dataset.
    pub(crate) fn from_sweep(kind: BreakpointsKind, points: Vec<f64>, eps: f64, mass: f64) -> Self {
        Self { kind, points, eps, mass }
    }

    /// BREAKPOINTS1 for a given `ε > 0`.
    pub fn b1_with_eps(set: &TemporalSet, eps: f64) -> Result<Self> {
        check_eps(eps)?;
        let points = sweep_b1(set, eps * set.total_mass())?;
        Ok(Self { kind: BreakpointsKind::B1, points, eps, mass: set.total_mass() })
    }

    /// BREAKPOINTS1 sized to approximately `r` breakpoints
    /// (`ε = 1/(r−1)`, per the paper's `r = ⌈1/ε + 1⌉`).
    pub fn b1_with_count(set: &TemporalSet, r: usize) -> Result<Self> {
        if r < 2 {
            return Err(CoreError::BadQuery(format!("need r ≥ 2 breakpoints, got {r}")));
        }
        Self::b1_with_eps(set, 1.0 / (r as f64 - 1.0))
    }

    /// BREAKPOINTS2 for a given `ε > 0`.
    pub fn b2_with_eps(set: &TemporalSet, eps: f64, construction: B2Construction) -> Result<Self> {
        check_eps(eps)?;
        let tau = eps * set.total_mass();
        let points = ResidentRun::new(set, construction, None)?.sweep(tau, usize::MAX)?.done();
        Ok(Self { kind: BreakpointsKind::B2, points, eps, mass: set.total_mass() })
    }

    /// BREAKPOINTS2 sized to approximately `r` breakpoints (this is how the
    /// paper compares B1 and B2 "given the same budget r", Fig. 11(a)).
    /// See [`Breakpoints::b2_with_count_stats`] for how `ε` is fitted.
    pub fn b2_with_count(
        set: &TemporalSet,
        r: usize,
        construction: B2Construction,
    ) -> Result<Self> {
        Self::b2_with_count_stats(set, r, construction).map(|(bp, _)| bp)
    }

    /// [`Breakpoints::b2_with_count`], also reporting what the fit cost.
    ///
    /// The count of a B2 sweep lies between `max_i M_i / (εM)` (the
    /// heaviest object alone forces that many cuts) and `1/ε` (B1's
    /// count), so the `ε*` whose sweep yields `r` points satisfies
    /// `max_i M_i / ((r−1)·M) ≤ ε* ≤ 1/(r−1)`. The fit prepares the merge
    /// order once, sweeps the upper end of that bracket (always a
    /// valid answer), then closes in on `r`: log–log interpolation between
    /// the bracket ends once both have been swept, else `count ∝ 1/ε`
    /// around the latest trial, else bisection. A trial is abandoned as
    /// soon as its count passes `r +` the best distance so far. The fit
    /// stops at the first count with `|count − r| ≤ max(1, r/64)`, when two
    /// consecutive trials on one side report the same count, or after
    /// [`B2_FIT_MAX_SWEEPS`] sweeps, and returns the closest completed
    /// trial — always a genuine `b2_with_eps` set, so the `ε` guarantee is
    /// that of its own `ε`. A pure function of `(set, r, construction)`.
    pub fn b2_with_count_stats(
        set: &TemporalSet,
        r: usize,
        construction: B2Construction,
    ) -> Result<(Self, FitStats)> {
        Self::fit_b2(set, r, construction, None)
    }

    /// [`Breakpoints::b2_with_count_stats`] over the set whose merge
    /// `order` recorded ([`crate::Exact3::build_recording_order`]): every
    /// sweep replays it instead of a merge run here. A set with negative
    /// values sweeps its `|g_i|` curves, whose segments are split at zero
    /// crossings, so it merges those itself and `order` goes unread. The
    /// same points, bit for bit, as [`Breakpoints::b2_with_count_stats`].
    pub fn b2_with_count_stats_in_order(
        order: MergeOrder<'_>,
        r: usize,
        construction: B2Construction,
    ) -> Result<(Self, FitStats)> {
        Self::fit_b2(order.set, r, construction, Some(order.objects))
    }

    fn fit_b2(
        set: &TemporalSet,
        r: usize,
        construction: B2Construction,
        order: Option<Vec<u32>>,
    ) -> Result<(Self, FitStats)> {
        if r < 2 {
            return Err(CoreError::BadQuery(format!("need r ≥ 2 breakpoints, got {r}")));
        }
        let run = ResidentRun::new(set, construction, order)?;
        let mass = set.total_mass();
        let hi = 1.0 / (r as f64 - 1.0);
        let lo = if mass > 0.0 { hi * (run.max_object_mass() / mass).min(1.0) } else { hi };
        let (eps, points, stats) =
            fit_count(r, lo, hi, set.span(), |eps, limit| run.sweep(eps * mass, limit))?;
        Ok((Self { kind: BreakpointsKind::B2, points, eps, mass }, stats))
    }

    /// Number of breakpoints `r` (including both domain endpoints).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the set holds no breakpoints (cannot happen for valid
    /// construction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sorted breakpoints `b_0 … b_{r−1}`.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The `ε` that generated this set.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Absolute mass `M` at construction time.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Serialize for a persistent generation image: kind tag, `ε` and `M`
    /// as exact bits, then every breakpoint time as exact bits — enough
    /// to rebuild the approximate indexes deterministically on reopen.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + 8 * self.points.len());
        out.push(match self.kind {
            BreakpointsKind::B1 => 1u8,
            BreakpointsKind::B2 => 2u8,
        });
        out.extend_from_slice(&self.eps.to_bits().to_le_bytes());
        out.extend_from_slice(&self.mass.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.points.len() as u32).to_le_bytes());
        for &p in &self.points {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        out
    }

    /// Inverse of [`Breakpoints::to_bytes`]. Refuses, as corrupt, any
    /// table no construction yields: fewer than two points (both domain
    /// ends are always present), points not finite and strictly
    /// increasing, an `ε` that is not finite and positive, or an `M` that
    /// is not finite and non-negative.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let corrupt = || CoreError::BadQuery("corrupt breakpoint table".into());
        if bytes.len() < 21 {
            return Err(corrupt());
        }
        let kind = match bytes[0] {
            1 => BreakpointsKind::B1,
            2 => BreakpointsKind::B2,
            _ => return Err(corrupt()),
        };
        let f = |at: usize| {
            f64::from_bits(u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")))
        };
        let eps = f(1);
        let mass = f(9);
        let r = u32::from_le_bytes(bytes[17..21].try_into().expect("4 bytes")) as usize;
        let eps_ok = eps > 0.0 && eps.is_finite();
        let mass_ok = mass >= 0.0 && mass.is_finite();
        if r < 2 || !eps_ok || !mass_ok || bytes.len() != 21 + 8 * r {
            return Err(corrupt());
        }
        let points: Vec<f64> = (0..r).map(|i| f(21 + 8 * i)).collect();
        if points.iter().any(|p| !p.is_finite()) || points.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt());
        }
        Ok(Self { kind, points, eps, mass })
    }

    /// `B(t)`: index of the smallest breakpoint ≥ `t` (paper Fig. 8),
    /// clamped into range (`t` beyond the last breakpoint snaps to it).
    pub fn snap_idx(&self, t: f64) -> usize {
        let idx = self.points.partition_point(|&b| b < t);
        idx.min(self.points.len() - 1)
    }

    /// `B(t)` as a time value.
    pub fn snap(&self, t: f64) -> f64 {
        self.points[self.snap_idx(t)]
    }

    /// Cumulative **signed** integral of `curve` from its own start up to
    /// every breakpoint, in one `O(n_i + r)` merge-walk. This is the
    /// per-object quantity the QUERY1/QUERY2 construction sweeps maintain:
    /// `σ_i(b_j, b_j') = out[j'] − out[j]`.
    pub fn cums_at(&self, curve: &PiecewiseLinear) -> Vec<f64> {
        let n = curve.num_segments();
        let mut out = Vec::with_capacity(self.points.len());
        let mut seg_j = 0usize;
        let mut cum_at_seg_start = 0.0f64;
        for &b in &self.points {
            while seg_j < n && curve.segment(seg_j).t1 <= b {
                cum_at_seg_start += curve.segment(seg_j).integral_full();
                seg_j += 1;
            }
            let c = if seg_j < n {
                let seg = curve.segment(seg_j);
                if b <= seg.t0 {
                    cum_at_seg_start
                } else {
                    cum_at_seg_start + seg.integral_clipped(seg.t0, b)
                }
            } else {
                cum_at_seg_start
            };
            out.push(c);
        }
        out
    }
}

pub(crate) fn check_eps(eps: f64) -> Result<()> {
    if eps <= 0.0 || !eps.is_finite() {
        return Err(CoreError::BadQuery(format!("ε must be positive and finite, got {eps}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Absolute-value curve view (negative-score handling, §4)
// ---------------------------------------------------------------------------

/// The curves the sweeps actually integrate, `|g_i|` in id order:
/// materialized only when negatives exist, else clones that share the
/// set's columns.
fn abs_curves(set: &TemporalSet) -> Result<Vec<PiecewiseLinear>> {
    let curves = set.objects().iter().map(|o| &o.curve);
    if set.has_negative() {
        curves.map(abs_curve).collect()
    } else {
        Ok(curves.cloned().collect())
    }
}

/// `|g|`: split each segment at its zero crossing and mirror negative
/// values. The result is again piecewise linear.
pub(crate) fn abs_curve(c: &PiecewiseLinear) -> Result<PiecewiseLinear> {
    let mut pts: Vec<(f64, f64)> = Vec::with_capacity(c.num_points() + 4);
    pts.push((c.start(), c.values()[0].abs()));
    for seg in c.segments() {
        if (seg.v0 < 0.0) != (seg.v1 < 0.0) && seg.v0 != 0.0 && seg.v1 != 0.0 {
            // Zero crossing strictly inside the segment.
            let tz = seg.t0 + (seg.t1 - seg.t0) * seg.v0.abs() / (seg.v0.abs() + seg.v1.abs());
            if tz > pts.last().expect("non-empty").0 && tz < seg.t1 {
                pts.push((tz, 0.0));
            }
        }
        pts.push((seg.t1, seg.v1.abs()));
    }
    Ok(PiecewiseLinear::from_points(&pts)?)
}

// ---------------------------------------------------------------------------
// BREAKPOINTS1: global V/W sweep
// ---------------------------------------------------------------------------

/// One sweep event: at `t`, the global slope changes by `dw` and the global
/// value jumps by `dv` (jumps only at object starts/ends).
#[derive(Debug, Clone, Copy)]
struct Event {
    t: f64,
    dw: f64,
    dv: f64,
}

fn b1_events(curves: &[PiecewiseLinear]) -> Vec<Event> {
    let mut events: Vec<Event> = Vec::new();
    for c in curves {
        let first = c.segment(0);
        events.push(Event { t: c.start(), dw: first.slope(), dv: first.v0 });
        for j in 1..c.num_segments() {
            let prev = c.segment(j - 1);
            let cur = c.segment(j);
            events.push(Event { t: cur.t0, dw: cur.slope() - prev.slope(), dv: 0.0 });
        }
        let last = c.segment(c.num_segments() - 1);
        events.push(Event { t: c.end(), dw: -last.slope(), dv: -last.v1 });
    }
    events.sort_by(|a, b| a.t.total_cmp(&b.t));
    events
}

/// BREAKPOINTS1 sweep: emit a breakpoint whenever the global running
/// integral `I(t) = Σ_i σ_i(b_j, t)` reaches `τ = εM`.
fn sweep_b1(set: &TemporalSet, tau: f64) -> Result<Vec<f64>> {
    let events = b1_events(&abs_curves(set)?);
    let t_min = set.t_min();
    let t_max = set.t_max();
    let mut points = vec![t_min];
    if tau <= 0.0 || set.total_mass() <= 0.0 {
        points.push(t_max);
        return Ok(points);
    }
    let mut v = 0.0f64; // V(t) = Σ |g_i(t)|
    let mut w = 0.0f64; // W(t) = Σ slopes
    let mut acc = 0.0f64; // I(t) since the last breakpoint
    let mut t_cur = t_min;
    let mut e = 0usize;
    while e < events.len() {
        let te = events[e].t;
        // Advance continuously across [t_cur, te], emitting breakpoints.
        while t_cur < te {
            let remaining = te - t_cur;
            match accumulation_crossing(v.max(0.0), w, tau - acc) {
                Some(delta) if delta <= remaining => {
                    t_cur += delta;
                    v += w * delta;
                    points.push(t_cur);
                    acc = 0.0;
                }
                _ => {
                    acc += 0.5 * w * remaining * remaining + v * remaining;
                    v += w * remaining;
                    t_cur = te;
                }
            }
        }
        // Apply all events at this time.
        while e < events.len() && events[e].t == te {
            w += events[e].dw;
            v += events[e].dv;
            e += 1;
        }
    }
    if *points.last().expect("non-empty") < t_max {
        points.push(t_max);
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// BREAKPOINTS2: per-object max sweep (baseline and efficient)
// ---------------------------------------------------------------------------

/// Per-object sweep state.
struct ObjState {
    /// Running integral `σ_i(b, frontier)` relative to the breakpoint `b`
    /// the object was last re-based at (`epoch`), `frontier` being the end
    /// of the last segment consumed.
    integral: f64,
    /// The last segment consumed, until a re-base finds it ended (see the
    /// module docs for why no earlier one is ever needed).
    last: Option<Segment>,
    /// Index into the emitted breakpoint list at whose value `integral`
    /// was last re-based.
    epoch: usize,
    /// Whether the object has crossed `τ` since it was last re-based (the
    /// paper's *dangerous* objects).
    dangerous: bool,
}

impl ObjState {
    /// Re-base at breakpoint `b`, the `epoch`-th: `integral` becomes
    /// `σ_i(b, frontier)`. Breakpoints only move right, so a segment that
    /// ended at or before `b` is dropped (and `held` counts one fewer).
    fn rebase(&mut self, b: f64, epoch: usize, held: &mut u64) {
        self.epoch = epoch;
        self.integral = match self.last {
            Some(seg) => {
                debug_assert!(seg.t0 <= b, "re-base at {b} before a consumed segment's start");
                if seg.t1 > b {
                    seg.integral_clipped(b, seg.t1)
                } else {
                    self.last = None;
                    *held -= 1;
                    0.0
                }
            }
            None => 0.0,
        };
    }
}

/// How one [`B2Sweeper::sweep`] ended.
pub(crate) enum Sweep {
    Done(Vec<f64>),
    /// More than `limit` breakpoints were committed; the last one lies
    /// `progress` past the start of the time domain.
    Aborted {
        progress: f64,
    },
}

impl Sweep {
    /// The points of a sweep that ran without a count limit.
    pub(crate) fn done(self) -> Vec<f64> {
        match self {
            Sweep::Done(points) => points,
            Sweep::Aborted { .. } => unreachable!("a sweep without a count limit never aborts"),
        }
    }
}

/// The one BREAKPOINTS2 sweep (§3.1), over whatever queue Q feeds it.
pub(crate) struct B2Sweeper {
    construction: B2Construction,
    tau: f64,
    st: Vec<ObjState>,
    /// Ids of the objects whose `dangerous` flag is set.
    dangerous: Vec<u32>,
    /// Earliest crossing among the dangerous objects, `+∞` when none: the
    /// next breakpoint. The paper keeps the crossings in a priority queue;
    /// a running minimum does, because between two commits objects only
    /// *become* dangerous and a commit recomputes every crossing anyway.
    next: f64,
    points: Vec<f64>,
    /// Objects holding a `last` segment now, and the high-water mark.
    held: u64,
    peak_held: u64,
}

impl B2Sweeper {
    /// One sweep at threshold `tau` over `num_objects` objects on
    /// `[t_min, t_max]`, fed every `|g_i|` segment as `(object, segment)`
    /// in left-endpoint order (ties in object order), given up once more
    /// than `limit` breakpoints are committed. Also returns the most
    /// objects that held a segment at once (`≤ num_objects`).
    pub(crate) fn sweep(
        num_objects: usize,
        construction: B2Construction,
        (t_min, t_max): (f64, f64),
        tau: f64,
        limit: usize,
        segments: impl Iterator<Item = Result<(u32, Segment)>>,
    ) -> Result<(Sweep, u64)> {
        if tau <= 0.0 {
            return Ok((Sweep::Done(vec![t_min, t_max]), 0));
        }
        let fresh = || ObjState { integral: 0.0, last: None, epoch: 0, dangerous: false };
        let mut sw = Self {
            construction,
            tau,
            st: (0..num_objects).map(|_| fresh()).collect(),
            dangerous: Vec::new(),
            next: f64::INFINITY,
            points: vec![t_min],
            held: 0,
            peak_held: 0,
        };
        let mut b_cur = t_min;

        for item in segments {
            let (obj, seg) = item?;
            // Commit any breakpoints that must occur before this segment starts.
            while seg.t0 > sw.next {
                b_cur = sw.next;
                sw.commit(b_cur);
                if sw.points.len() > limit {
                    return Ok((Sweep::Aborted { progress: b_cur - t_min }, sw.peak_held));
                }
            }
            // Lazily re-base this object if breakpoints advanced past its epoch.
            let s = &mut sw.st[obj as usize];
            if s.epoch != sw.points.len() - 1 {
                s.rebase(b_cur, sw.points.len() - 1, &mut sw.held);
                debug_assert!(
                    s.integral < tau * (1.0 + 1e-9) + 1e-12 || s.dangerous,
                    "lazy rebase found an unnoticed crossing"
                );
            }
            // Consume the segment (only its part after the current breakpoint).
            let from = seg.t0.max(b_cur);
            let add = if from < seg.t1 { seg.integral_clipped(from, seg.t1) } else { 0.0 };
            if !s.dangerous && s.integral < tau && s.integral + add >= tau {
                if let Some(t_star) = seg.time_to_accumulate(from, tau - s.integral) {
                    s.dangerous = true;
                    sw.dangerous.push(obj);
                    sw.next = earlier(sw.next, t_star);
                }
            }
            s.integral += add;
            if s.last.replace(seg).is_none() {
                sw.held += 1;
                sw.peak_held = sw.peak_held.max(sw.held);
            }
        }
        // Drain remaining candidates.
        while sw.next < t_max {
            let b_star = sw.next;
            sw.commit(b_star);
            if sw.points.len() > limit {
                return Ok((Sweep::Aborted { progress: b_star - t_min }, sw.peak_held));
            }
        }
        if *sw.points.last().expect("non-empty") < t_max {
            sw.points.push(t_max);
        }
        Ok((Sweep::Done(sw.points), sw.peak_held))
    }

    /// Commit breakpoint `b_star` and re-base eagerly, in ascending id
    /// order: the dangerous objects under `Efficient` (everything else is
    /// re-based lazily when its next segment arrives), every object under
    /// `Baseline` (the paper's `O(rm)` resets).
    fn commit(&mut self, b_star: f64) {
        self.points.push(b_star);
        let epoch = self.points.len() - 1;
        let num_objects = self.st.len() as u32;
        let (st, held, tau) = (&mut self.st, &mut self.held, self.tau);
        let mut next = f64::INFINITY;
        let mut rebase = |i: u32| {
            let s = &mut st[i as usize];
            s.rebase(b_star, epoch, held);
            s.dangerous = false;
            if s.integral >= tau {
                // Still over threshold: a further crossing lies inside the
                // segment the object holds.
                if let Some(t_star) = s.last.and_then(|seg| seg.time_to_accumulate(b_star, tau)) {
                    s.dangerous = true;
                    next = earlier(next, t_star);
                }
            }
            s.dangerous
        };
        match self.construction {
            B2Construction::Efficient => {
                self.dangerous.sort_unstable();
                self.dangerous.retain(|&i| rebase(i));
            }
            B2Construction::Baseline => {
                self.dangerous.clear();
                self.dangerous.extend((0..num_objects).filter(|&i| rebase(i)));
            }
        }
        self.next = next;
    }
}

/// The earlier of two crossing times in `f64`'s total order (so a
/// `-0.0`/`+0.0` tie resolves one way everywhere).
fn earlier(a: f64, b: f64) -> f64 {
    if b.total_cmp(&a).is_lt() {
        b
    } else {
        a
    }
}

/// What the sweeps over one resident set share: the `|g_i|` view and the
/// paper's queue Q over it, prepared once as the object of every segment in
/// left-endpoint order, 4 bytes a segment — the [`MergeOrder`] a shard's
/// EXACT3 load recorded from the set's curves, or, for a set with negative
/// values (or a caller without one), a [`TimeOrdered`] merge of the `|g_i|`
/// curves run here (ties in object order either way, as the streamed sort
/// breaks them). A sweep replays it over the curves' point columns,
/// borrowed once per sweep, with a cursor per object; a count fit runs
/// several.
struct ResidentRun {
    curves: Vec<PiecewiseLinear>,
    order: Vec<u32>,
    construction: B2Construction,
    domain: (f64, f64),
}

impl ResidentRun {
    /// `order`, when given, is the set's own [`MergeOrder`]; a set with
    /// negative values merges its `|g_i|` curves instead.
    fn new(
        set: &TemporalSet,
        construction: B2Construction,
        order: Option<Vec<u32>>,
    ) -> Result<Self> {
        let curves = abs_curves(set)?;
        let order = match order {
            Some(order) if !set.has_negative() => order,
            _ => {
                let mut order = Vec::with_capacity(curves.iter().map(|c| c.num_segments()).sum());
                for item in TimeOrdered::new(columns(&curves)) {
                    order.push(item?.0);
                }
                order
            }
        };
        Ok(Self { curves, order, construction, domain: (set.t_min(), set.t_max()) })
    }

    /// Heaviest single object's absolute mass, `max_i M_i`.
    fn max_object_mass(&self) -> f64 {
        self.curves.iter().map(|c| c.total()).fold(0.0, f64::max)
    }

    /// One sweep over the run.
    fn sweep(&self, tau: f64, limit: usize) -> Result<Sweep> {
        let (m, columns) = (self.curves.len(), columns(&self.curves));
        let mut cursor = vec![0usize; m];
        let segments = self.order.iter().map(|&obj| {
            let (times, values) = columns[obj as usize];
            let j = cursor[obj as usize];
            cursor[obj as usize] = j + 1;
            Ok((obj, Segment { t0: times[j], v0: values[j], t1: times[j + 1], v1: values[j + 1] }))
        });
        B2Sweeper::sweep(m, self.construction, self.domain, tau, limit, segments)
            .map(|(sweep, _)| sweep)
    }
}

// ---------------------------------------------------------------------------
// BREAKPOINTS2 count fit
// ---------------------------------------------------------------------------

/// Sweep budget of one [`Breakpoints::b2_with_count`] fit.
pub const B2_FIT_MAX_SWEEPS: u32 = 8;

/// What one [`Breakpoints::b2_with_count_stats`] fit cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Sweeps run, aborted ones included (≤ [`B2_FIT_MAX_SWEEPS`]).
    pub sweeps: u32,
    /// Sweeps given up early because their count had already overshot.
    pub aborted: u32,
}

/// One end of the fit's `ε` bracket, with the gap count (`points − 1`)
/// seen there: measured, extrapolated from an aborted sweep, or not known.
#[derive(Clone, Copy)]
struct End {
    eps: f64,
    gaps: Option<f64>,
}

/// Search `[lo, hi]` for the `ε` whose sweep yields `r` points, where
/// `trial(ε, limit)` runs one sweep that may give up past `limit` points.
/// The caller guarantees `count(hi) ≤ r ≲ count(lo)`. Returns the closest
/// completed trial as `(ε, points)`.
fn fit_count(
    r: usize,
    lo: f64,
    hi: f64,
    span: f64,
    mut trial: impl FnMut(f64, usize) -> Result<Sweep>,
) -> Result<(f64, Vec<f64>, FitStats)> {
    let band = (r / 64).max(1);
    let want = r as f64 - 1.0;
    let first = trial(hi, usize::MAX)?.done();
    let mut stats = FitStats { sweeps: 1, aborted: 0 };
    let mut best_d = first.len().abs_diff(r);
    // `many` has too many points (smaller ε), `few` too few.
    let mut many = End { eps: lo, gaps: None };
    // The latest trial: its ε, gap count (measured or extrapolated), count.
    let (mut last_eps, mut last_gaps, mut last_count) = (hi, first.len() as f64 - 1.0, first.len());
    let mut few = End { eps: hi, gaps: Some(last_gaps) };
    let mut best = (hi, first);
    if last_count >= r {
        return Ok((best.0, best.1, stats));
    }
    while best_d > band && stats.sweeps < B2_FIT_MAX_SWEEPS {
        // Strictly inside the bracket; the `lo` end itself is fair game
        // until it has been swept.
        let inside =
            |e: f64| e < few.eps && (e > many.eps || (e == many.eps && many.gaps.is_none()));
        // Log–log interpolation between the bracket ends once both have
        // been swept; a single gap says nothing (no object reached τ at
        // all) and is left out.
        let mut eps = match (many.gaps, few.gaps) {
            (Some(gm), Some(gf)) if gf > 1.0 => {
                let frac = (gm.ln() - want.ln()) / (gm.ln() - gf.ln());
                (many.eps.ln() + frac * (few.eps.ln() - many.eps.ln())).exp()
            }
            _ => f64::NAN,
        };
        if !inside(eps) {
            // count ∝ 1/ε around the latest trial, or straight to the mass
            // bound when that trial saw a single gap.
            eps = if last_gaps > 1.0 { (last_eps * last_gaps / want).max(lo) } else { many.eps };
        }
        if !inside(eps) {
            eps = (many.eps * few.eps).sqrt();
        }
        if !inside(eps) {
            break; // bracket exhausted
        }
        let limit = r + best_d;
        stats.sweeps += 1;
        let (count, gaps) = match trial(eps, limit)? {
            Sweep::Done(points) => {
                let count = points.len();
                if count.abs_diff(r) < best_d {
                    best_d = count.abs_diff(r);
                    best = (eps, points);
                }
                (count, count as f64 - 1.0)
            }
            Sweep::Aborted { progress } => {
                stats.aborted += 1;
                (limit + 1, limit as f64 * span / progress)
            }
        };
        let end = End { eps, gaps: Some(gaps) };
        let same_side = (count > r) == (last_count > r);
        if count > r {
            many = end;
        } else {
            few = end;
        }
        // A count that did not move between two trials on one side: the
        // data cannot get closer (zero mass, or a plateau wider than the
        // steps the search takes).
        if same_side && count == last_count && count <= limit {
            break;
        }
        (last_eps, last_gaps, last_count) = (eps, gaps, count);
    }
    Ok((best.0, best.1, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_set;
    use chronorank_curve::numeric::approx_eq;

    /// The defining property (Lemma 2 precondition): between consecutive
    /// breakpoints, no single object (B2) / the global sum (B1) exceeds τ.
    fn assert_gap_property(set: &TemporalSet, bp: &Breakpoints) {
        let tau = bp.eps() * bp.mass();
        let slack = 1.0 + 1e-6;
        for w in bp.points().windows(2) {
            let (a, b) = (w[0], w[1]);
            match bp.kind {
                BreakpointsKind::B1 => {
                    let total: f64 = set.objects().iter().map(|o| o.curve.abs_integral(a, b)).sum();
                    assert!(total <= tau * slack, "B1 gap [{a},{b}] holds {total} > τ = {tau}");
                }
                BreakpointsKind::B2 => {
                    for o in set.objects() {
                        let s = o.curve.abs_integral(a, b);
                        assert!(
                            s <= tau * slack,
                            "B2 gap [{a},{b}] object {} holds {s} > τ = {tau}",
                            o.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn b1_count_matches_inverse_eps() {
        let set = small_set();
        for &r in &[5usize, 10, 25, 60] {
            let bp = Breakpoints::b1_with_count(&set, r).unwrap();
            assert!((bp.len() as i64 - r as i64).abs() <= 2, "requested {r}, got {}", bp.len());
            assert_gap_property(&set, &bp);
        }
    }

    #[test]
    fn b1_gaps_carry_equal_mass() {
        let set = small_set();
        let bp = Breakpoints::b1_with_eps(&set, 0.05).unwrap();
        let tau = 0.05 * set.total_mass();
        // All interior gaps carry exactly τ of global mass.
        let pts = bp.points();
        for w in pts.windows(2).take(pts.len() - 2) {
            let total: f64 = set.objects().iter().map(|o| o.curve.abs_integral(w[0], w[1])).sum();
            assert!(
                approx_eq(total, tau, 1e-6),
                "gap [{}, {}] carries {total}, want {tau}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn b2_has_fewer_breakpoints_than_b1_at_equal_eps() {
        let set = small_set();
        let eps = 0.02;
        let b1 = Breakpoints::b1_with_eps(&set, eps).unwrap();
        let b2 = Breakpoints::b2_with_eps(&set, eps, B2Construction::Efficient).unwrap();
        assert!(b2.len() <= b1.len(), "B2 ({}) must not exceed B1 ({})", b2.len(), b1.len());
        assert_gap_property(&set, &b1);
        assert_gap_property(&set, &b2);
    }

    #[test]
    fn b2_baseline_and_efficient_agree() {
        let set = small_set();
        for &eps in &[0.5, 0.1, 0.03, 0.01, 0.003] {
            let a = Breakpoints::b2_with_eps(&set, eps, B2Construction::Baseline).unwrap();
            let b = Breakpoints::b2_with_eps(&set, eps, B2Construction::Efficient).unwrap();
            assert_eq!(a.len(), b.len(), "eps={eps}");
            for (x, y) in a.points().iter().zip(b.points()) {
                assert!(approx_eq(*x, *y, 1e-9), "eps={eps}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn b2_with_count_hits_target_roughly() {
        let set = small_set();
        for &r in &[6usize, 12, 30] {
            let bp = Breakpoints::b2_with_count(&set, r, B2Construction::Efficient).unwrap();
            let got = bp.len() as i64;
            assert!(
                (got - r as i64).abs() as f64 <= 2.0 + 0.2 * r as f64,
                "requested {r}, got {got}"
            );
            assert_gap_property(&set, &bp);
        }
    }

    /// `fit_count` against a synthetic `count(ε)`, honouring the abort
    /// limit the way a real sweep does. Returns the chosen count, the
    /// stats, and every count the search got to see.
    fn fit_synthetic(
        r: usize,
        lo: f64,
        count: impl Fn(f64) -> usize,
    ) -> (usize, FitStats, Vec<usize>) {
        let mut seen = Vec::new();
        let hi = 1.0 / (r as f64 - 1.0);
        let (eps, points, stats) = fit_count(r, lo, hi, 1.0, |eps, limit| {
            let c = count(eps);
            if c > limit {
                return Ok(Sweep::Aborted { progress: limit as f64 / c as f64 });
            }
            seen.push(c);
            Ok(Sweep::Done(vec![0.0; c]))
        })
        .unwrap();
        assert_eq!(points.len(), count(eps), "the returned points are those of the returned ε");
        assert_eq!(stats.sweeps as usize, seen.len() + stats.aborted as usize);
        (points.len(), stats, seen)
    }

    #[test]
    fn fit_reaches_the_band_on_power_law_counts_within_the_sweep_cap() {
        for &r in &[8usize, 32, 128, 500] {
            for &share in &[1.0, 0.3, 0.02, 5e-4] {
                for &alpha in &[1.0, 0.8, 1.3] {
                    // Gaps between share/ε and 1/ε, as for real data.
                    let k = f64::sqrt(share);
                    let count = |eps: f64| {
                        let gaps = (k / eps.powf(alpha)).clamp(share / eps, 1.0 / eps);
                        gaps.floor().max(1.0) as usize + 1
                    };
                    let lo = share / (r as f64 - 1.0);
                    let (got, stats, seen) = fit_synthetic(r, lo, count);
                    let ctx = format!("r={r} share={share} α={alpha}: {seen:?} {stats:?}");
                    assert!(stats.sweeps <= B2_FIT_MAX_SWEEPS, "{ctx}");
                    assert!(got.abs_diff(r) <= (r / 64).max(1), "{ctx}");
                    // Closest completed trial wins, so the fit lands in the
                    // band whenever any trial did.
                    let closest = seen.iter().map(|c| c.abs_diff(r)).min().unwrap();
                    assert_eq!(got.abs_diff(r), closest, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn fit_gives_up_on_a_count_that_cannot_reach_r() {
        // A count that saturates below r: nothing to find, so stop once two
        // trials on the same side agree instead of spending the budget.
        let (got, stats, seen) =
            fit_synthetic(128, 1e-9, |eps| (0.05 / eps).min(40.0) as usize + 2);
        assert_eq!(got, 42, "{seen:?}");
        assert!(stats.sweeps <= 3, "{stats:?} {seen:?}");
    }

    #[test]
    fn fit_aborts_overshooting_trials_and_still_brackets() {
        // Steep count: the first guess overshoots past r + distance and is
        // abandoned, yet tells the search which way to go.
        let (got, stats, seen) = fit_synthetic(64, 1e-6, |eps| (1e-4 / (eps * eps)) as usize + 2);
        assert!(stats.aborted >= 1, "{stats:?} {seen:?}");
        assert!(stats.sweeps <= B2_FIT_MAX_SWEEPS);
        assert!(got.abs_diff(64) <= 1, "{seen:?}");
    }

    #[test]
    fn degenerate_fits_cost_at_most_three_sweeps() {
        let flat = |pts: &[(f64, f64)]| PiecewiseLinear::from_points(pts).unwrap();
        let zero_mass = TemporalSet::from_curves(vec![flat(&[(0.0, 0.0), (5.0, 0.0)])]).unwrap();
        let one_segment = TemporalSet::from_curves(vec![flat(&[(0.0, 3.0), (8.0, 1.0)])]).unwrap();
        // Three objects, five segments in all, asked for 200 breakpoints.
        let tiny = TemporalSet::from_curves(vec![
            flat(&[(0.0, 1.0), (4.0, 2.0), (9.0, 1.0)]),
            flat(&[(1.0, 0.5), (9.0, 3.0)]),
            flat(&[(0.0, 2.0), (3.0, 0.0), (9.0, 0.2)]),
        ])
        .unwrap();
        for constr in [B2Construction::Baseline, B2Construction::Efficient] {
            let (bp, stats) = Breakpoints::b2_with_count_stats(&zero_mass, 50, constr).unwrap();
            assert_eq!(bp.points(), &[0.0, 5.0]);
            assert_eq!(stats, FitStats { sweeps: 1, aborted: 0 });

            let (bp, stats) = Breakpoints::b2_with_count_stats(&one_segment, 50, constr).unwrap();
            assert!(bp.len().abs_diff(50) <= 1, "{}", bp.len());
            assert_eq!(stats.sweeps, 1);
            assert_gap_property(&one_segment, &bp);

            let (bp, stats) = Breakpoints::b2_with_count_stats(&tiny, 200, constr).unwrap();
            assert!(bp.len().abs_diff(200) <= 3, "{}", bp.len());
            assert!(stats.sweeps <= 3, "{stats:?}");
            assert_gap_property(&tiny, &bp);
        }
    }

    #[test]
    fn b2_eps_smaller_than_b1_at_equal_count() {
        // Fig. 11(a): at the same budget r, B2's ε is much smaller.
        let set = small_set();
        let r = 20;
        let b1 = Breakpoints::b1_with_count(&set, r).unwrap();
        let b2 = Breakpoints::b2_with_count(&set, r, B2Construction::Efficient).unwrap();
        assert!(b2.eps() < b1.eps(), "ε_B2 = {} must be below ε_B1 = {}", b2.eps(), b1.eps());
    }

    #[test]
    fn snapping_is_smallest_breakpoint_geq_t() {
        let set = small_set();
        let bp = Breakpoints::b1_with_count(&set, 10).unwrap();
        let pts = bp.points().to_vec();
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(bp.snap_idx(p), i, "exact hit must snap to itself");
        }
        // Between two breakpoints, snap right.
        let mid = 0.5 * (pts[1] + pts[2]);
        assert_eq!(bp.snap_idx(mid), 2);
        // Clamped at both ends.
        assert_eq!(bp.snap_idx(-1e9), 0);
        assert_eq!(bp.snap_idx(1e9), pts.len() - 1);
        assert_eq!(bp.snap(1e9), *pts.last().unwrap());
    }

    #[test]
    fn endpoints_are_always_present() {
        let set = small_set();
        for bp in [
            Breakpoints::b1_with_eps(&set, 0.3).unwrap(),
            Breakpoints::b2_with_eps(&set, 0.3, B2Construction::Efficient).unwrap(),
        ] {
            assert_eq!(bp.points()[0], set.t_min());
            assert_eq!(*bp.points().last().unwrap(), set.t_max());
            assert!(bp.points().windows(2).all(|w| w[0] < w[1]), "strictly sorted");
        }
    }

    #[test]
    fn negative_scores_use_absolute_mass() {
        let c0 = PiecewiseLinear::from_points(&[(0.0, -4.0), (10.0, 4.0), (20.0, -4.0)]).unwrap();
        let c1 = PiecewiseLinear::from_points(&[(0.0, 1.0), (20.0, 1.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c0, c1]).unwrap();
        assert!(set.has_negative());
        for bp in [
            Breakpoints::b1_with_eps(&set, 0.1).unwrap(),
            Breakpoints::b2_with_eps(&set, 0.1, B2Construction::Efficient).unwrap(),
            Breakpoints::b2_with_eps(&set, 0.1, B2Construction::Baseline).unwrap(),
        ] {
            assert_gap_property(&set, &bp);
            assert!(bp.len() > 3);
        }
    }

    #[test]
    fn zero_mass_set_degenerates_to_endpoints() {
        let c = PiecewiseLinear::from_points(&[(0.0, 0.0), (5.0, 0.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c]).unwrap();
        let bp = Breakpoints::b1_with_eps(&set, 0.1).unwrap();
        assert_eq!(bp.points(), &[0.0, 5.0]);
        let bp = Breakpoints::b2_with_eps(&set, 0.1, B2Construction::Efficient).unwrap();
        assert_eq!(bp.points(), &[0.0, 5.0]);
    }

    #[test]
    fn a_recorded_merge_order_fits_the_same_points() {
        let set = small_set();
        assert!(!set.has_negative());
        let config = crate::IndexConfig::default();
        let (_, order) = crate::Exact3::build_recording_order(&set, config).unwrap();
        let merged: Vec<u32> = set.time_ordered().map(|e| e.unwrap().0).collect();
        assert_eq!(order.objects, merged);
        let (got, stats) =
            Breakpoints::b2_with_count_stats_in_order(order, 8, B2Construction::Efficient).unwrap();
        let (want, want_stats) =
            Breakpoints::b2_with_count_stats(&set, 8, B2Construction::Efficient).unwrap();
        let bits = |bp: &Breakpoints| bp.points().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!((bits(&got), got.eps().to_bits()), (bits(&want), want.eps().to_bits()));
        assert!(stats.sweeps > 1 && stats == want_stats, "{stats:?}");
    }

    #[test]
    fn from_bytes_refuses_tables_no_construction_yields() {
        let set = small_set();
        let good = Breakpoints::b2_with_count(&set, 16, B2Construction::Efficient).unwrap();
        let back = Breakpoints::from_bytes(&good.to_bytes()).unwrap();
        assert_eq!(back.points(), good.points());
        // A table of `r` points with the given ε and M.
        let table = |eps: f64, mass: f64, points: &[f64]| {
            let bp = Breakpoints { kind: BreakpointsKind::B2, points: points.to_vec(), eps, mass };
            bp.to_bytes()
        };
        let fine = table(0.1, 5.0, &[0.0, 1.0]);
        assert!(Breakpoints::from_bytes(&fine).is_ok());
        let blobs = [
            ("r = 0", table(0.1, 5.0, &[])),
            ("r = 1", table(0.1, 5.0, &[0.5])),
            ("NaN ε", table(f64::NAN, 5.0, &[0.0, 1.0])),
            ("ε = 0", table(0.0, 5.0, &[0.0, 1.0])),
            ("ε < 0", table(-0.1, 5.0, &[0.0, 1.0])),
            ("ε = ∞", table(f64::INFINITY, 5.0, &[0.0, 1.0])),
            ("NaN M", table(0.1, f64::NAN, &[0.0, 1.0])),
            ("M = ∞", table(0.1, f64::INFINITY, &[0.0, 1.0])),
            ("M < 0", table(0.1, -1.0, &[0.0, 1.0])),
        ];
        assert_eq!(blobs[0].1.len(), 21);
        for (what, blob) in blobs {
            // An r = 0 table used to decode, and `snap` then panicked on
            // its empty point list.
            match Breakpoints::from_bytes(&blob) {
                Ok(bp) => panic!("{what} accepted; snap(0.0) = {}", bp.snap(0.0)),
                Err(e) => assert!(e.to_string().contains("corrupt"), "{what}: {e}"),
            }
        }
    }

    #[test]
    fn bad_eps_rejected() {
        let set = small_set();
        assert!(Breakpoints::b1_with_eps(&set, 0.0).is_err());
        assert!(Breakpoints::b1_with_eps(&set, -0.1).is_err());
        assert!(Breakpoints::b1_with_eps(&set, f64::NAN).is_err());
        assert!(Breakpoints::b1_with_count(&set, 1).is_err());
        assert!(Breakpoints::b2_with_count(&set, 0, B2Construction::Efficient).is_err());
    }

    #[test]
    fn single_long_segment_spawns_multiple_breakpoints() {
        // One object, one segment carrying all the mass: B2 must cut it
        // repeatedly (the multiple-crossings-per-segment path).
        let c = PiecewiseLinear::from_points(&[(0.0, 10.0), (100.0, 10.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c]).unwrap();
        for constr in [B2Construction::Baseline, B2Construction::Efficient] {
            let bp = Breakpoints::b2_with_eps(&set, 0.1, constr).unwrap();
            // mass 1000, τ = 100 → cuts every 10 time units: 11 points.
            assert_eq!(bp.len(), 11, "{constr:?}: {:?}", bp.points());
            assert_gap_property(&set, &bp);
        }
    }
}
