//! Streaming (external-memory) BREAKPOINTS2 construction for paper-scale
//! builds.
//!
//! The in-memory sweep in [`crate::breakpoints`] needs every curve resident
//! so it can re-base running integrals against arbitrary past breakpoints.
//! At the paper's Meme scale (`m ≈ 1.5·10⁶` objects, `N ≈ 10⁸` segments)
//! that is ruled out, so this module reruns the *same* sweep against an
//! externally sorted segment stream:
//!
//! 1. [`scan_stats`] makes one pass over the generator to obtain the exact
//!    quantities [`crate::TemporalSet`] would report (`M`, `t_min`, `t_max`,
//!    …) — same accumulation order, bit-identical values, so the threshold
//!    `τ = εM` matches the in-memory construction exactly;
//! 2. [`b2_streaming`] pushes every `|g_i|` segment through an
//!    [`ExternalSorter`] under an explicit byte budget and replays the
//!    §3.1 efficient sweep over the sorted run merge. Per object it keeps
//!    only the *active window* — the segments consumed since the object was
//!    last re-based that still end after the current breakpoint — in a
//!    `pending` buffer. Every integral/crossing query the sweep performs
//!    (`σ_i(b*, frontier)` at commits, crossing searches for dangerous
//!    objects) touches only that window, so peak memory is `O(m)` state
//!    plus the segments of one breakpoint gap, never the `N`-segment
//!    dataset.
//!
//! The pending-window walks mirror [`chronorank_curve::PiecewiseLinear`]'s
//! `integral`/`time_to_accumulate` term by term (same per-segment clipped
//! trapezoids, same accumulation order); trimmed segments would contribute
//! exactly `+0.0`, so the streaming sweep emits the same breakpoints as
//! `Breakpoints::b2_with_eps` up to ulp-level ties (the property tests in
//! this module assert equality on mixed-sign inputs).

use crate::breakpoints::{abs_curve, check_eps, B2Construction, Breakpoints, BreakpointsKind};
use crate::error::Result;
use crate::object::TemporalObject;
use chronorank_curve::Segment;
use chronorank_index::ExternalSorter;
use chronorank_storage::Env;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dataset statistics gathered by [`scan_stats`] — the streaming stand-in
/// for the fields [`crate::TemporalSet`] precomputes, accumulated in the
/// same object order with the same operations so that thresholds derived
/// from them (`τ = εM`) are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Number of objects `m`.
    pub num_objects: usize,
    /// Total number of segments `N`.
    pub num_segments: u64,
    /// Left edge of the global time domain.
    pub t_min: f64,
    /// Right edge of the global time domain (`T`).
    pub t_max: f64,
    /// Total absolute mass `M = Σ_i ∫|g_i|`.
    pub total_mass: f64,
    /// Whether any curve dips below zero (§4 negative scores).
    pub has_negative: bool,
    /// Longest single segment duration (EXACT1's scan-back bound `Δmax`).
    pub max_segment_duration: f64,
}

/// One streaming pass over a generator, computing [`StreamStats`] exactly
/// as `TemporalSet::recompute_stats` would (same order, same operations).
pub fn scan_stats<I>(objects: I) -> StreamStats
where
    I: IntoIterator<Item = TemporalObject>,
{
    let mut s = StreamStats {
        num_objects: 0,
        num_segments: 0,
        t_min: f64::INFINITY,
        t_max: f64::NEG_INFINITY,
        total_mass: 0.0,
        has_negative: false,
        max_segment_duration: 0.0,
    };
    for o in objects {
        let c = &o.curve;
        s.t_min = s.t_min.min(c.start());
        s.t_max = s.t_max.max(c.end());
        s.num_segments += c.num_segments() as u64;
        s.total_mass += c.total_abs();
        s.has_negative |= c.min_value() < 0.0;
        s.max_segment_duration = s.max_segment_duration.max(c.max_segment_duration());
        s.num_objects += 1;
    }
    s
}

/// Result of a streaming BREAKPOINTS2 construction.
#[derive(Debug)]
pub struct StreamedB2 {
    /// The constructed breakpoint set (same points as the in-memory sweep).
    pub breakpoints: Breakpoints,
    /// High-water mark of retained segments across all pending windows —
    /// the sweep's actual working set, reported by `paper_bench paperscale`
    /// as part of the resource envelope.
    pub peak_pending_segments: u64,
}

/// External-sort record: `t0 | obj | t1 | v0 | v1` (little-endian), keyed
/// by the segment's left endpoint — the order the paper's queue `Q`
/// consumes.
const B2_REC_LEN: usize = 8 + 4 + 8 + 8 + 8;

fn encode_b2(rec: &mut [u8; B2_REC_LEN], obj: u32, seg: &Segment) {
    rec[0..8].copy_from_slice(&seg.t0.to_le_bytes());
    rec[8..12].copy_from_slice(&obj.to_le_bytes());
    rec[12..20].copy_from_slice(&seg.t1.to_le_bytes());
    rec[20..28].copy_from_slice(&seg.v0.to_le_bytes());
    rec[28..36].copy_from_slice(&seg.v1.to_le_bytes());
}

fn decode_b2(rec: &[u8; B2_REC_LEN]) -> (u32, Segment) {
    let f = |at: usize| f64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
    let obj = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
    (obj, Segment::new(f(0), f(20), f(12), f(28)))
}

/// Total-ordered f64 for heap keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-object sweep state plus the retained active window.
struct StreamObj {
    /// Running integral since the object's last re-base (see `ObjState`).
    integral: f64,
    /// Time up to which this object's segments have been consumed.
    frontier: f64,
    /// Breakpoint index at which `integral` was last re-based.
    epoch: usize,
    /// Whether a crossing candidate is queued.
    dangerous: bool,
    /// Lazy-invalidated generation for heap entries.
    generation: u64,
    /// Consumed segments still ending after the current breakpoint — the
    /// only part of the curve the sweep can still ask about.
    pending: Vec<Segment>,
}

/// Mirror of `PiecewiseLinear::integral(a, b)` over a retained suffix of
/// the curve. Segments wholly behind `a` contribute the same `+0.0` the
/// full walk's `locate` skip produces, so trimming them is bit-neutral.
fn pending_integral(pending: &[Segment], a: f64, b: f64) -> f64 {
    if b <= a {
        return 0.0;
    }
    let mut acc = 0.0;
    for seg in pending {
        if seg.t0 >= b {
            break;
        }
        acc += seg.integral_clipped(a, b);
    }
    acc
}

/// Mirror of `PiecewiseLinear::time_to_accumulate(from, target)` over a
/// retained suffix (same per-segment availability terms, same subtraction
/// order). Only called when the retained mass past `from` reaches
/// `target`, so staying within the window loses nothing.
fn pending_time_to_accumulate(pending: &[Segment], from: f64, target: f64) -> Option<f64> {
    debug_assert!(target > 0.0);
    let mut need = target;
    for seg in pending {
        let lo = from.max(seg.t0);
        let available = seg.integral_clipped(lo, seg.t1);
        if available >= need {
            return seg.time_to_accumulate(lo, need);
        }
        need -= available;
    }
    None
}

/// Drop pending segments that end at or before `b`: every future query
/// uses a left bound ≥ `b` (breakpoints only advance), so they can only
/// ever contribute an exact `0.0` again.
fn trim(s: &mut StreamObj, b: f64, live: &mut u64) {
    let before = s.pending.len();
    s.pending.retain(|seg| seg.t1 > b);
    *live -= (before - s.pending.len()) as u64;
}

/// Streaming BREAKPOINTS2 (§3.1) over an object stream: externally sorts
/// all `|g_i|` segments by left endpoint under `sort_budget_bytes`, then
/// replays the efficient sweep holding only per-object active windows.
/// Produces the same breakpoints as [`Breakpoints::b2_with_eps`] on the
/// materialized set (`stats` must come from [`scan_stats`] over the same
/// stream).
pub fn b2_streaming<I>(
    env: &Env,
    objects: I,
    stats: &StreamStats,
    eps: f64,
    construction: B2Construction,
    sort_budget_bytes: u64,
) -> Result<StreamedB2>
where
    I: IntoIterator<Item = TemporalObject>,
{
    check_eps(eps)?;
    let tau = eps * stats.total_mass;
    let (t_min, t_max) = (stats.t_min, stats.t_max);
    let mut points = vec![t_min];
    if tau <= 0.0 || stats.total_mass <= 0.0 {
        points.push(t_max);
        return Ok(StreamedB2 {
            breakpoints: Breakpoints::from_sweep(
                BreakpointsKind::B2,
                points,
                eps,
                stats.total_mass,
            ),
            peak_pending_segments: 0,
        });
    }

    // Externally sort all |g| segments by t0 (the paper's queue Q). Pushed
    // object-major in id order, so equal-t0 ties merge back in the same
    // order the in-memory stable sort produces.
    let sort_file = env.create_file("b2_stream_sort")?;
    let mut sorter =
        ExternalSorter::with_byte_budget(sort_file, B2_REC_LEN, sort_budget_bytes, |rec| {
            f64::from_le_bytes(rec[..8].try_into().expect("8 bytes"))
        })?;
    let mut rec = [0u8; B2_REC_LEN];
    for o in objects {
        if stats.has_negative {
            // §4 negative scores: sweep |g| — same global rule as the
            // in-memory AbsCurves (all curves pass through abs_curve).
            let ac = abs_curve(&o.curve)?;
            for seg in ac.segments() {
                encode_b2(&mut rec, o.id, &seg);
                sorter.push(&rec)?;
            }
        } else {
            for seg in o.curve.segments() {
                encode_b2(&mut rec, o.id, &seg);
                sorter.push(&rec)?;
            }
        }
    }
    let mut stream = sorter.finish()?;

    let m = stats.num_objects;
    let mut st: Vec<StreamObj> = (0..m)
        .map(|_| StreamObj {
            integral: 0.0,
            // NEG_INFINITY stands in for the (unknown) curve start: both
            // make every pre-consumption re-base take the `0.0` branch.
            frontier: f64::NEG_INFINITY,
            epoch: 0,
            dangerous: false,
            generation: 0,
            pending: Vec::new(),
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<(OrdF64, u32, u64)>> = BinaryHeap::new();
    let mut b_cur = t_min;
    let mut live_pending = 0u64;
    let mut peak_pending = 0u64;

    macro_rules! pop_valid {
        () => {{
            let mut found = None;
            while let Some(&Reverse((OrdF64(t), obj, gen))) = heap.peek() {
                let o = obj as usize;
                if st[o].dangerous && st[o].generation == gen {
                    found = Some((t, obj));
                    break;
                }
                heap.pop();
            }
            found
        }};
    }

    let rebase_all = construction == B2Construction::Baseline;
    let commit = |b_star: f64,
                  st: &mut Vec<StreamObj>,
                  heap: &mut BinaryHeap<Reverse<(OrdF64, u32, u64)>>,
                  points: &mut Vec<f64>,
                  b_cur: &mut f64,
                  live_pending: &mut u64| {
        points.push(b_star);
        *b_cur = b_star;
        let epoch = points.len() - 1;
        for (i, s) in st.iter_mut().enumerate() {
            if !rebase_all && !s.dangerous {
                continue;
            }
            s.integral = if s.frontier > b_star {
                pending_integral(&s.pending, b_star, s.frontier)
            } else {
                0.0
            };
            s.epoch = epoch;
            s.generation += 1;
            s.dangerous = false;
            if s.integral >= tau {
                if let Some(t_star) = pending_time_to_accumulate(&s.pending, b_star, tau) {
                    s.dangerous = true;
                    heap.push(Reverse((OrdF64(t_star), i as u32, s.generation)));
                }
            }
            trim(s, b_star, live_pending);
        }
    };

    while stream.next_into(&mut rec)? {
        let (obj, seg) = decode_b2(&rec);
        let t_l = seg.t0;
        loop {
            match pop_valid!() {
                Some((b_star, _)) if t_l > b_star => {
                    commit(b_star, &mut st, &mut heap, &mut points, &mut b_cur, &mut live_pending);
                }
                _ => break,
            }
        }
        let o = obj as usize;
        if st[o].epoch != points.len() - 1 {
            st[o].integral = if st[o].frontier > b_cur {
                pending_integral(&st[o].pending, b_cur, st[o].frontier)
            } else {
                0.0
            };
            st[o].epoch = points.len() - 1;
            debug_assert!(
                st[o].integral < tau * (1.0 + 1e-9) + 1e-12 || st[o].dangerous,
                "lazy rebase found an unnoticed crossing"
            );
        }
        trim(&mut st[o], b_cur, &mut live_pending);
        let from = seg.t0.max(b_cur);
        let add = if from < seg.t1 { seg.integral_clipped(from, seg.t1) } else { 0.0 };
        if !st[o].dangerous && st[o].integral < tau && st[o].integral + add >= tau {
            if let Some(t_star) = seg.time_to_accumulate(from, tau - st[o].integral) {
                st[o].dangerous = true;
                st[o].generation += 1;
                heap.push(Reverse((OrdF64(t_star), obj, st[o].generation)));
            }
        }
        st[o].integral += add;
        st[o].frontier = seg.t1;
        st[o].pending.push(seg);
        live_pending += 1;
        peak_pending = peak_pending.max(live_pending);
    }
    while let Some((b_star, _)) = pop_valid!() {
        if b_star >= t_max {
            break;
        }
        commit(b_star, &mut st, &mut heap, &mut points, &mut b_cur, &mut live_pending);
    }
    if *points.last().expect("non-empty") < t_max {
        points.push(t_max);
    }
    Ok(StreamedB2 {
        breakpoints: Breakpoints::from_sweep(BreakpointsKind::B2, points, eps, stats.total_mass),
        peak_pending_segments: peak_pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::TemporalSet;
    use crate::test_support::small_set;
    use chronorank_curve::PiecewiseLinear;
    use chronorank_storage::{Env, StoreConfig};

    fn stream_env() -> Env {
        Env::mem(StoreConfig { block_size: 256, pool_capacity: 16 })
    }

    fn assert_streaming_matches(set: &TemporalSet, eps: f64, construction: B2Construction) {
        let expect = Breakpoints::b2_with_eps(set, eps, construction).unwrap();
        let stats = scan_stats(set.objects().iter().cloned());
        let got = b2_streaming(
            &stream_env(),
            set.objects().iter().cloned(),
            &stats,
            eps,
            construction,
            // Tiny budget: force multi-run external merges.
            4 * B2_REC_LEN as u64 * 16,
        )
        .unwrap();
        assert_eq!(
            got.breakpoints.points(),
            expect.points(),
            "eps={eps} {construction:?}: streaming and in-memory sweeps diverged"
        );
        assert_eq!(got.breakpoints.eps(), expect.eps());
        assert_eq!(got.breakpoints.mass(), expect.mass());
    }

    #[test]
    fn stats_match_materialized_set() {
        let set = small_set();
        let s = scan_stats(set.objects().iter().cloned());
        assert_eq!(s.num_objects, set.num_objects());
        assert_eq!(s.num_segments, set.num_segments());
        assert_eq!(s.t_min, set.t_min());
        assert_eq!(s.t_max, set.t_max());
        assert_eq!(s.total_mass.to_bits(), set.total_mass().to_bits(), "M must be bit-identical");
        assert_eq!(s.has_negative, set.has_negative());
        assert_eq!(s.max_segment_duration, set.max_segment_duration());
    }

    #[test]
    fn streaming_matches_in_memory_sweep() {
        let set = small_set();
        for &eps in &[0.5, 0.1, 0.03, 0.01, 0.003] {
            assert_streaming_matches(&set, eps, B2Construction::Efficient);
            assert_streaming_matches(&set, eps, B2Construction::Baseline);
        }
    }

    #[test]
    fn streaming_matches_on_negative_scores() {
        let c0 = PiecewiseLinear::from_points(&[(0.0, -4.0), (10.0, 4.0), (20.0, -4.0)]).unwrap();
        let c1 = PiecewiseLinear::from_points(&[(0.0, 1.0), (20.0, 1.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c0, c1]).unwrap();
        assert!(set.has_negative());
        for &eps in &[0.3, 0.1, 0.02] {
            assert_streaming_matches(&set, eps, B2Construction::Efficient);
        }
    }

    #[test]
    fn streaming_handles_multi_crossing_segments() {
        // One long flat segment the sweep must cut repeatedly from the
        // dangerous-object heap (pending window = a single segment).
        let c = PiecewiseLinear::from_points(&[(0.0, 10.0), (100.0, 10.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c]).unwrap();
        assert_streaming_matches(&set, 0.1, B2Construction::Efficient);
    }

    #[test]
    fn streaming_degenerates_like_in_memory() {
        let c = PiecewiseLinear::from_points(&[(0.0, 0.0), (5.0, 0.0)]).unwrap();
        let set = TemporalSet::from_curves(vec![c]).unwrap();
        assert_streaming_matches(&set, 0.1, B2Construction::Efficient);
    }

    #[test]
    fn streaming_method_builds_answer_identically() {
        use crate::agg::AggKind;
        use crate::appx::{ApproxConfig, ApproxIndex, ApproxVariant};
        use crate::exact1::Exact1;
        use crate::exact3::Exact3;
        use crate::topk::RankMethod;
        use crate::IndexConfig;

        let set = small_set();
        let budget = 1u64 << 14;
        let objs = || set.objects().iter().cloned();

        let e1_mem = Exact1::build(&set, IndexConfig::default()).unwrap();
        let e1_str =
            Exact1::build_streaming(Env::mem(StoreConfig::default()), objs(), budget).unwrap();
        let e3_mem = Exact3::build(&set, IndexConfig::default()).unwrap();
        let e3_str = Exact3::build_streaming(
            Env::mem(StoreConfig::default()),
            StoreConfig::default(),
            objs(),
            budget,
        )
        .unwrap();
        let bp = Breakpoints::b2_with_eps(&set, 0.05, B2Construction::Efficient).unwrap();
        let cfg = ApproxConfig { kmax: 4, ..Default::default() };
        let mut pairs: Vec<(Box<dyn RankMethod>, Box<dyn RankMethod>)> =
            vec![(Box::new(e1_mem), Box::new(e1_str)), (Box::new(e3_mem), Box::new(e3_str))];
        for v in [ApproxVariant::APPX1, ApproxVariant::APPX2, ApproxVariant::APPX2_PLUS] {
            let mem = ApproxIndex::build_with_breakpoints(
                Env::mem(StoreConfig::default()),
                &set,
                v,
                cfg,
                bp.clone(),
            )
            .unwrap();
            let str = ApproxIndex::build_streaming(
                Env::mem(StoreConfig::default()),
                objs(),
                v,
                cfg,
                bp.clone(),
            )
            .unwrap();
            pairs.push((Box::new(mem), Box::new(str)));
        }
        for (mem, str) in &pairs {
            for &(a, b) in crate::test_support::INTERVALS {
                let want = mem.top_k(a, b, 3, AggKind::Sum).unwrap();
                let got = str.top_k(a, b, 3, AggKind::Sum).unwrap();
                assert_eq!(want.ids(), got.ids(), "{} [{a},{b}] ids", mem.name());
                for (x, y) in want.scores().iter().zip(got.scores()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} [{a},{b}] scores", mem.name());
                }
            }
        }
    }

    #[test]
    fn pending_window_stays_below_dataset() {
        // The whole point: at small eps the sweep never retains more than a
        // gap's worth of segments (plus one in flight per object).
        let set = small_set();
        let stats = scan_stats(set.objects().iter().cloned());
        let got = b2_streaming(
            &stream_env(),
            set.objects().iter().cloned(),
            &stats,
            0.01,
            B2Construction::Efficient,
            1 << 16,
        )
        .unwrap();
        assert!(got.peak_pending_segments > 0);
        assert!(
            got.peak_pending_segments < stats.num_segments,
            "peak window {} must undercut N = {}",
            got.peak_pending_segments,
            stats.num_segments
        );
    }
}
