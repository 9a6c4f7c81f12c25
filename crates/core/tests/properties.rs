//! Property-based tests for the ranking methods: on arbitrary generated
//! temporal sets, the exact methods must equal brute force, the
//! breakpoint constructions must satisfy their invariants, and the
//! approximate methods must satisfy Definition 2.

use chronorank_core::{
    b2_streaming, scan_stats, AggKind, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction,
    Breakpoints, Exact1, Exact2, Exact3, IndexConfig, RankMethod, TemporalSet,
};
use chronorank_curve::PiecewiseLinear;
use chronorank_storage::{Env, StoreConfig};
use proptest::prelude::*;

/// An arbitrary temporal set: 2..=8 objects, ragged domains, values that
/// may include negatives when `allow_negative` is set.
fn arb_set(allow_negative: bool) -> impl Strategy<Value = TemporalSet> {
    let lo = if allow_negative { -10.0 } else { 0.0 };
    proptest::collection::vec(
        (
            2usize..14,   // points per curve
            0.0f64..40.0, // start offset
            0.2f64..8.0,  // step scale
            proptest::collection::vec(lo..10.0f64, 14),
        ),
        2..=8,
    )
    .prop_map(move |specs| {
        let curves: Vec<PiecewiseLinear> = specs
            .into_iter()
            .map(|(n, start, step, values)| {
                let pts: Vec<(f64, f64)> = (0..n.max(2))
                    .map(|i| (start + i as f64 * step, values[i % values.len()]))
                    .collect();
                PiecewiseLinear::from_points(&pts).expect("valid curve")
            })
            .collect();
        TemporalSet::from_curves(curves).expect("valid set")
    })
}

/// Many short-lived objects with staggered lifespans and mixed signs (the
/// Meme shape): 6..=40 objects of 1..=6 segments each, starting anywhere in
/// a domain far longer than any one of them lives.
fn arb_staggered_set() -> impl Strategy<Value = TemporalSet> {
    proptest::collection::vec(
        (
            2usize..8,     // points per curve
            0.0f64..200.0, // start
            0.1f64..3.0,   // step
            proptest::collection::vec(-6.0..10.0f64, 8),
        ),
        6..=40,
    )
    .prop_map(|specs| {
        let curves: Vec<PiecewiseLinear> = specs
            .into_iter()
            .map(|(n, start, step, values)| {
                let pts: Vec<(f64, f64)> =
                    (0..n).map(|i| (start + i as f64 * step, values[i])).collect();
                PiecewiseLinear::from_points(&pts).expect("valid curve")
            })
            .collect();
        TemporalSet::from_curves(curves).expect("valid set")
    })
}

/// A query interval loosely around the generated sets' domains.
fn arb_query() -> impl Strategy<Value = (f64, f64, usize)> {
    (-10.0f64..160.0, 0.0f64..120.0, 1usize..6).prop_map(|(a, len, k)| (a, a + len, k))
}

fn scores_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three exact methods reproduce brute force rank-for-rank (score
    /// equality; id ties may permute).
    #[test]
    fn exact_methods_equal_bruteforce(set in arb_set(false), (t1, t2, k) in arb_query()) {
        let want = set.top_k_bruteforce(t1, t2, k);
        let e1 = Exact1::build(&set, IndexConfig::default()).unwrap();
        let e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
        let e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
        for (m, name) in [(&e1 as &dyn RankMethod, "E1"), (&e2, "E2"), (&e3, "E3")] {
            let got = m.top_k(t1, t2, k, AggKind::Sum).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for j in 0..want.len() {
                prop_assert!(
                    scores_close(want.rank(j).1, got.rank(j).1),
                    "{} rank {}: want {} got {}", name, j, want.rank(j).1, got.rank(j).1
                );
            }
        }
    }

    /// Negative scores: exact methods still equal brute force (§4).
    #[test]
    fn exact_methods_handle_negatives(set in arb_set(true), (t1, t2, k) in arb_query()) {
        let want = set.top_k_bruteforce(t1, t2, k);
        let e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
        let got = e3.top_k(t1, t2, k, AggKind::Sum).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for j in 0..want.len() {
            prop_assert!(scores_close(want.rank(j).1, got.rank(j).1), "rank {}", j);
        }
    }

    /// Breakpoint gap invariant: no object accumulates more than εM of
    /// absolute mass between consecutive breakpoints (B2), and the global
    /// sum respects εM (B1). This is the precondition of Lemma 2.
    #[test]
    fn breakpoint_gap_invariants(set in arb_set(true), eps in 0.01f64..0.5) {
        let tau = eps * set.total_mass();
        if tau <= 0.0 { return Ok(()); }
        let slack = tau * (1.0 + 1e-6) + 1e-9;
        let b1 = Breakpoints::b1_with_eps(&set, eps).unwrap();
        for w in b1.points().windows(2) {
            let total: f64 = set.objects().iter().map(|o| o.curve.abs_integral(w[0], w[1])).sum();
            prop_assert!(total <= slack, "B1 gap [{}, {}] = {}", w[0], w[1], total);
        }
        let b2 = Breakpoints::b2_with_eps(&set, eps, B2Construction::Efficient).unwrap();
        for w in b2.points().windows(2) {
            for o in set.objects() {
                let s = o.curve.abs_integral(w[0], w[1]);
                prop_assert!(s <= slack, "B2 gap [{}, {}] obj {} = {}", w[0], w[1], o.id, s);
            }
        }
        prop_assert!(b2.len() <= b1.len() + 1, "B2 ({}) > B1 ({})", b2.len(), b1.len());
    }

    /// The two BREAKPOINTS2 constructions are equivalent on arbitrary data.
    #[test]
    fn b2_constructions_agree(set in arb_set(true), eps in 0.02f64..0.5) {
        let a = Breakpoints::b2_with_eps(&set, eps, B2Construction::Baseline).unwrap();
        let b = Breakpoints::b2_with_eps(&set, eps, B2Construction::Efficient).unwrap();
        prop_assert_eq!(a.len(), b.len(), "counts differ");
        for (x, y) in a.points().iter().zip(b.points()) {
            prop_assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()), "{} vs {}", x, y);
        }
    }

    /// One segment per object is all the sweep needs: on staggered,
    /// mixed-sign sets both constructions and the streamed sweep emit the
    /// same points, the sweep never holds more than `m` segments, and every
    /// gap keeps `max_i ∫|g_i| ≤ τ` by an oracle that shares no code with
    /// the sweep (`PiecewiseLinear::abs_integral` over the raw curves).
    #[test]
    fn b2_one_segment_per_object_suffices(set in arb_staggered_set(), eps in 0.002f64..0.3) {
        let efficient = Breakpoints::b2_with_eps(&set, eps, B2Construction::Efficient).unwrap();
        let baseline = Breakpoints::b2_with_eps(&set, eps, B2Construction::Baseline).unwrap();
        prop_assert_eq!(efficient.points(), baseline.points());
        let stats = scan_stats(set.objects());
        let env = Env::mem(StoreConfig { block_size: 256, pool_capacity: 8 });
        let streamed =
            b2_streaming(&env, set.objects(), &stats, eps, B2Construction::Efficient, 16 * 36)
                .unwrap();
        prop_assert_eq!(streamed.breakpoints.points(), efficient.points());
        prop_assert!(streamed.peak_pending_segments <= set.num_objects() as u64);
        let tau = eps * set.total_mass();
        for w in efficient.points().windows(2) {
            for o in set.objects() {
                let s = o.curve.abs_integral(w[0], w[1]);
                prop_assert!(
                    s <= tau * (1.0 + 1e-9),
                    "gap [{}, {}] obj {}: {} > τ = {}", w[0], w[1], o.id, s, tau
                );
            }
        }
    }

    /// APPX1 satisfies the (ε,1) guarantee of Definition 2 on arbitrary
    /// inputs; APPX2 satisfies (ε, 2 log r).
    #[test]
    fn approx_guarantees_hold(set in arb_set(false), (t1, t2, k) in arb_query()) {
        let cfg = ApproxConfig { r: 12, kmax: 6, ..Default::default() };
        let k = k.min(cfg.kmax);
        let exact = set.top_k_bruteforce(t1, t2, k);
        for variant in [ApproxVariant::APPX1, ApproxVariant::APPX2] {
            let idx = ApproxIndex::build(&set, variant, cfg).unwrap();
            let em = idx.breakpoints().eps() * idx.breakpoints().mass();
            let alpha = match variant.query {
                chronorank_core::QueryKind::Q1 => 1.0,
                chronorank_core::QueryKind::Q2 =>
                    2.0 * (idx.breakpoints().len() as f64).log2().max(1.0),
            };
            let approx = idx.top_k(t1, t2, k, AggKind::Sum).unwrap();
            for j in 0..approx.len().min(exact.len()) {
                let sa = approx.rank(j).1;
                let se = exact.rank(j).1;
                let slack = 1e-7 * (1.0 + se.abs()) + 1e-9;
                prop_assert!(
                    sa >= se / alpha - em - slack && sa <= se + em + slack,
                    "{} rank {}: approx {} exact {} eps*M {} alpha {}",
                    variant.name(), j, sa, se, em, alpha
                );
            }
        }
    }

    /// Snapping: B(t) is the smallest breakpoint ≥ t for interior t.
    #[test]
    fn snap_is_successor(set in arb_set(false), frac in 0.0f64..1.0) {
        let bp = Breakpoints::b1_with_eps(&set, 0.1).unwrap();
        let t = set.t_min() + frac * set.span();
        let s = bp.snap(t);
        prop_assert!(s >= t || (t - s).abs() < 1e-12 || bp.snap_idx(t) == bp.len() - 1);
        // No breakpoint in (t, s).
        for &b in bp.points() {
            prop_assert!(!(b >= t && b < s), "breakpoint {} inside ({}, {})", b, t, s);
        }
    }
}
