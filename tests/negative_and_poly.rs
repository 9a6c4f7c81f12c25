//! Integration tests for the paper's §4 extensions: exact answers on
//! negative scores, and piecewise-polynomial data. The approximate bound on
//! signed data and instant top-k are checked in `tests/paper_claims.rs`.

use chronorank::core::{AggKind, Exact1, Exact2, Exact3, IndexConfig, RankMethod};
use chronorank::curve::{PiecewisePoly, PolySegment};
use chronorank::workloads::{DatasetGenerator, RandomWalkConfig, RandomWalkGenerator};

#[test]
fn negative_scores_exact_methods_agree() {
    let set = RandomWalkGenerator::new(RandomWalkConfig {
        objects: 60,
        segments: 80,
        volatility: 2.0,
        allow_negative: true,
        seed: 21,
    })
    .generate_set();
    assert!(set.has_negative(), "the fixture must actually cross zero");
    let e1 = Exact1::build(&set, IndexConfig::default()).unwrap();
    let e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
    let e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    for &(a, b) in &[(0.0, 80.0), (10.0, 30.0), (55.5, 71.25), (0.0, 5.0)] {
        let want = set.top_k_bruteforce(a, b, 8);
        for m in [&e1 as &dyn RankMethod, &e2, &e3] {
            let got = m.top_k(a, b, 8, AggKind::Sum).unwrap();
            for j in 0..want.len() {
                let (ws, gs) = (want.rank(j).1, got.rank(j).1);
                assert!(
                    (ws - gs).abs() <= 1e-7 * (1.0 + ws.abs()),
                    "{} [{a},{b}] rank {j}: {ws} vs {gs}",
                    m.name()
                );
            }
        }
    }
}

/// §4 "General time series with arbitrary functions": the methods carry
/// over to piecewise polynomials because only σ_i(I) changes. We verify the
/// curve-level machinery: polynomial prefix sums reproduce direct
/// integration, and ranking by polynomial integrals matches ranking the
/// PWL approximation of the same curves as the segment budget grows.
#[test]
fn polynomial_prefix_sum_ranking() {
    // Three quadratic-ish objects on [0, 10].
    let mk = |coeffs: Vec<Vec<f64>>| {
        let segs: Vec<PolySegment> = coeffs
            .into_iter()
            .enumerate()
            .map(|(i, c)| PolySegment::new(i as f64 * 2.0, (i as f64 + 1.0) * 2.0, c).unwrap())
            .collect();
        PiecewisePoly::new(segs).unwrap()
    };
    let objs = vec![
        mk(vec![vec![1.0], vec![1.0, 1.0], vec![3.0], vec![3.0, -1.0], vec![1.0]]),
        mk(vec![vec![0.0, 0.0, 1.0], vec![4.0, -2.0], vec![0.0], vec![0.5], vec![5.0]]),
        mk(vec![vec![2.0], vec![2.0], vec![2.0], vec![2.0], vec![2.0]]),
    ];
    // Rank by σ over [1.5, 8.5] via prefix sums (Eq. (2) for polynomials).
    let score = |p: &PiecewisePoly, a: f64, b: f64| p.integral(a, b);
    let mut ranked: Vec<(usize, f64)> =
        objs.iter().enumerate().map(|(i, p)| (i, score(p, 1.5, 8.5))).collect();
    ranked.sort_by(|x, y| y.1.total_cmp(&x.1));
    // Direct check against hand-computed integrals: o2 is constant 2 →
    // σ = 14; o0: segments give piecewise areas...
    let direct: Vec<f64> = objs.iter().map(|p| score(p, 1.5, 8.5)).collect();
    assert!((direct[2] - 14.0).abs() < 1e-9);
    // Prefix-sum identity for every object.
    for p in &objs {
        let prefix = p.prefix_sums();
        let total: f64 = p.integral(p.start(), p.end());
        assert!((prefix.last().unwrap() - total).abs() < 1e-9);
    }
    // The PWL approximation of the polynomial data converges to the same
    // ranking as segments increase (the paper's "use more line segments"
    // remark).
    let mut errors = Vec::new();
    for &budget in &[8usize, 32, 128] {
        let as_pwl: Vec<chronorank::curve::PiecewiseLinear> = objs
            .iter()
            .map(|p| {
                let samples: Vec<(f64, f64)> = (0..=budget)
                    .map(|i| {
                        let t = p.start() + (p.end() - p.start()) * i as f64 / budget as f64;
                        (t, p.eval(t).unwrap())
                    })
                    .collect();
                chronorank::curve::PiecewiseLinear::from_points(&samples).unwrap()
            })
            .collect();
        let approx: Vec<f64> = as_pwl.iter().map(|c| c.integral(1.5, 8.5)).collect();
        let max_err = direct.iter().zip(&approx).map(|(d, a)| (d - a).abs()).fold(0.0, f64::max);
        errors.push(max_err);
        if budget >= 128 {
            assert!(max_err < 0.1, "128-segment PWL should track polynomials, err {max_err}");
            let mut approx_rank: Vec<usize> = (0..3).collect();
            approx_rank.sort_by(|&x, &y| approx[y].total_cmp(&approx[x]));
            let want_rank: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
            assert_eq!(approx_rank, want_rank, "converged ranking must agree");
        }
    }
    assert!(errors[2] < errors[0], "error must shrink as the segment budget grows: {errors:?}");
}
