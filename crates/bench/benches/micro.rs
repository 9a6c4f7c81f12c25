//! Criterion micro-benchmarks for the hot kernels every paper method is
//! built from, plus end-to-end query benchmarks per method (one bench
//! group per paper table/figure family; the full parameter sweeps live in
//! the `paper-bench` binary).

use chronorank_bench::{meme_dataset, temp_dataset};
use chronorank_core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction, Breakpoints, Exact1, Exact2,
    Exact3, IndexConfig, RankMethod,
};
use chronorank_curve::{PiecewiseLinear, Segment};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn curve_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("curve");
    let seg = Segment::new(0.0, 2.0, 10.0, 6.0);
    g.bench_function("segment_integral_clipped", |b| {
        b.iter(|| black_box(seg.integral_clipped(black_box(2.5), black_box(8.5))))
    });
    let pts: Vec<(f64, f64)> =
        (0..1000).map(|i| (i as f64, 5.0 + (i as f64 * 0.1).sin())).collect();
    let curve = PiecewiseLinear::from_points(&pts).unwrap();
    g.bench_function("pwl_integral_1k_segments", |b| {
        b.iter(|| black_box(curve.integral(black_box(100.3), black_box(800.7))))
    });
    let prefix = curve.prefix_sums();
    g.bench_function("pwl_integral_prefix_1k_segments", |b| {
        b.iter(|| black_box(curve.integral_prefix(&prefix, black_box(100.3), black_box(800.7))))
    });
    g.finish();
}

fn breakpoint_construction(c: &mut Criterion) {
    let set = temp_dataset(100, 100, 1);
    let mut g = c.benchmark_group("breakpoints");
    g.sample_size(10);
    g.bench_function("b1_eps_0.01", |b| {
        b.iter(|| black_box(Breakpoints::b1_with_eps(&set, 0.01).unwrap()))
    });
    g.bench_function("b2_baseline_eps_0.01", |b| {
        b.iter(|| {
            black_box(Breakpoints::b2_with_eps(&set, 0.01, B2Construction::Baseline).unwrap())
        })
    });
    g.bench_function("b2_efficient_eps_0.01", |b| {
        b.iter(|| {
            black_box(Breakpoints::b2_with_eps(&set, 0.01, B2Construction::Efficient).unwrap())
        })
    });
    // The r fit every serve shard and live generation build runs
    // (`ApproxConfig::default().r`).
    g.bench_function("b2_with_count_r128", |b| {
        b.iter(|| {
            black_box(Breakpoints::b2_with_count(&set, 128, B2Construction::Efficient).unwrap())
        })
    });
    g.finish();
}

fn query_methods(c: &mut Criterion) {
    let set = temp_dataset(300, 120, 2);
    let (t1, t2) = (set.t_min() + 0.3 * set.span(), set.t_min() + 0.5 * set.span());
    let k = 10;
    let mut g = c.benchmark_group("query");
    g.sample_size(20);

    let e1 = Exact1::build(&set, IndexConfig::default()).unwrap();
    g.bench_function("exact1_topk_cold", |b| {
        b.iter(|| {
            e1.drop_caches().unwrap();
            black_box(e1.top_k(t1, t2, k, AggKind::Sum).unwrap())
        })
    });
    let e2 = Exact2::build(&set, IndexConfig::default()).unwrap();
    g.bench_function("exact2_topk_cold", |b| {
        b.iter(|| {
            e2.drop_caches().unwrap();
            black_box(e2.top_k(t1, t2, k, AggKind::Sum).unwrap())
        })
    });
    let e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    g.bench_function("exact3_topk_cold", |b| {
        b.iter(|| {
            e3.drop_caches().unwrap();
            black_box(e3.top_k(t1, t2, k, AggKind::Sum).unwrap())
        })
    });
    for variant in [ApproxVariant::APPX1, ApproxVariant::APPX2, ApproxVariant::APPX2_PLUS] {
        let idx = ApproxIndex::build(
            &set,
            variant,
            ApproxConfig { r: 32, kmax: 16, ..Default::default() },
        )
        .unwrap();
        g.bench_function(format!("{}_topk_cold", variant.name().to_lowercase()), |b| {
            b.iter(|| {
                idx.drop_caches().unwrap();
                black_box(idx.top_k(t1, t2, k, AggKind::Sum).unwrap())
            })
        });
    }
    g.finish();

    // What APPX2+ pays on top of QUERY2: k = 20 candidates re-scored from
    // a cold prefix file (EXACT2's per-object descent pair, without the
    // forest) — read beside `query/exact2_topk_cold`.
    let plus =
        ApproxIndex::build(&set, ApproxVariant::APPX2_PLUS, ApproxConfig::default()).unwrap();
    let rescorer = plus.rescorer().expect("APPX2+ re-scores from a prefix file");
    let mut g = c.benchmark_group("appx2plus");
    g.sample_size(20);
    g.bench_function("rescore_cold_k20", |b| {
        b.iter(|| {
            rescorer.file().drop_cache().unwrap();
            let mut scorer = rescorer.scorer();
            for id in (0..300).step_by(15) {
                black_box(scorer.score_one(id, t1, t2).unwrap());
            }
        })
    });
    g.finish();
}

fn meme_query(c: &mut Criterion) {
    let set = meme_dataset(2000, 40, 3);
    let (t1, t2) = (set.t_min() + 0.3 * set.span(), set.t_min() + 0.5 * set.span());
    let mut g = c.benchmark_group("meme");
    g.sample_size(20);
    let e3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    g.bench_function("exact3_topk_cold", |b| {
        b.iter(|| {
            e3.drop_caches().unwrap();
            black_box(e3.top_k(t1, t2, 10, AggKind::Sum).unwrap())
        })
    });
    let idx = ApproxIndex::build(
        &set,
        ApproxVariant::APPX2,
        ApproxConfig { r: 32, kmax: 16, ..Default::default() },
    )
    .unwrap();
    g.bench_function("appx2_topk_cold", |b| {
        b.iter(|| {
            idx.drop_caches().unwrap();
            black_box(idx.top_k(t1, t2, 10, AggKind::Sum).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, curve_kernels, breakpoint_construction, query_methods, meme_query);
criterion_main!(benches);
