//! Serving-layer agreement (ISSUE 2 acceptance): sharding and caching must
//! not change answers.
//!
//! * Exact-routed answers from the sharded engine equal single-threaded
//!   EXACT3 on the same workload, for W ∈ {1, 4} (workers query *shared*
//!   `Arc` snapshots — no per-worker index duplication; ISSUE 5).
//! * Short exact windows — the ones shards answered from an EXACT1 B+-tree
//!   until ISSUE 15 — route to EXACT3 and still equal a standalone
//!   `Exact1` over the whole set.
//! * Cached answers are byte-identical to uncached ones (same engine
//!   re-asked, and a cache-disabled twin engine).
//!
//! CI additionally re-runs this suite with `CHRONORANK_AGREEMENT_W=8`
//! (and `RUST_TEST_THREADS` unpinned), which appends that width to every
//! W sweep below.

use chronorank::core::{AggKind, Exact1, Exact3, IndexConfig, RankMethod, TemporalSet, TopK};
use chronorank::serve::{Route, ServeConfig, ServeEngine, ServeQuery};
use chronorank::workloads::{
    DatasetGenerator, IntervalPattern, MemeConfig, MemeGenerator, QueryWorkload,
    QueryWorkloadConfig, TempConfig, TempGenerator,
};

/// The worker widths under test: {1, 4}, plus `$CHRONORANK_AGREEMENT_W`
/// when set (the CI wide-sweep hook).
fn worker_widths() -> Vec<usize> {
    let mut widths = vec![1usize, 4];
    if let Ok(w) = std::env::var("CHRONORANK_AGREEMENT_W") {
        let w: usize = w.parse().expect("CHRONORANK_AGREEMENT_W must be a worker count");
        if !widths.contains(&w) {
            widths.push(w);
        }
    }
    widths
}

fn datasets() -> Vec<(&'static str, TemporalSet)> {
    vec![
        (
            "temp",
            TempGenerator::new(TempConfig {
                objects: 90,
                avg_segments: 50,
                seed: 21,
                dropout: 0.05,
            })
            .generate_set(),
        ),
        (
            "meme",
            MemeGenerator::new(MemeConfig {
                objects: 120,
                avg_segments: 25,
                span: 2000.0,
                seed: 22,
            })
            .generate_set(),
        ),
    ]
}

fn uniform_queries(set: &TemporalSet, count: usize, k: usize) -> Vec<ServeQuery> {
    QueryWorkload::new(
        QueryWorkloadConfig { count, span_fraction: 0.25, k, seed: 5, ..Default::default() },
        set.t_min(),
        set.t_max(),
    )
    .generate()
    .iter()
    .map(|q| ServeQuery::exact(q.t1, q.t2, q.k))
    .collect()
}

fn assert_answers_match(want: &TopK, got: &TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    for j in 0..want.len() {
        let (wid, ws) = want.rank(j);
        let (gid, gs) = got.rank(j);
        let scale = 1.0_f64.max(ws.abs());
        assert!((ws - gs).abs() <= 1e-7 * scale, "{ctx} rank {j}: {ws} vs {gs}");
        if wid != gid {
            // Ties may permute; the scores must then be equal.
            assert!(
                want.entries().iter().any(|&(id, s)| id == gid && (s - ws).abs() <= 1e-7 * scale),
                "{ctx} rank {j}: ids {wid}/{gid} differ without a tie"
            );
        }
    }
}

#[test]
fn sharded_exact_equals_single_threaded_exact3() {
    for (name, set) in datasets() {
        let exact3 = Exact3::build(&set, IndexConfig::default()).unwrap();
        let queries = uniform_queries(&set, 10, 8);
        for w in worker_widths() {
            let engine =
                ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
            assert_eq!(engine.workers(), w);
            for (i, q) in queries.iter().enumerate() {
                assert!(engine.route_for(q).is_exact());
                let got = engine.query(*q).unwrap();
                let want = exact3.top_k(q.t1, q.t2, q.k, AggKind::Sum).unwrap();
                assert_answers_match(&want, &got, &format!("{name} W={w} q{i}"));
            }
        }
    }
}

#[test]
fn short_windows_route_to_exact3_and_equal_a_standalone_exact1() {
    for (name, set) in datasets() {
        let exact1 = Exact1::build(&set, IndexConfig::default()).unwrap();
        let width = 0.004 * set.span();
        let queries: Vec<ServeQuery> = (0..12)
            .map(|i| {
                let t1 = set.t_min() + (set.span() - width) * i as f64 / 11.0;
                ServeQuery::exact(t1, t1 + width, 8)
            })
            .collect();
        for w in worker_widths() {
            let engine =
                ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
            for (i, q) in queries.iter().enumerate() {
                let (got, route) = engine.query_routed(*q).unwrap();
                assert_eq!(route, Route::Exact3, "{name} W={w} q{i}");
                let want = exact1.top_k(q.t1, q.t2, q.k, AggKind::Sum).unwrap();
                assert_answers_match(&want, &got, &format!("{name} W={w} short q{i}"));
            }
            assert_eq!(engine.report().routes[Route::Exact1.idx()].queries, 0);
        }
    }
}

#[test]
fn cached_answers_are_byte_identical_to_uncached() {
    for (name, set) in datasets() {
        let zipf: Vec<ServeQuery> = QueryWorkload::new(
            QueryWorkloadConfig {
                count: 60,
                span_fraction: 0.2,
                k: 6,
                seed: 8,
                pattern: IntervalPattern::Zipf { hotspots: 4, exponent: 1.0, background: 0.1 },
            },
            set.t_min(),
            set.t_max(),
        )
        .generate()
        .iter()
        .map(|q| ServeQuery::approx(q.t1, q.t2, q.k, 0.4))
        .collect();
        for w in worker_widths() {
            let cached_cfg = ServeConfig { workers: w, ..Default::default() };
            let uncached_cfg = ServeConfig { workers: w, cache_capacity: 0, ..Default::default() };
            let cached = ServeEngine::new(&set, cached_cfg).unwrap();
            let uncached = ServeEngine::new(&set, uncached_cfg).unwrap();
            for (i, q) in zipf.iter().enumerate() {
                let a = cached.query(*q).unwrap();
                let b = uncached.query(*q).unwrap();
                // Byte-identical: same ids AND bitwise-equal scores.
                assert_eq!(a.ids(), b.ids(), "{name} W={w} q{i}");
                for (sa, sb) in a.scores().iter().zip(b.scores()) {
                    assert_eq!(sa.to_bits(), sb.to_bits(), "{name} W={w} q{i}");
                }
            }
            let report = cached.report();
            assert!(
                report.cache_hits > 0,
                "{name} W={w}: the hot stream must actually exercise the cache"
            );
            assert_eq!(uncached.report().cache_lookups, 0);
        }
    }
}

#[test]
fn streamed_exact_equals_single_threaded_exact3() {
    let (_, set) = datasets().remove(0);
    let exact3 = Exact3::build(&set, IndexConfig::default()).unwrap();
    let queries = uniform_queries(&set, 12, 5);
    for w in worker_widths() {
        let engine =
            ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
        let outcome = engine.run_stream(&queries).unwrap();
        for (i, (q, got)) in queries.iter().zip(&outcome.answers).enumerate() {
            let want = exact3.top_k(q.t1, q.t2, q.k, AggKind::Sum).unwrap();
            assert_answers_match(&want, got, &format!("stream W={w} q{i}"));
        }
    }
}
