//! Engine-level integration: routing, caching, streams, and reporting
//! against generated workloads.

use chronorank_obs::{Registry, SpanSink};
use chronorank_serve::{MethodSet, Route, ServeConfig, ServeEngine, ServeQuery};
use chronorank_workloads::{
    DatasetGenerator, IntervalPattern, QueryWorkload, QueryWorkloadConfig, TempConfig,
    TempGenerator,
};

fn dataset(m: usize) -> chronorank_core::TemporalSet {
    TempGenerator::new(TempConfig { objects: m, avg_segments: 40, seed: 11, dropout: 0.02 })
        .generate_set()
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig { workers, ..Default::default() }
}

#[test]
fn exact_queries_match_bruteforce_at_any_width() {
    let set = dataset(60);
    let (t1, t2) = (set.t_min() + 0.3 * set.span(), set.t_min() + 0.7 * set.span());
    let truth = set.top_k_bruteforce(t1, t2, 8);
    for w in [1usize, 3, 4] {
        let engine = ServeEngine::new(&set, config(w)).unwrap();
        assert_eq!(engine.workers(), w);
        let got = engine.query(ServeQuery::exact(t1, t2, 8)).unwrap();
        assert_eq!(got.ids(), truth.ids(), "W = {w}");
        for (g, t) in got.scores().iter().zip(truth.scores()) {
            assert!((g - t).abs() <= 1e-7 * (1.0 + t.abs()), "W = {w}");
        }
    }
}

#[test]
fn worker_count_is_clamped_to_objects() {
    let set = dataset(3);
    let engine = ServeEngine::new(&set, config(16)).unwrap();
    assert_eq!(engine.workers(), 3);
}

#[test]
fn repeated_hot_queries_hit_the_cache() {
    let set = dataset(50);
    let engine = ServeEngine::new(&set, config(2)).unwrap();
    let (t1, t2) = (set.t_min() + 0.2 * set.span(), set.t_min() + 0.5 * set.span());
    let q = ServeQuery::approx(t1, t2, 6, 0.2);
    assert_eq!(engine.route_for(&q), Route::Appx2);
    let first = engine.query(q).unwrap();
    let before = engine.report();
    assert_eq!(before.cache_hits, 0, "first touch must miss");
    let second = engine.query(q).unwrap();
    let after = engine.report();
    // One lookup per shard per query; the second query hits on both shards.
    assert_eq!(after.cache_lookups, 4);
    assert_eq!(after.cache_hits, 2);
    // Cached answers are identical to the uncached ones, bit for bit.
    assert_eq!(first.entries(), second.entries());
}

#[test]
fn snapped_neighbours_share_a_cache_entry() {
    let set = dataset(50);
    let engine = ServeEngine::new(&set, config(1)).unwrap();
    let (t1, t2) = (set.t_min() + 0.31 * set.span(), set.t_min() + 0.62 * set.span());
    engine.query(ServeQuery::approx(t1, t2, 5, 0.2)).unwrap();
    // A slightly perturbed interval snaps to the same breakpoint pair (the
    // perturbation is far below the breakpoint spacing), so it must hit.
    let nudge = set.span() * 1e-9;
    engine.query(ServeQuery::approx(t1 - nudge, t2 - nudge, 5, 0.2)).unwrap();
    assert_eq!(engine.report().cache_hits, 1);
}

#[test]
fn stream_matches_one_by_one_queries() {
    let set = dataset(40);
    let qs: Vec<ServeQuery> = QueryWorkload::new(
        QueryWorkloadConfig { count: 12, span_fraction: 0.3, k: 5, seed: 3, ..Default::default() },
        set.t_min(),
        set.t_max(),
    )
    .generate()
    .iter()
    .map(|q| ServeQuery::exact(q.t1, q.t2, q.k))
    .collect();
    // A tiny pool forces evictions so the IO aggregation has traffic to see.
    let cfg = ServeConfig {
        workers: 4,
        store: chronorank_storage::StoreConfig { block_size: 4096, pool_capacity: 8 },
        ..Default::default()
    };
    let streamed = ServeEngine::new(&set, cfg).unwrap();
    let answers: Vec<_> = qs
        .chunks(4)
        .flat_map(|window| streamed.execute(window, None, &SpanSink::noop()).unwrap())
        .collect();
    assert_eq!(answers.len(), qs.len());
    let serial = ServeEngine::new(&set, config(4)).unwrap();
    for (i, q) in qs.iter().enumerate() {
        let one = serial.query(*q).unwrap();
        assert_eq!(one.entries(), answers[i].topk.entries(), "query {i}");
    }
    let report = streamed.report();
    assert_eq!(report.queries, qs.len() as u64);
    // With 8-frame pools the shard builds evict constantly, so the
    // cross-thread IO aggregation must show substantial write-back traffic.
    assert!(report.io.total() > 0, "aggregated IoStats must see shard build/query IO");
    assert!(report.qps() > 0.0);
}

#[test]
fn zipf_streams_are_mostly_cache_hits() {
    let set = dataset(80);
    let workload = QueryWorkload::new(
        QueryWorkloadConfig {
            count: 200,
            span_fraction: 0.2,
            k: 8,
            seed: 9,
            pattern: IntervalPattern::Zipf { hotspots: 6, exponent: 1.0, background: 0.1 },
        },
        set.t_min(),
        set.t_max(),
    );
    let qs: Vec<ServeQuery> =
        workload.generate().iter().map(|q| ServeQuery::approx(q.t1, q.t2, q.k, 0.3)).collect();
    let engine = ServeEngine::new(&set, config(2)).unwrap();
    // Windows of one: probe dedup inside a window would fold hot repeats
    // into one lookup before the cache could see them.
    for window in qs.chunks(1) {
        engine.execute(window, None, &SpanSink::noop()).unwrap();
    }
    let report = engine.report();
    assert!(
        report.cache_hit_rate() > 0.5,
        "hot Zipf stream must be cache-dominated, got {:.2}",
        report.cache_hit_rate()
    );
    assert_eq!(report.routes[Route::Appx2.idx()].queries, qs.len() as u64);
}

#[test]
fn unsatisfiable_budgets_are_served_exactly() {
    let set = dataset(40);
    let engine = ServeEngine::new(&set, config(2)).unwrap();
    // ε far below what r = 128 breakpoints achieve on 40 objects.
    let q = ServeQuery::approx(set.t_min(), set.t_min() + 0.4 * set.span(), 5, 1e-12);
    let route = engine.route_for(&q);
    assert!(route.is_exact(), "got {route:?}");
    let truth = set.top_k_bruteforce(q.t1, q.t2, 5);
    assert_eq!(engine.query(q).unwrap().ids(), truth.ids());
}

#[test]
fn k_beyond_kmax_falls_back_to_exact() {
    let set = dataset(70);
    let cfg = ServeConfig {
        workers: 2,
        approx: chronorank_core::ApproxConfig { kmax: 8, ..Default::default() },
        ..Default::default()
    };
    let engine = ServeEngine::new(&set, cfg).unwrap();
    let q = ServeQuery::approx(set.t_min(), set.t_min() + 0.5 * set.span(), 20, 0.3);
    assert!(engine.route_for(&q).is_exact());
    assert_eq!(engine.query(q).unwrap().len(), 20);
}

#[test]
fn disabled_cache_never_reports_lookups() {
    let set = dataset(40);
    let cfg = ServeConfig { workers: 2, cache_capacity: 0, ..Default::default() };
    let engine = ServeEngine::new(&set, cfg).unwrap();
    let q = ServeQuery::approx(set.t_min(), set.t_min() + 0.4 * set.span(), 5, 0.3);
    engine.query(q).unwrap();
    engine.query(q).unwrap();
    let report = engine.report();
    assert_eq!((report.cache_lookups, report.cache_hits), (0, 0));
}

#[test]
fn build_failures_surface_instead_of_hanging() {
    let set = dataset(20);
    // kmax = 0 is rejected by the QUERY2 builder inside every worker; the
    // handshake must deliver the error (and not deadlock on W > 1).
    let cfg = ServeConfig {
        workers: 4,
        approx: chronorank_core::ApproxConfig { kmax: 0, ..Default::default() },
        ..Default::default()
    };
    match ServeEngine::new(&set, cfg) {
        Err(chronorank_serve::ServeError::Build { message, .. }) => {
            assert!(message.contains("kmax"), "unexpected message: {message}");
        }
        Err(other) => panic!("expected a build error, got {other}"),
        Ok(_) => panic!("expected a build error, engine built fine"),
    }
}

#[test]
fn methods_can_be_trimmed_to_exact3_only() {
    let set = dataset(30);
    let cfg = ServeConfig {
        workers: 2,
        methods: MethodSet { exact1: false, appx1: false, appx2: false, appx2_plus: false },
        ..Default::default()
    };
    let engine = ServeEngine::new(&set, cfg).unwrap();
    // Approximate tolerance cannot be honoured: exact fallback.
    let q = ServeQuery::approx(set.t_min(), set.t_min() + 0.3 * set.span(), 4, 0.5);
    assert_eq!(engine.route_for(&q), Route::Exact3);
    assert_eq!(engine.query(q).unwrap().len(), 4);
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeEngine>();
}

#[test]
fn concurrent_callers_share_one_engine() {
    // The network tier's connection readers do exactly this: many threads
    // querying one ServeEngine through a shared reference. Every thread
    // must see answers bit-identical to a serial oracle.
    let set = dataset(60);
    let engine = ServeEngine::new(&set, config(4)).unwrap();
    let qs: Vec<ServeQuery> = (0..12)
        .map(|i| {
            let a = set.t_min() + (0.05 + 0.03 * i as f64) * set.span();
            ServeQuery::exact(a, a + 0.25 * set.span(), 6)
        })
        .collect();
    let want: Vec<_> = qs.iter().map(|q| engine.query(*q).unwrap()).collect();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (engine, qs, want) = (&engine, &qs, &want);
            scope.spawn(move || {
                for round in 0..5 {
                    let i = (t + round * 3) % qs.len();
                    let got = engine.query(qs[i]).unwrap();
                    assert_eq!(got.entries(), want[i].entries(), "thread {t} query {i}");
                }
            });
        }
    });
    assert_eq!(engine.report().queries, 12 + 4 * 5);
}

#[test]
fn every_query_of_a_window_reaches_the_metrics_and_the_flight_recorder() {
    let set = dataset(40);
    let mut engine = ServeEngine::new(&set, config(2)).unwrap();
    let registry = Registry::new();
    engine.set_registry(&registry);
    engine.set_slow_query_threshold_us(0);
    let latency_count = |route: Route| {
        registry
            .histogram_with("chronorank_serve_route_latency_us", "", &[("route", route.name())])
            .snapshot()
            .count
    };
    let window: Vec<ServeQuery> = (0..16)
        .map(|i| {
            let a = set.t_min() + (0.05 + 0.02 * i as f64) * set.span();
            ServeQuery::exact(a, a + 0.3 * set.span(), 5)
        })
        .collect();
    let answers = engine.execute(&window, None, &SpanSink::noop()).unwrap();
    assert_eq!(answers.len(), 16);
    assert_eq!(latency_count(Route::Exact3), 16, "one latency sample per query of the window");
    let report = engine.report();
    assert_eq!((report.queries, report.routes[Route::Exact3.idx()].queries), (16, 16));
    // One trace per query, each carrying the window's per-shard spans.
    let traces = engine.flight_recorder().snapshot();
    assert_eq!(traces.len(), 16);
    for (trace, q) in traces.iter().zip(&window) {
        assert_eq!((trace.t1, trace.t2, trace.k), (q.t1, q.t2, q.k));
        assert_eq!(trace.shards.iter().map(|s| s.shard).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(trace.total_us, traces[0].total_us, "the window's wall time");
    }
}
