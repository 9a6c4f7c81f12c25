//! What telemetry costs one in-process query, as counts: spans emitted,
//! heap allocations, and metric updates (ISSUE 23). Counts, because they
//! repeat where a wall-clock comparison on a shared host does not.
//!
//! Scenario: Temp m = 400 behind a W = 2 `ServeEngine`, 400 Zipf queries
//! alternating exact / ε = 0.2, three rounds per measurement after one
//! warm-up round. The slow-query flight recorder is disarmed: whether a
//! query crosses its 1 ms threshold is the host's doing, and a recorded
//! trace allocates.
//!
//! One test, so nothing else in the process allocates while it counts;
//! `ci.sh`'s `tier1` stage echoes the `pinned:` lines into its summary.

use chronorank::obs::{Registry, Span, SpanId, SpanSink, TraceId};
use chronorank::serve::{ServeConfig, ServeEngine, ServeQuery};
use chronorank::workloads::{
    DatasetGenerator, IntervalPattern, QueryWorkload, QueryWorkloadConfig, TempConfig,
    TempGenerator,
};

mod counting;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

const W: usize = 2;
const ROUNDS: usize = 3;
/// Allocations per query repeat to ±0.01: the pool's task channel takes a
/// fresh block every 31 sends, wherever a round happens to start in one.
const SLACK: f64 = 0.05;

/// Heap allocations per query over `ROUNDS` passes of `stream` through `query`.
fn allocations_per_query(stream: &[ServeQuery], mut query: impl FnMut(ServeQuery)) -> f64 {
    stream.iter().for_each(|q| query(*q));
    let before = counting::allocations();
    for _ in 0..ROUNDS {
        stream.iter().for_each(|q| query(*q));
    }
    (counting::allocations() - before) as f64 / (ROUNDS * stream.len()) as f64
}

/// Counter increments and histogram samples an exposition has seen: the
/// sum of every `counter` family's samples and every summary's `_count`.
fn metric_updates(exposition: &str) -> u64 {
    let counters: Vec<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" counter"))
        .collect();
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or(series);
            name.ends_with("_count") || counters.contains(&name)
        })
        .map(|(_, value)| value.parse::<u64>().expect("counts are integers"))
        .sum()
}

/// Metric updates per untraced query on a private registry.
fn updates_per_query(mut engine: ServeEngine, stream: &[ServeQuery]) -> f64 {
    let registry = Registry::new();
    engine.set_registry(&registry);
    engine.set_slow_query_threshold_us(u64::MAX);
    let before = metric_updates(&registry.render());
    stream.iter().for_each(|q| drop(engine.query_routed(*q).unwrap()));
    (metric_updates(&registry.render()) - before) as f64 / stream.len() as f64
}

#[test]
fn telemetry_costs_a_query_w_plus_1_spans_no_allocation_and_two_metric_updates() {
    let set =
        TempGenerator::new(TempConfig { objects: 400, avg_segments: 30, seed: 42, dropout: 0.02 })
            .generate_set();
    let stream: Vec<ServeQuery> = QueryWorkload::new(
        QueryWorkloadConfig {
            count: 400,
            span_fraction: 0.2,
            k: 8,
            seed: 7,
            pattern: IntervalPattern::Zipf { hotspots: 8, exponent: 1.0, background: 0.1 },
        },
        set.t_min(),
        set.t_max(),
    )
    .generate()
    .iter()
    .enumerate()
    .map(|(i, q)| match i % 2 {
        0 => ServeQuery::exact(q.t1, q.t2, q.k),
        _ => ServeQuery::approx(q.t1, q.t2, q.k, 0.2),
    })
    .collect();
    let engine = |cache_capacity| {
        ServeEngine::new(&set, ServeConfig { workers: W, cache_capacity, ..Default::default() })
            .unwrap()
    };

    // Cache off, so every query probes its shards. A new engine reports to
    // the global registry.
    let global = engine(0);
    global.set_slow_query_threshold_us(u64::MAX);
    let untraced = allocations_per_query(&stream, |q| drop(global.query_routed(q).unwrap()));

    let mut noop = engine(0);
    noop.set_registry(&Registry::noop());
    let unmetered = allocations_per_query(&stream, |q| drop(noop.query_routed(q).unwrap()));

    let sink = SpanSink::new(512);
    let emitted = sink.emitted();
    let traced = allocations_per_query(&stream, |q| {
        drop(global.query_spanned(q, TraceId::next(), SpanId::next(), &sink).unwrap())
    });
    let spans = (sink.emitted() - emitted) as f64 / ((ROUNDS + 1) * stream.len()) as f64;

    let updates = updates_per_query(engine(0), &stream);
    let updates_cached = updates_per_query(engine(ServeConfig::default().cache_capacity), &stream);

    println!("pinned: spans per traced query at W = {W}: {spans}");
    println!(
        "pinned: heap allocations per query: {} untraced, traced {:+}, \
         global registry against none {:+}",
        untraced as u64,
        (traced - untraced).round() as i64,
        (untraced - unmetered).round() as i64
    );
    println!("pinned: metric updates per query: {updates} cache off, {updates_cached} default");
    println!("pinned: bytes per span slot: {}", std::mem::size_of::<Span>());
    println!("measured: heap allocations per untraced query: {untraced:.2}");

    assert_eq!(spans, (W + 1) as f64);
    assert!((traced - untraced).abs() <= SLACK, "a traced query allocates: {untraced} → {traced}");
    assert!(
        (untraced - unmetered).abs() <= SLACK,
        "metrics allocate: {unmetered} on a noop registry, {untraced} on the global one"
    );
    assert_eq!((updates, updates_cached), (2.0, 3.0));
    assert!(std::mem::size_of::<Span>() <= 240);
}
