//! What telemetry costs one in-process query, as counts: spans emitted,
//! heap allocations, and metric updates (ISSUE 23). Counts, because they
//! repeat where a wall-clock comparison on a shared host does not.
//!
//! Scenario: Temp m = 400 behind a W = 2 `ServeEngine`, 400 Zipf queries
//! alternating exact / ε = 0.2. Allocations are counted over 20 rounds
//! after a warm-up one, each round passing the stream through every variant
//! (untraced, no registry, traced, one extra allocation every 7th query)
//! back to back; a variant's cost is the median of its per-round
//! differences. The slow-query flight recorder is disarmed: whether a
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
const ROUNDS: usize = 20;
/// How the pool's threads interleave — whether the gathering caller parks,
/// which thread reaches a channel first — moves a pass's allocations by up
/// to about 40 in 400 queries, and by how much follows the host's load,
/// which drifts while a measurement runs. A difference paired within
/// rounds repeats to about ±5 in its median.
const SLACK: f64 = 0.05;
/// Heap allocations an untraced query of this stream may make: about 37.5
/// (printed rounded). 47 while readers copied each block out of the pool
/// into a buffer of their own: an exact query one per stab, 2 stabs × W
/// shards = 4 (35.6 → 31.6 on the exact half alone); an ε = 0.2 query,
/// routed to APPX2, one per directory seek and per dyadic list read, ≈ 15
/// (58.6 → 43.5 on the ε half alone); the stream alternates the two.
const ALLOCATIONS: f64 = 38.5;

/// Heap allocations one pass of `stream` makes through each of `variants`,
/// in each of `ROUNDS` rounds after a warm-up one. A round runs the
/// variants back to back, so they meet the same load. Every allocation a
/// pass makes counts: one a sink or registry makes only every few queries
/// moves a pass by its rate.
fn allocations_per_round<const N: usize>(
    stream: &[ServeQuery],
    mut variants: [&mut dyn FnMut(ServeQuery); N],
) -> Vec<[i64; N]> {
    let pass = |query: &mut dyn FnMut(ServeQuery)| {
        let before = counting::allocations();
        stream.iter().for_each(|q| query(*q));
        (counting::allocations() - before) as i64
    };
    for query in &mut variants {
        pass(*query);
    }
    (0..ROUNDS).map(|_| variants.each_mut().map(|query| pass(*query))).collect()
}

/// The median over `rounds` of `per_round`, per query of a `queries`-long
/// stream.
fn median_per_query<const N: usize>(
    rounds: &[[i64; N]],
    queries: usize,
    per_round: impl Fn([i64; N]) -> i64,
) -> f64 {
    let mut v: Vec<i64> = rounds.iter().map(|r| per_round(*r)).collect();
    v.sort_unstable();
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) as f64 / 2.0 / queries as f64
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
    let mut noop = engine(0);
    noop.set_registry(&Registry::noop());
    let sink = SpanSink::new(512);
    let emitted = sink.emitted();
    let mut calls = 0u64;
    let rounds = allocations_per_round(
        &stream,
        [
            &mut |q| drop(global.query_routed(q).unwrap()),
            &mut |q| drop(noop.query_routed(q).unwrap()),
            &mut |q| drop(global.query_spanned(q, TraceId::next(), SpanId::next(), &sink).unwrap()),
            // The measure itself: telemetry that allocates once every 7th
            // query (on different queries each round, as 400 % 7 = 1) must
            // fail SLACK.
            &mut |q| {
                calls += 1;
                if calls.is_multiple_of(7) {
                    drop(std::hint::black_box(Box::new(calls)));
                }
                drop(global.query_routed(q).unwrap())
            },
        ],
    );
    let spans = (sink.emitted() - emitted) as f64 / ((ROUNDS + 1) * stream.len()) as f64;
    let per_query = |f: fn([i64; 4]) -> i64| median_per_query(&rounds, stream.len(), f);
    let untraced = per_query(|[untraced, ..]| untraced);
    let metered = per_query(|[untraced, unmetered, ..]| untraced - unmetered);
    let traced = per_query(|[untraced, _, traced, _]| traced - untraced);
    let every_7th = per_query(|[untraced, .., every_7th]| every_7th - untraced);

    let updates = updates_per_query(engine(0), &stream);
    let updates_cached = updates_per_query(engine(ServeConfig::default().cache_capacity), &stream);

    println!("pinned: spans per traced query at W = {W}: {spans}");
    println!(
        "pinned: heap allocations per query: {} untraced, traced {:+}, \
         global registry against none {:+}",
        untraced.round() as u64,
        traced.round() as i64,
        metered.round() as i64
    );
    println!("pinned: metric updates per query: {updates} cache off, {updates_cached} default");
    println!("pinned: bytes per span slot: {}", std::mem::size_of::<Span>());
    println!(
        "measured: heap allocations per query: {untraced:.3} untraced, traced {traced:+.3}, \
         global registry against none {metered:+.3}, one more every 7th query {every_7th:+.3}"
    );

    assert_eq!(spans, (W + 1) as f64);
    assert!(traced.abs() <= SLACK, "a traced query allocates {traced:+} more");
    assert!(metered.abs() <= SLACK, "metrics allocate {metered:+} per query");
    assert!(every_7th > SLACK, "an allocation every 7th query reads as {every_7th:+}");
    assert!(untraced <= ALLOCATIONS, "{untraced:.3} allocations per query");
    assert_eq!((updates, updates_cached), (2.0, 3.0));
    assert!(std::mem::size_of::<Span>() <= 240);
}
