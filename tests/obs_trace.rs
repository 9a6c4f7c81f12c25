//! Acceptance test for the telemetry plane (ISSUE 7): a query made slow by
//! a zero slow-query threshold must land in the flight recorder as a
//! *correct* end-to-end trace — the planner route actually taken, every
//! shard the scatter touched, the folded cache outcome, and an IO delta
//! that agrees with the engine's own `IoStats` accounting.

use chronorank::obs::CacheOutcome;
use chronorank::serve::{ServeConfig, ServeEngine, ServeQuery};
use chronorank::storage::StoreConfig;
use chronorank::workloads::{DatasetGenerator, TempConfig, TempGenerator};

const WORKERS: usize = 3;

/// A dataset big enough that exact probes must read blocks through the
/// deliberately tiny pool below, so a trace has IO to account for.
fn engine() -> ServeEngine {
    let set = TempGenerator::new(TempConfig {
        objects: 120,
        avg_segments: 60,
        seed: 7,
        ..Default::default()
    })
    .generate_set();
    let cfg = ServeConfig {
        workers: WORKERS,
        store: StoreConfig { block_size: 4096, pool_capacity: 8 },
        ..Default::default()
    };
    ServeEngine::new(&set, cfg).expect("build engine")
}

#[test]
fn injected_slow_query_produces_a_correct_trace() {
    let engine = engine();
    let (t1, t2) = (20.0, 80.0);
    let q = ServeQuery::exact(t1, t2, 8);
    let expected_route = engine.route_for(&q).name();

    // Qualify everything: the zero threshold keeps the test deterministic.
    engine.set_slow_query_threshold_us(0);
    let io_before = engine.report().io;
    engine.query(q).expect("slow query");
    let io_delta = engine.report().io.since(io_before);

    let traces = engine.flight_recorder().snapshot();
    assert_eq!(traces.len(), 1, "exactly the one query traced");
    let trace = &traces[0];

    // Route and query identity.
    assert_eq!(trace.route, expected_route);
    assert_eq!((trace.t1, trace.t2, trace.k), (t1, t2, 8));

    // Every shard of the fan-out shows up, in shard order.
    let shards: Vec<usize> = trace.shards.iter().map(|s| s.shard).collect();
    assert_eq!(shards, (0..WORKERS).collect::<Vec<_>>(), "all shards touched, sorted");

    // Exact routes go through the result cache too: a cold one misses.
    assert_eq!(trace.cache, CacheOutcome::Miss);
    assert!(trace.shards.iter().all(|s| !s.cache_hit));

    // The IO delta is real and consistent: the per-shard reads sum to the
    // trace total, and that total is exactly what the engine's own IoStats
    // counters moved by.
    assert!(trace.io.reads >= 1, "cold 8-frame pool must read blocks");
    let span_reads: u64 = trace.shards.iter().map(|s| s.reads).sum();
    assert_eq!(trace.io.reads, span_reads);
    assert_eq!(trace.io.reads, io_delta.reads, "trace disagrees with engine IoStats");

    // Total latency is the slowest shard span or more.
    let max_span = trace.shards.iter().map(|s| s.elapsed_us).max().unwrap();
    assert!(
        trace.total_us >= max_span,
        "end-to-end {}us must cover the slowest shard span {}us",
        trace.total_us,
        max_span
    );

    // The identical repeat hits on every shard and reads nothing.
    engine.query(q).expect("repeat");
    let repeat = engine.flight_recorder().snapshot().remove(1);
    assert_eq!(repeat.cache, CacheOutcome::Hit, "identical repeat: {repeat:?}");
    assert!(repeat.shards.iter().all(|s| s.cache_hit));
    assert_eq!(repeat.io.reads, 0);
}

#[test]
fn threshold_gates_recording() {
    let engine = engine();
    // Unreachable threshold: no query may qualify.
    engine.set_slow_query_threshold_us(u64::MAX);
    engine.query(ServeQuery::exact(20.0, 80.0, 8)).expect("query");
    assert!(engine.flight_recorder().is_empty(), "nothing qualifies at u64::MAX");

    engine.set_slow_query_threshold_us(0);
    engine.query(ServeQuery::exact(20.0, 80.0, 8)).expect("query");
    assert_eq!(engine.flight_recorder().len(), 1, "everything qualifies at 0");
}

#[test]
fn cache_outcome_is_folded_into_the_trace() {
    let engine = engine();
    engine.set_slow_query_threshold_us(0);
    // An ε-tolerant query goes through the shard result caches: the first
    // execution misses everywhere, the identical repeat hits everywhere.
    let q = ServeQuery::approx(20.0, 80.0, 8, 0.2);
    engine.query(q).expect("first approx query");
    engine.query(q).expect("repeat approx query");
    let traces = engine.flight_recorder().snapshot();
    assert_eq!(traces.len(), 2);
    assert_eq!(traces[0].cache, CacheOutcome::Miss, "cold caches: {:?}", traces[0]);
    assert_eq!(traces[1].cache, CacheOutcome::Hit, "identical repeat: {:?}", traces[1]);
    assert!(traces[1].shards.iter().all(|s| s.cache_hit));
}
