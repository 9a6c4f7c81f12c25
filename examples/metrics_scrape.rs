//! Scrape the telemetry plane over the wire and inspect a slow query.
//!
//! Starts a serve-backend TCP server on loopback, drives a short mixed
//! exact/ε query stream through a client, then:
//!
//! 1. issues a `METRICS` frame and validates the returned Prometheus-style
//!    exposition (well-formed lines, expected metric families present);
//! 2. lowers the engine's slow-query threshold to zero and shows the
//!    flight recorder's end-to-end trace of the next query — route, time
//!    window, per-shard spans, cache outcome, and the IO delta it cost.
//!
//! Exits nonzero if the exposition is malformed or a family is missing,
//! so CI can use this binary as the loopback scrape gate.
//!
//! ```text
//! cargo run --release --example metrics_scrape
//! ```

use chronorank::core::TemporalSet;
use chronorank::curve::PiecewiseLinear;
use chronorank::net::{NetClient, NetConfig, NetServer};
use chronorank::obs::validate_exposition;
use chronorank::serve::{ServeConfig, ServeQuery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small synthetic set: 64 objects with crossing linear scores.
    let curves: Vec<_> = (0..64)
        .map(|i| {
            PiecewiseLinear::from_points(&[
                (0.0, i as f64),
                (50.0, (64 - i) as f64),
                (100.0, i as f64 + 1.0),
            ])
            .expect("valid curve")
        })
        .collect();
    let set = TemporalSet::from_curves(curves)?;

    let server = NetServer::start_serve(
        set,
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )?;
    println!("serve backend listening on {}", server.local_addr());

    let mut client = NetClient::connect(server.local_addr())?;
    for i in 0..32 {
        let (t1, t2) = (10.0 + (i % 8) as f64 * 5.0, 90.0);
        let q = if i % 2 == 0 {
            ServeQuery::exact(t1, t2, 8)
        } else {
            ServeQuery::approx(t1, t2, 8, 0.2)
        };
        client.topk(q)?;
    }

    // --- 1. the wire scrape ------------------------------------------------
    let text = client.metrics()?;
    let families = validate_exposition(&text).map_err(|e| format!("malformed exposition: {e}"))?;
    for family in [
        "chronorank_serve_route_latency_us",
        "chronorank_serve_route_total",
        "chronorank_serve_cache_hits_total",
        "chronorank_serve_queries",
        "chronorank_serve_build_us",
        "chronorank_serve_build_stage_us",
        "chronorank_serve_build_b2_sweeps",
        "chronorank_serve_index_bytes",
        "chronorank_serve_route_index_bytes",
        "chronorank_net_frames_in",
        "chronorank_net_frame_decode_us",
        "chronorank_net_frame_encode_us",
    ] {
        if !families.contains(family) {
            return Err(format!("exposition is missing the {family} family").into());
        }
    }
    println!(
        "METRICS scrape OK: {} bytes, {} metric families, all expected families present",
        text.len(),
        families.len()
    );
    // Routing decisions, "where did the build go" (stages exact3 / b2 /
    // appx) and "which route owns the index bytes" from the same scrape.
    // route="EXACT1" reports the EXACT3 tree (shards build no B+-tree; the
    // slot holds the same index), so the two exact routes show the same bytes.
    for prefix in [
        "chronorank_serve_route_total",
        "chronorank_serve_build_",
        "chronorank_serve_index_bytes",
        "chronorank_serve_route_index_bytes",
    ] {
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            println!("  {line}");
        }
    }

    // --- 2. the flight recorder -------------------------------------------
    // The server owns the engine, but the recorder hangs off the global
    // registry-backed serve instrumentation; an in-process engine shows the
    // same machinery directly.
    let curves: Vec<_> = (0..64)
        .map(|i| {
            PiecewiseLinear::from_points(&[(0.0, i as f64), (100.0, (64 - i) as f64)])
                .expect("valid curve")
        })
        .collect();
    let local = chronorank::serve::ServeEngine::new(
        &TemporalSet::from_curves(curves)?,
        ServeConfig { workers: 2, ..Default::default() },
    )?;
    // Threshold zero: every query qualifies as "slow" and is traced.
    local.set_slow_query_threshold_us(0);
    local.query(ServeQuery::exact(20.0, 80.0, 8))?;
    let traces = local.flight_recorder().snapshot();
    let trace = traces.first().ok_or("flight recorder captured no trace")?;
    println!(
        "\nflight-recorder trace: route={} window=[{}, {}] k={} total={}µs cache={} \
         shards={} io(reads={}, writes={})",
        trace.route,
        trace.t1,
        trace.t2,
        trace.k,
        trace.total_us,
        trace.cache.name(),
        trace.shards.len(),
        trace.io.reads,
        trace.io.writes,
    );
    for span in &trace.shards {
        println!(
            "  shard {}: {}µs, {} reads, cache_hit={}",
            span.shard, span.elapsed_us, span.reads, span.cache_hit
        );
    }

    server.shutdown();
    println!("\nmetrics_scrape finished cleanly");
    Ok(())
}
