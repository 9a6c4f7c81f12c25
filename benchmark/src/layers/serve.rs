//! Serve, net and obs probes, and the ladder: one Temp dataset and one
//! Zipf mixed stream (the `zipf_inproc` shape at probe scale, one
//! client) driven at four boundaries — a single method, the engine at
//! W = 1, the engine at W = 2, and the loopback wire — so adjacent rungs
//! subtract to each layer's tax.
//!
//! The ladder's engines run with the result cache **off**: with it on, a
//! rung's p50 lands on a cache hit and the subtraction measures the cache
//! instead of the layer. Cache behaviour is measured on a separate
//! default-configured engine.

use super::{mean, ns_per_call, p50, time_each, Layers};
use crate::adapter::{
    self, Client, Dataset, Engine, EngineSpec, Method, Query, RouteMethods, Server,
};
use crate::stats;
use crate::trace;
use crate::workloads::{collect_spans, Run, K};
use std::time::Instant;

const OBJECTS: usize = 1000;
const AVG_SEGMENTS: usize = 100;
/// Queries of the ladder stream.
const STREAM: usize = 4000;
const COLD_QUERIES: usize = 100;

pub fn run(run: &Run, out: &mut Layers) -> Result<(), String> {
    let set = Dataset::temp(run.size(OBJECTS), AVG_SEGMENTS, run.seed);
    let stream = adapter::zipf_mixed_streams(set.domain(), 1, run.size(STREAM), K, run.seed + 1)
        .pop()
        .expect("one client stream");

    // --- core, in memory: all five route methods as a shard builds them ----
    let mut routes = RouteMethods::build(&set)?;
    let methods: Vec<Method> = (0..5).map(|r| routes.take(r)).collect::<Result<_, _>>()?;
    for (name, method) in adapter::ROUTES.iter().zip(&methods) {
        for q in stream.iter().take(200) {
            method.top_k(q)?;
        }
        let warm = time_each(stream.len(), |i| method.top_k(&stream[i]))?;
        out.median(&format!("core.{name}.warm_us_per_query"), &warm);
    }
    let t0 = Instant::now();
    let appx2plus = adapter::build_appx2plus(&set)?;
    out.value("core.appx2plus.build_s", t0.elapsed().as_secs_f64());
    out.value("core.appx2plus.size_bytes", appx2plus.size_bytes() as f64);
    let mut reads = Vec::new();
    let cold = time_each(COLD_QUERIES.min(stream.len()), |i| {
        appx2plus.cold_top_k(&stream[i]).map(|(_, r)| reads.push(r as f64))
    })?;
    out.value("core.appx2plus.cold_reads_per_query", mean(&reads));
    out.value("core.appx2plus.cold_us_per_query", p50(&cold));
    drop(appx2plus);

    let image = run.work_dir.join("probe.img");
    let t0 = Instant::now();
    routes.write_image(&image, &set)?;
    out.value("storage.image_write_ms", t0.elapsed().as_secs_f64() * 1e3);
    std::fs::remove_file(&image).ok();

    // --- the in-process rungs ----------------------------------------------
    let no_cache = |workers| EngineSpec { workers, pool_frames: None, cache_entries: Some(0) };
    let w1 = Engine::build(&set, &no_cache(1))?;
    let w2 = Engine::build(&set, &no_cache(2))?;
    // Rung 0: the planner's route, straight into that method.
    let method_us = time_each(stream.len(), |i| methods[w1.plan(&stream[i])].top_k(&stream[i]))?;
    let w1_us = rung(&w1, &stream)?;
    let w2_us = rung(&w2, &stream)?;
    out.median("ladder.method_us", &method_us);
    out.median("ladder.engine_w1_us", &w1_us);
    out.median("ladder.engine_w2_us", &w2_us);
    out.value("serve.engine_tax_us", p50(&w1_us) - p50(&method_us));
    out.value("serve.scatter_tax_us", p50(&w2_us) - p50(&w1_us));
    drop((methods, w1));

    out.set(
        "serve.planner_route_ns",
        ns_per_call(100_000, |i| {
            std::hint::black_box(w2.plan(&stream[i % stream.len()]));
        }),
    );
    let (answer, _) = w2.query(&Query { eps: None, ..stream[0] })?;
    let lists = [
        answer.iter().step_by(2).copied().collect::<Vec<_>>(),
        answer.iter().skip(1).step_by(2).copied().collect(),
    ];
    out.set(
        "serve.merge_ranked_ns",
        ns_per_call(100_000, |_| {
            std::hint::black_box(adapter::merge_ranked(&lists, K));
        }),
    );

    // --- cache, routes and tracing overhead on a default engine ------------
    let default = Engine::build(&set, &EngineSpec { workers: 2, ..Default::default() })?;
    rung(&default, &stream)?;
    let before = default.counters();
    rung(&default, &stream)?;
    let after = default.counters();
    let lookups = (after.cache_lookups - before.cache_lookups).max(1);
    out.value(
        "serve.cache_hit_rate",
        (after.cache_hits - before.cache_hits) as f64 / lookups as f64,
    );
    let served = (after.queries - before.queries).max(1) as f64;
    for (name, (a, b)) in adapter::ROUTES.iter().zip(after.routes.iter().zip(before.routes)) {
        out.value(&format!("serve.route_share.{name}"), (a - b) as f64 / served);
    }
    let (mut plain_qps, mut traced_qps) = (Vec::new(), Vec::new());
    let mut scratch = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        rung(&default, &stream)?;
        plain_qps.push(stream.len() as f64 / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for (i, q) in stream.iter().enumerate() {
            let span = adapter::span_open("bench.query");
            default.query_spanned(q, &span)?;
            span.finish();
            if i % 64 == 63 {
                collect_spans(&mut scratch);
            }
        }
        traced_qps.push(stream.len() as f64 / t0.elapsed().as_secs_f64());
        scratch.clear();
    }
    out.value(
        "obs.trace_overhead_pct",
        100.0 * (1.0 - stats::median(&traced_qps) / stats::median(&plain_qps)),
    );
    drop(default);

    // --- the wire rung: the W = 2 engine moves behind the socket ------------
    let server = Server::start_engine(w2)?;
    let result = wire(out, &server, &stream, p50(&w2_us));
    server.shutdown();
    result
}

/// One pass of the stream through an engine, each query timed.
fn rung(engine: &Engine, stream: &[Query]) -> Result<Vec<f64>, String> {
    time_each(stream.len(), |i| engine.query(&stream[i]))
}

fn wire(out: &mut Layers, server: &Server, stream: &[Query], w2_p50_us: f64) -> Result<(), String> {
    let mut client = Client::connect(server.addr())?;
    out.median("net.ping_rtt_us", &time_each(2000, |_| client.ping())?);
    let wire_us = time_each(stream.len(), |i| client.topk(&stream[i]))?;
    out.median("ladder.wire_us", &wire_us);
    out.value("net.wire_tax_us", p50(&wire_us) - w2_p50_us);
    out.median("obs.metrics_scrape_us", &time_each(50, |_| client.metrics())?);

    // The span trees that cross the socket: client.topk ▸ server.request ▸
    // engine.query ▸ shard.probe. No timers of the benchmark's own. The
    // four numbers are a typical operation's blocking times, so they add
    // up to the traced p50 as the rungs above are p50s.
    client.trace();
    adapter::drain_spans();
    let mut spans = Vec::new();
    for (i, q) in stream.iter().enumerate() {
        client.topk(q)?;
        if i % 64 == 63 {
            collect_spans(&mut spans);
        }
    }
    collect_spans(&mut spans);
    let b = trace::breakdown(&spans);
    out.value("net.client_socket_us", b.typical_us("client.topk"));
    out.value("net.server_queue_us", b.typical_us("server.request"));
    out.value("net.engine_us", b.typical_us("engine.query"));
    out.value("net.shard_probe_us", b.typical_us("shard.probe"));
    drop(client);

    // Two connections × depth 4, the `zipf_wire` shape: p50 per request in
    // flight stays flat when one serialized stage owns the latency.
    let (clients, depth) = (2usize, 4usize);
    let half = stream.len() / clients;
    let runs: Vec<Result<adapter::PipelineRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let part = &stream[c * half..(c + 1) * half];
                let addr = server.addr();
                scope.spawn(move || Client::connect(addr)?.pipeline(part, depth))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pipelined client panicked")).collect()
    });
    let mut latencies = Vec::new();
    let mut busy = 0;
    for r in runs {
        let r = r?;
        busy += r.busy_retries;
        latencies.extend(r.latencies_us);
    }
    out.value("net.busy_retries", busy as f64);
    out.value("net.inflight_p50_us_per_depth", p50(&latencies) / (clients * depth) as f64);

    // One TOPK exchange through the codec alone (k = 20 reply).
    let reply: adapter::Answer = (0..K as u32).map(|i| (i, 1000.0 - f64::from(i))).collect();
    let (req_bytes, resp_bytes) = adapter::encode_exchange(&stream[0], &reply)?;
    out.set(
        "net.frame_encode_ns",
        ns_per_call(50_000, |_| {
            std::hint::black_box(adapter::encode_exchange(&stream[0], &reply).ok());
        }),
    );
    out.set(
        "net.frame_decode_ns",
        ns_per_call(50_000, |_| {
            std::hint::black_box(adapter::decode_exchange(&req_bytes, &resp_bytes).ok());
        }),
    );
    Ok(())
}
