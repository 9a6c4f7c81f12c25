//! `zipf_inproc` and `zipf_wire`: the same engine configuration and the
//! same skewed mixed stream, once through `ServeEngine::query_routed` and
//! once through the loopback wire.
//!
//! * `zipf_inproc` — library-default pools and result cache, eight Zipf
//!   hot spots, exact and ε-tolerant queries alternating, two client
//!   threads. The tolerant half is served from the result cache and the
//!   exact half from warm pools, so planner, cache, scatter/reply
//!   channels and the k-way merge are the cost. This is the serve-layer
//!   workload and the in-process rung under the wire.
//! * `zipf_wire` — a prefix of the same streams over
//!   `NetServer::start_serve(NetConfig::default())`, two connections ×
//!   pipeline depth 4. `zipf_inproc ÷ zipf_wire` is the wire tax: frame
//!   codec, admission queue, engine-thread hand-off and socket writes
//!   dominate. A serve-layer speed-up should move `zipf_inproc` and
//!   barely move this one until the wire is fixed.

use super::{closed_loop, finish_setups, sample_indices, Outcome, Run, SpanBuffer, K};
use crate::adapter::{self, Client, Dataset, Engine, EngineCounters, EngineSpec, Query, Server};
use crate::stats::{self, Measured, Slice};
use std::time::Instant;

const OBJECTS: usize = 4000;
const AVG_SEGMENTS: usize = 100;
/// Client threads / connections (the host has two cores).
const CLIENTS: usize = 2;
/// Requests each connection keeps in flight on the wire.
const DEPTH: usize = 4;
/// Queries per client, slice and second of `--seconds`: ≈ 15k q/s in
/// process and ≈ 9.3k q/s over the wire on the reference host.
const INPROC_SLICE_OPS_PER_SECOND: f64 = 1250.0;
const WIRE_SLICE_OPS_PER_SECOND: f64 = 780.0;

/// Library defaults throughout: two shards are the only override.
const SPEC: EngineSpec = EngineSpec { workers: 2, pool_frames: None, cache_entries: None };

fn dataset(run: &Run) -> Dataset {
    Dataset::temp(run.size(OBJECTS), AVG_SEGMENTS, run.seed)
}

/// Both workloads draw from this one generator, so the wire stream is a
/// prefix of the in-process one.
fn streams(run: &Run, set: &Dataset, per_client: usize) -> Vec<Vec<Query>> {
    adapter::zipf_mixed_streams(set.domain(), CLIENTS, per_client, K, run.seed + 1)
}

pub fn run_inproc(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup = || -> Result<(Dataset, Engine, (f64, f64)), String> {
        let t0 = Instant::now();
        let set = dataset(run);
        let engine = Engine::build(&set, &SPEC)?;
        let timings = (t0.elapsed().as_secs_f64(), engine.counters().build_s);
        Ok((set, engine, timings))
    };
    let (set, engine, first_setup) = setup()?;

    let per_slice = run.ops(INPROC_SLICE_OPS_PER_SECOND);
    let slices = run.measured_slices();
    let streams = streams(run, &set, per_slice * (slices + 1));
    let spans = SpanBuffer::default();
    let op = |client: usize, i: usize| {
        let q = &streams[client][i];
        if !run.traced {
            return engine.query(q).map(drop);
        }
        let span = adapter::span_open("bench.query");
        let got = engine.query_spanned(q, &span).map(drop);
        span.finish();
        if client == 0 && i % 32 == 31 {
            spans.collect();
        }
        got
    };
    let mut warm = engine.counters();
    let (measured, failed) = closed_loop(slices, CLIENTS, per_slice, op, || {
        warm = engine.counters();
        spans.discard();
    });
    let after = engine.counters();
    out.spans = spans.finish();
    out.set("peak_rss_mb", Measured::single(super::peak_rss_mb()));

    report_phase(&mut out, &measured, &set, warm, after);

    // Re-issue a sample: exact answers against brute force, tolerant
    // answers scored for precision.
    let sample = sample_indices(streams[0].len(), 2 * super::VERIFY_SAMPLE);
    let mut verify_failed = 0;
    let answers: Vec<_> = sample
        .iter()
        .map(|&i| match engine.query(&streams[0][i]) {
            Ok((got, _)) => Some(got),
            Err(e) => {
                eprintln!("verification query {i} failed: {e}");
                verify_failed += 1;
                None
            }
        })
        .collect();
    verify(&mut out, &set, &streams[0], &sample, &answers);
    out.attempted = (CLIENTS * streams[0].len() + sample.len()) as u64;
    out.failed = failed + verify_failed;
    drop((set, engine));
    finish_setups(run, &mut out, first_setup, || setup().map(|(_, _, timings)| timings))?;
    Ok(out)
}

pub fn run_wire(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // `control` is a third, idle connection used only to scrape counters.
    let setup = || -> Result<(Dataset, Server, Client, (f64, f64)), String> {
        let t0 = Instant::now();
        let set = dataset(run);
        let server = Server::start_serve(&set, &SPEC)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let mut control = Client::connect(server.addr())?;
        let build_s = control.engine_counters()?.build_s;
        Ok((set, server, control, (setup_s, build_s)))
    };
    let (set, server, mut control, first_setup) = setup()?;

    let per_slice = run.ops(WIRE_SLICE_OPS_PER_SECOND);
    let slices = run.measured_slices();
    let streams = streams(run, &set, per_slice * (slices + 1));
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = Client::connect(server.addr())?;
        if run.traced {
            c.trace();
        }
        clients.push(c);
    }

    // The sampled answers of connection 0, captured as they come off the wire.
    let sample = sample_indices(streams[0].len(), 2 * super::VERIFY_SAMPLE);
    let mut captured = vec![None; sample.len()];
    let mut measured = Vec::new();
    let mut failed = 0u64;
    let mut busy_retries = 0u64;
    let spans = SpanBuffer::default();
    let mut warm = control.engine_counters()?;
    for slice in 0..=slices {
        let range = slice * per_slice..(slice + 1) * per_slice;
        let t0 = Instant::now();
        let runs: Vec<Result<adapter::PipelineRun, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&streams)
                .map(|(client, stream)| {
                    let part = &stream[range.clone()];
                    let (traced, spans) = (run.traced, &spans);
                    scope.spawn(move || {
                        if traced {
                            traced_loop(client, part, spans)
                        } else {
                            client.pipeline(part, DEPTH)
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let elapsed_s = t0.elapsed().as_secs_f64();
        let mut latencies_us = Vec::new();
        for (client, result) in runs.into_iter().enumerate() {
            match result {
                Ok(r) => {
                    busy_retries += r.busy_retries;
                    latencies_us.extend(r.latencies_us);
                    if client == 0 {
                        for (slot, &i) in captured.iter_mut().zip(&sample) {
                            if range.contains(&i) {
                                *slot = Some(r.answers[i - range.start].answer.clone());
                            }
                        }
                    }
                }
                // A typed error or exhausted BUSY retries abort the whole
                // pipelined slice of that connection.
                Err(e) => {
                    eprintln!("connection {client} slice {slice} failed: {e}");
                    failed += per_slice as u64;
                }
            }
        }
        if slice == 0 {
            warm = control.engine_counters()?;
            spans.discard();
        } else {
            measured.push(Slice { elapsed_s, latencies_us });
        }
    }
    let after = control.engine_counters()?;
    out.spans = spans.finish();
    drop((clients, control));
    server.shutdown();
    out.set("peak_rss_mb", Measured::single(super::peak_rss_mb()));
    out.fact("busy_retries", busy_retries);
    report_phase(&mut out, &measured, &set, warm, after);

    // Wire answers must be bit-identical to an in-process engine of the
    // same configuration; exact ones must also agree with brute force.
    let reference = Engine::build(&set, &SPEC)?;
    for (slot, &i) in captured.iter().zip(&sample) {
        let (want, _) = reference.query(&streams[0][i])?;
        match slot {
            Some(got) => out.check(super::bit_identical(&want, got), || {
                format!("wire answer to query {i} differs from the in-process engine")
            }),
            None => failed += 1,
        }
    }
    verify(&mut out, &set, &streams[0], &sample, &captured);
    out.attempted = (CLIENTS * streams[0].len() + sample.len()) as u64;
    out.failed = failed;
    drop((set, reference));
    finish_setups(run, &mut out, first_setup, || {
        let (_, server, control, timings) = setup()?;
        drop(control);
        server.shutdown();
        Ok(timings)
    })?;
    Ok(out)
}

/// `pipeline_topk` cannot carry trace context, so the traced slice sends
/// synchronous traced TOPKs (depth 1) instead.
fn traced_loop(
    client: &mut Client,
    queries: &[Query],
    spans: &SpanBuffer,
) -> Result<adapter::PipelineRun, String> {
    let mut answers = Vec::with_capacity(queries.len());
    let mut latencies_us = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        answers.push(client.topk(q)?);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        if i % 32 == 31 {
            // Both connections drain; every span lands in the one buffer.
            spans.collect();
        }
    }
    Ok(adapter::PipelineRun { answers, latencies_us, busy_retries: 0 })
}

/// Throughput, latency and the counter-derived metrics of one phase.
fn report_phase(
    out: &mut Outcome,
    measured: &[Slice],
    set: &Dataset,
    warm: EngineCounters,
    after: EngineCounters,
) {
    let agg = stats::aggregate(measured);
    out.set("query_qps", agg.rate_per_s);
    out.set("query_p50_us", agg.p50_us);
    out.set("query_p95_us", agg.p95_us);
    out.set("query_p99_us", agg.p99_us);
    let queries = (after.queries - warm.queries).max(1);
    let reads = (after.reads - warm.reads) as f64 / queries as f64;
    out.set("reads_per_query", Measured::over(reads, queries));
    out.set(
        "index_bytes_per_segment",
        Measured::single(after.index_bytes as f64 / set.segments() as f64),
    );
    let lookups = (after.cache_lookups - warm.cache_lookups).max(1);
    out.fact("segments", set.segments());
    out.fact("cache_hit_rate", (after.cache_hits - warm.cache_hits) as f64 / lookups as f64);
    for (name, (a, w)) in adapter::ROUTES.iter().zip(after.routes.iter().zip(warm.routes)) {
        out.fact(&format!("route_share.{name}"), (a - w) as f64 / queries as f64);
    }
}

/// Exact answers must agree with brute force; tolerant answers give
/// `appx_precision`.
fn verify(
    out: &mut Outcome,
    set: &Dataset,
    stream: &[Query],
    sample: &[usize],
    answers: &[Option<adapter::Answer>],
) {
    let mut precision = Vec::new();
    for (&i, got) in sample.iter().zip(answers) {
        let Some(got) = got else { continue };
        let q = &stream[i];
        let want = set.brute_force(q);
        if q.eps.is_none() {
            out.check(super::answers_agree(&want, got), || format!("exact query {i}"));
        } else {
            precision.push(adapter::precision(&want, got));
        }
    }
    let mean = precision.iter().sum::<f64>() / precision.len().max(1) as f64;
    out.set("appx_precision", Measured::over(mean, precision.len() as u64));
}
