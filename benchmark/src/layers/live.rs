//! Live, curve and WAL probes: the `live_wire` trace at probe scale,
//! driven in process (`IngestEngine::append_batch` / `query` from one
//! thread), checkpointed and booted both ways, then once more over the
//! wire to see what the appender costs the reader.

use super::{ns_per_call, p50, time_each, Layers};
use crate::adapter::{self, AppendTrace, Client, Live, LiveSpec, Server, Tick, Wal};
use crate::stats;
use crate::workloads::{Run, K};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const TICKERS: usize = 200;
const BASE_DAYS: usize = 24;
/// Triples the mass: each shard rebuilds twice at the 1.5× policy.
const APPENDED_DAYS: usize = 48;
const BATCH: usize = 32;
/// Rescoring windows of the kernel probe.
const WINDOWS: usize = 40;

pub fn run(run: &Run, out: &mut Layers) -> Result<(), String> {
    let trace = AppendTrace::stock(run.size(TICKERS), BASE_DAYS, APPENDED_DAYS, run.seed);
    let base = trace.base();
    let full = trace.full();
    let batches: Vec<&[Tick]> = trace.ticks().chunks(BATCH).collect();
    // Mixed exact / ε-tolerant hot-spot queries over the final domain, so
    // the staleness-audited cache and its invalidations are exercised.
    let queries = adapter::zipf_mixed_streams(full.domain(), 1, batches.len(), K, run.seed + 1)
        .pop()
        .expect("one client stream");

    // --- in process: one batch, one query, repeat ---------------------------
    let spec = LiveSpec { workers: 2, wal_dir: run.scratch("probe-live")? };
    let mut live = Live::open(&base, &spec)?;
    let mut append_us = Vec::with_capacity(batches.len());
    let mut query_us = Vec::with_capacity(batches.len());
    for (batch, q) in batches.iter().zip(&queries) {
        let t = Instant::now();
        live.append(batch)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        live.query(q)?;
        query_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.median("live.append_batch_us", &append_us);
    out.median("live.query_us", &query_us);
    let c = live.counters();
    out.value("live.rebuilds", c.rebuilds as f64);
    out.value("live.rebuild_build_s", c.build_s);
    out.value("live.swap_pause_max_us", c.swap_pause_max_us as f64);
    out.value("live.queries_during_rebuild", c.queries_during_rebuild as f64);
    out.value("live.tail_segments_final", c.tail_segments as f64);
    out.value("live.cache_invalidations", c.cache_invalidations as f64);
    out.value("storage.wal_writes_per_batch", c.wal_writes as f64 / c.batches.max(1) as f64);
    let t0 = Instant::now();
    live.checkpoint()?;
    out.value("live.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(live);
    let boots = time_each(3, |_| {
        let live = Live::open(&base, &spec)?;
        let c = live.counters();
        if c.preloaded_shards != spec.workers as u64 || c.segments != full.segments() {
            return Err(format!(
                "image boot preloaded {} shards and recovered {} of {} segments",
                c.preloaded_shards,
                c.segments,
                full.segments()
            ));
        }
        Ok(())
    })?;
    out.value("live.image_boot_ms", p50(&boots) / 1e3);
    std::fs::remove_dir_all(&spec.wal_dir).ok();

    // --- the same trace with no checkpoint: boot by WAL replay --------------
    let spec = LiveSpec { workers: 2, wal_dir: run.scratch("probe-replay")? };
    let mut live = Live::open(&base, &spec)?;
    for batch in &batches {
        live.append(batch)?;
    }
    drop(live);
    let t0 = Instant::now();
    let live = Live::open(&base, &spec)?;
    out.value("live.replay_boot_ms", t0.elapsed().as_secs_f64() * 1e3);
    if live.counters().segments != full.segments() {
        return Err("WAL replay lost acknowledged ticks".into());
    }
    drop(live);
    std::fs::remove_dir_all(&spec.wal_dir).ok();

    wire_share(run, out, &trace, &batches)?;

    // --- curve: the columnar kernel against the row walk ---------------------
    let windows: Vec<(f64, f64)> =
        adapter::uniform_queries(full.domain(), WINDOWS, 0.2, K, run.seed + 2)
            .iter()
            .map(|q| (q.t1, q.t2))
            .collect();
    let per_segment = (full.segments() * WINDOWS as u64) as f64;
    let columnar = full.columnar();
    let mut scores = Vec::new();
    let multi = ns_per_call(1, |_| {
        std::hint::black_box(columnar.integral_multi(&windows, &mut scores));
    });
    let scalar = ns_per_call(1, |_| {
        std::hint::black_box(full.scalar_integrals(&windows));
    });
    out.set("curve.integral_multi_ns_per_seg", multi.scaled(1.0 / per_segment));
    out.set("curve.integral_scalar_ns_per_seg", scalar.scaled(1.0 / per_segment));
    let mut tail = base.columnar();
    let t0 = Instant::now();
    for tick in trace.ticks() {
        tail.append(tick)?;
    }
    out.value(
        "curve.tail_append_ns",
        t0.elapsed().as_secs_f64() * 1e9 / trace.ticks().len() as f64,
    );

    // --- storage: one WAL group commit on a real file -------------------------
    let dir = run.scratch("probe-wal")?;
    let mut wal = Wal::create(&dir.join("probe.wal"))?;
    let commits = time_each(batches.len().min(300), |i| wal.commit(batches[i]))?;
    out.median("storage.wal_append_sync_us", &commits);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Wire query throughput with the appender running ÷ without it, and the
/// append tail latency of that write-beside-read phase.
fn wire_share(
    run: &Run,
    out: &mut Layers,
    trace: &AppendTrace,
    batches: &[&[Tick]],
) -> Result<(), String> {
    let spec = LiveSpec { workers: 2, wal_dir: run.scratch("probe-live-wire")? };
    let server = Server::start_live(&trace.base(), &spec)?;
    let queries = adapter::hotspot_queries(trace.full().domain(), 1024, K, run.seed + 1);
    let result = (|| {
        let mut reader = Client::connect(server.addr())?;
        let mut appender = Client::connect(server.addr())?;
        let alone = queries.len().min(batches.len());
        let t0 = Instant::now();
        for q in &queries[..alone] {
            reader.topk(q)?;
        }
        let qps_alone = alone as f64 / t0.elapsed().as_secs_f64();

        let done = AtomicBool::new(false);
        let t0 = Instant::now();
        let (append_us, query_us) = std::thread::scope(|scope| {
            let (done, queries) = (&done, &queries);
            let reading = scope.spawn(move || {
                let mut lat = Vec::new();
                for q in queries.iter().cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let t = Instant::now();
                    reader.topk(q)?;
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                }
                Ok::<Vec<f64>, String>(lat)
            });
            let appended = time_each(batches.len(), |i| appender.append(batches[i]));
            done.store(true, Ordering::Release);
            let read = reading.join().expect("query thread panicked");
            Ok::<_, String>((appended?, read?))
        })?;
        let qps_beside = query_us.len() as f64 / t0.elapsed().as_secs_f64();
        out.value("live.wire_query_share", qps_beside / qps_alone);
        let p99 = |mut lat: Vec<f64>| {
            lat.sort_by(f64::total_cmp);
            stats::Measured::over(stats::percentile(&lat, 0.99), lat.len() as u64)
        };
        out.set("diag.append_p99_us", p99(append_us));
        Ok(())
    })();
    server.shutdown();
    std::fs::remove_dir_all(&spec.wal_dir).ok();
    result
}
