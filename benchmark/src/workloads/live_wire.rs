//! `live_wire`: writes beside reads over the wire. One connection appends
//! a fixed number of 32-tick `APPEND_BATCH`es closed-loop to a live server
//! (W = 2, WAL on a real directory, rebuild at 1.5× mass); a second
//! connection issues exact hot-spot queries closed-loop until the
//! appender finishes; then `checkpoint`, shutdown, and image boots from
//! the same directory.
//!
//! The same net and engine layers as `zipf_wire`, now with the
//! `RwLock<IngestEngine>` writer preference, WAL group commit,
//! columnar-tail rescoring and epoch-swapped rebuilds in play. A
//! read-path gain that costs ingest, or the reverse, shows here and
//! nowhere else.

use super::{collect_spans, sample_indices, setup_metric, Outcome, Run, K};
use crate::adapter::{self, Answer, AppendTrace, Client, Dataset, Live, LiveSpec, Query, Server};
use crate::stats::{self, Measured, Slice};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const TICKERS: usize = 600;
const BASE_DAYS: usize = 24;
/// Ticks per `APPEND_BATCH`.
const BATCH: usize = 32;
/// Days appended per slice and second of `--seconds`: 600 tickers × 8
/// readings × 2 days = 9600 ticks, ≈ 60k acked ticks/s on the reference
/// host with six slices. The full run grows the mass about 6×, so each
/// of the two shards rebuilds four times.
const SLICE_DAYS_PER_SECOND: f64 = 2.0;
/// Set-ups timed for `setup_s` (≈ 0.12 s each).
const SETUPS: usize = 7;
/// Image boots timed for `recover_s`.
const BOOTS: usize = 5;
/// Every n-th answer is kept as a verification candidate.
const KEEP_EVERY: usize = 16;

/// One kept answer: what was asked, how many ticks the server had
/// applied, and what it said.
struct Kept {
    query: Query,
    appends_applied: u64,
    answer: Answer,
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let slices = run.measured_slices();
    let slice_days = ((SLICE_DAYS_PER_SECOND * run.seconds).ceil() as usize).max(1);
    let tickers = run.size(TICKERS);

    let setup = || -> Result<(AppendTrace, Dataset, LiveSpec, Server, f64), String> {
        let wal_dir = run.scratch("live-wal")?;
        let t0 = Instant::now();
        let trace = AppendTrace::stock(tickers, BASE_DAYS, slice_days * (slices + 1), run.seed);
        let base = trace.base();
        let spec = LiveSpec { workers: 2, wal_dir };
        let server = Server::start_live(&base, &spec)?;
        Ok((trace, base, spec, server, t0.elapsed().as_secs_f64()))
    };
    let (trace, base, spec, server, first_setup) = setup()?;
    let full = trace.full();
    let ticks = trace.ticks();
    let batches: Vec<&[adapter::Tick]> = ticks.chunks(BATCH).collect();
    let per_slice = batches.len() / (slices + 1);
    out.fact("base_segments", base.segments());
    out.fact("appended_ticks", ticks.len());

    let queries = adapter::hotspot_queries(full.domain(), 4096, K, run.seed + 1);
    let mut control = Client::connect(server.addr())?;
    let mut appender = Client::connect(server.addr())?;
    let mut reader = Client::connect(server.addr())?;
    if run.traced {
        appender.trace();
        reader.trace();
    }
    let before = control.live_counters()?;

    // --- ingest beside queries -------------------------------------------
    let done = AtomicBool::new(false);
    // (slice start instants …, end instant), append slices, acked, failed
    let (bounds, append_slices, acked, append_failed, reads, mut spans) =
        std::thread::scope(|scope| {
            let done = &done;
            let queries = &queries;
            let traced = run.traced;
            let reader_handle = scope.spawn(move || {
                // (completion instant, latency µs) per answered query.
                let mut samples: Vec<(Instant, f64)> = Vec::new();
                let mut kept: Vec<Kept> = Vec::new();
                let mut failed = 0u64;
                let mut spans = Vec::new();
                for (n, q) in queries.iter().cycle().enumerate() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let t = Instant::now();
                    match reader.topk(q) {
                        Ok(a) => {
                            samples.push((Instant::now(), t.elapsed().as_secs_f64() * 1e6));
                            if n % KEEP_EVERY == 0 {
                                kept.push(Kept {
                                    query: *q,
                                    appends_applied: a.appends_applied,
                                    answer: a.answer,
                                });
                            }
                        }
                        Err(e) => {
                            eprintln!("concurrent query failed: {e}");
                            failed += 1;
                        }
                    }
                    if traced && n % 32 == 31 {
                        collect_spans(&mut spans);
                    }
                }
                (samples, kept, failed, spans)
            });

            let mut bounds = vec![Instant::now()];
            let mut append_slices = Vec::new();
            let (mut acked, mut failed) = (0u64, 0u64);
            let mut spans = Vec::new();
            for slice in 0..=slices {
                let mut latencies_us = Vec::with_capacity(per_slice);
                // The last slice also takes the few batches left over.
                let end = if slice == slices { batches.len() } else { (slice + 1) * per_slice };
                for (n, batch) in batches[slice * per_slice..end].iter().enumerate() {
                    let t = Instant::now();
                    match appender.append(batch) {
                        Ok(n) => {
                            acked += n;
                            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        Err(e) => {
                            eprintln!("append failed: {e}");
                            failed += 1;
                        }
                    }
                    if traced && n % 32 == 31 {
                        collect_spans(&mut spans);
                    }
                }
                let now = Instant::now();
                let elapsed_s = (now - *bounds.last().expect("one bound")).as_secs_f64();
                bounds.push(now);
                if slice > 0 {
                    append_slices.push(Slice { elapsed_s, latencies_us });
                }
            }
            done.store(true, Ordering::Release);
            let reads = reader_handle.join().expect("query thread panicked");
            (bounds, append_slices, acked, failed, reads, spans)
        });
    let (samples, kept, query_failed, reader_spans) = reads;
    collect_spans(&mut spans);
    spans.extend(reader_spans);
    out.spans = spans;
    let after = control.live_counters()?;
    out.set("peak_rss_mb", Measured::single(super::peak_rss_mb()));

    // Queries fall into the appender's slices by completion time.
    let query_slices: Vec<Slice> = (1..=slices)
        .map(|s| Slice {
            elapsed_s: (bounds[s + 1] - bounds[s]).as_secs_f64(),
            latencies_us: samples
                .iter()
                .filter(|(at, _)| *at >= bounds[s] && *at < bounds[s + 1])
                .map(|&(_, lat)| lat)
                .collect(),
        })
        .filter(|s| !s.latencies_us.is_empty())
        .collect();
    if query_slices.is_empty() {
        return Err("no query completed during ingest".into());
    }
    // The slices differ by design (the data grows; rebuilds land in some
    // and not others), so rates and percentiles pool the measured phase.
    let q = stats::aggregate_pooled(&query_slices);
    out.set("query_qps", q.rate_per_s);
    out.set("query_p50_us", q.p50_us);
    out.set("query_p95_us", q.p95_us);
    out.set("query_p99_us", q.p99_us);
    let a = stats::aggregate_pooled(&append_slices);
    out.set("ingest_ticks_per_s", a.rate_per_s.scaled(BATCH as f64));
    out.set("append_p50_us", a.p50_us);
    out.set("append_p99_us", a.p99_us);

    let served = (after.queries - before.queries).max(1);
    let reads = (after.index_reads - before.index_reads) as f64 / served as f64;
    out.set("reads_per_query", Measured::over(reads, served));
    let rebuild_s = after.build_s - before.build_s;
    out.set(
        "index_bytes_per_segment",
        Measured::single(after.index_bytes as f64 / full.segments() as f64),
    );
    let wal_bytes = std::fs::metadata(spec.wal_dir.join("wal.blk"))
        .map_err(|e| format!("stat wal.blk: {e}"))?
        .len();
    out.set("wal_bytes_per_tick", Measured::single(wal_bytes as f64 / acked.max(1) as f64));
    out.fact("acked_ticks", acked);
    out.fact("queries_during_ingest", samples.len());
    out.fact("rebuilds", after.rebuilds - before.rebuilds);
    out.fact("rebuilds_in_flight_at_end", after.rebuilds_in_flight);
    out.fact("queries_during_rebuild", after.queries_during_rebuild);
    out.fact("swap_pause_max_us", after.swap_pause_max_us);
    out.fact("tail_segments_final", after.tail_segments);
    out.fact("wal_block_writes_per_batch", {
        (after.wal_writes - before.wal_writes) as f64
            / (after.batches - before.batches).max(1) as f64
    });

    // --- checkpoint, shutdown, image boot --------------------------------
    let domain = full.domain();
    let probe =
        Query { t1: domain.0 + 0.25 * (domain.1 - domain.0), t2: domain.1, k: K, eps: None };
    let want = control.topk(&probe)?.answer;
    control.checkpoint()?;
    drop((control, appender));
    server.shutdown();
    let boot_failed = image_boots(&mut out, &base, &spec, &probe, &want, acked)?;
    std::fs::remove_dir_all(&spec.wal_dir).ok();
    let picked = sample_indices(kept.len(), super::VERIFY_SAMPLE);
    verify_prefixes(&mut out, &base, ticks, picked.iter().map(|&i| &kept[i]).collect())?;
    out.check(acked == ticks.len() as u64 - append_failed * BATCH as u64, || {
        format!("{acked} ticks acked of {} sent", ticks.len())
    });

    out.attempted =
        (batches.len() + samples.len() + BOOTS + picked.len()) as u64 + query_failed + 1;
    out.failed = append_failed + query_failed + boot_failed;

    // build_s is the off-thread rebuild time of the one measured ingest;
    // only set-up repeats.
    let mut setup_s = vec![first_setup];
    for _ in 1..run.setup_repeats(SETUPS) {
        let (_, _, spec, server, secs) = setup()?;
        server.shutdown();
        std::fs::remove_dir_all(&spec.wal_dir).ok();
        setup_s.push(secs);
    }
    out.set("setup_s", setup_metric(&setup_s));
    out.set("build_s", Measured::single(rebuild_s));
    Ok(out)
}

/// Boot [`BOOTS`] times from the checkpointed directory: `recover_s` is
/// the median time to the first answer, which must reproduce the
/// pre-shutdown probe bit for bit. Every acked tick must be in the
/// recovered set, and it must have come from the image, not a rebuild.
/// Returns the probes that failed outright.
fn image_boots(
    out: &mut Outcome,
    base: &Dataset,
    spec: &LiveSpec,
    probe: &Query,
    want: &Answer,
    acked: u64,
) -> Result<u64, String> {
    let mut recover_s = Vec::new();
    let mut failed = 0;
    for boot in 0..BOOTS {
        let t0 = Instant::now();
        let live = Live::open(base, spec)?;
        let got = live.query(probe);
        recover_s.push(t0.elapsed().as_secs_f64());
        let counters = live.counters();
        match got {
            Ok(got) => out.check(super::bit_identical(want, &got), || {
                format!("boot {boot}: the pre-shutdown probe is not reproduced")
            }),
            Err(e) => {
                eprintln!("boot {boot}: probe failed: {e}");
                failed += 1;
            }
        }
        out.check(counters.segments == base.segments() + acked, || {
            format!(
                "boot {boot}: {} segments recovered, {} base + {acked} acked expected",
                counters.segments,
                base.segments()
            )
        });
        out.check(counters.preloaded_shards == spec.workers as u64, || {
            format!("boot {boot}: {} shards preloaded from the image", counters.preloaded_shards)
        });
    }
    out.set("recover_s", Measured::of(&recover_s, BOOTS as u64));
    Ok(failed)
}

/// Each kept answer against brute force over a bulk build of exactly the
/// prefix the server said it had applied: bit-identical.
fn verify_prefixes(
    out: &mut Outcome,
    base: &Dataset,
    ticks: &[adapter::Tick],
    mut picked: Vec<&Kept>,
) -> Result<(), String> {
    picked.sort_by_key(|k| k.appends_applied);
    let mut oracle = base.clone();
    let mut applied = 0usize;
    for k in picked {
        for tick in &ticks[applied..k.appends_applied as usize] {
            oracle.apply(tick)?;
        }
        applied = k.appends_applied as usize;
        let want = oracle.brute_force(&k.query);
        out.check(super::bit_identical(&want, &k.answer), || {
            format!("answer at {applied} applied ticks differs from a bulk build of that prefix")
        });
    }
    Ok(())
}
