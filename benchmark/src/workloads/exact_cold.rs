//! `exact_cold`: uniform random exact queries against pools far smaller
//! than the index, one client. Index and storage (interval-tree / B+-tree
//! descent, pool misses) do nearly all the work; planner, result cache
//! and net do none. A single client makes block-read counts repeat
//! exactly.

use super::{closed_loop, finish_setups, sample_indices, Outcome, Run, SpanBuffer, K};
use crate::adapter::{self, Dataset, Engine, EngineSpec};
use crate::stats::{self, Measured};
use std::time::Instant;

/// Temp objects and average segments per object (N ≈ 4·10⁵).
const OBJECTS: usize = 4000;
const AVG_SEGMENTS: usize = 100;
/// Frames per index file: the ~80 MB of indexes dwarf them.
const POOL_FRAMES: usize = 64;
/// Queries per slice and second of `--seconds` (≈ 6.0k q/s on the
/// reference host, six slices).
const SLICE_OPS_PER_SECOND: f64 = 1000.0;

pub fn run(run: &Run) -> Result<Outcome, String> {
    let spec = EngineSpec { workers: 2, pool_frames: Some(POOL_FRAMES), cache_entries: None };
    let mut out = Outcome::default();

    let setup = || -> Result<(Dataset, Engine, (f64, f64)), String> {
        let t0 = Instant::now();
        let set = Dataset::temp(run.size(OBJECTS), AVG_SEGMENTS, run.seed);
        let engine = Engine::build(&set, &spec)?;
        let timings = (t0.elapsed().as_secs_f64(), engine.counters().build_s);
        Ok((set, engine, timings))
    };
    let (set, engine, first_setup) = setup()?;
    out.fact("segments", set.segments());
    out.fact("index_bytes", engine.counters().index_bytes);

    let per_slice = run.ops(SLICE_OPS_PER_SECOND);
    let slices = run.measured_slices();
    let queries =
        adapter::uniform_queries(set.domain(), per_slice * (slices + 1), 0.2, K, run.seed + 1);
    let spans = SpanBuffer::default();
    let op = |_client: usize, i: usize| {
        if !run.traced {
            return engine.query(&queries[i]).map(drop);
        }
        let span = adapter::span_open("bench.query");
        let got = engine.query_spanned(&queries[i], &span).map(drop);
        span.finish();
        if i % 64 == 63 {
            spans.collect();
        }
        got
    };
    let mut warm = engine.counters();
    let (measured, failed) = closed_loop(slices, 1, per_slice, op, || {
        warm = engine.counters();
        spans.discard();
    });
    let after = engine.counters();
    out.spans = spans.finish();

    let agg = stats::aggregate(&measured);
    out.set("query_qps", agg.rate_per_s);
    out.set("query_p50_us", agg.p50_us);
    out.set("query_p95_us", agg.p95_us);
    out.set("query_p99_us", agg.p99_us);
    let measured_queries = (after.queries - warm.queries).max(1);
    let reads = (after.reads - warm.reads) as f64 / measured_queries as f64;
    out.set("reads_per_query", Measured::over(reads, measured_queries));
    out.set(
        "index_bytes_per_segment",
        Measured::single(after.index_bytes as f64 / set.segments() as f64),
    );
    out.set("peak_rss_mb", Measured::single(super::peak_rss_mb()));

    // Exact answers against brute force over the raw curves.
    let sample = sample_indices(queries.len(), super::VERIFY_SAMPLE);
    let mut verify_failed = 0;
    for &i in &sample {
        let want = set.brute_force(&queries[i]);
        match engine.query(&queries[i]) {
            Ok((got, _)) => out.check(super::answers_agree(&want, &got), || format!("query {i}")),
            Err(e) => {
                eprintln!("verification query {i} failed: {e}");
                verify_failed += 1;
            }
        }
    }
    out.attempted = (queries.len() + sample.len()) as u64;
    out.failed = failed + verify_failed;
    drop((set, engine));
    finish_setups(run, &mut out, first_setup, || setup().map(|(_, _, timings)| timings))?;
    Ok(out)
}
