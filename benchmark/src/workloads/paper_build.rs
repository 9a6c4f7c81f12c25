//! `paper_build`: the paper's own experiment. A Meme-shaped dataset
//! (n_avg = 67) is generated as a stream and never materialised; EXACT1,
//! EXACT3, BREAKPOINTS2 and APPX1/APPX2 are built out of core under a
//! memory budget half the dataset's size, then queried cold (pools
//! dropped and IO counter zeroed per query), single-threaded.
//!
//! The only workload where the core build paths, `ExternalSorter`, the
//! bulk loaders and the streaming B2 window do the work; serve, live and
//! net do none.

use super::{sample_indices, setup_metric, Outcome, Run, K};
use crate::adapter::{self, Budget, Meme, Method, Query};
use crate::stats::{self, Measured, Slice};
use std::time::Instant;

/// Objects per second of `--seconds`: N ≈ 2·10⁵ segments per second, so
/// the nominal run streams N ≈ 2·10⁶ (≈ 64 MB of segments).
const OBJECTS_PER_SECOND: f64 = 2985.0;
/// Nominal memory budget: half the nominal dataset, so builds are out of
/// core.
const BUDGET_BYTES: usize = 32 << 20;
/// Breakpoint target of the streaming B2 sweep (`ε = 1/(r−1)`).
pub const R: usize = 64;
/// Cold EXACT3 queries per slice; the other methods answer the first
/// [`OTHER_QUERIES`] of them (EXACT1 half of that — it reads thousands of
/// blocks per query).
const SLICE_QUERIES: usize = 400;
const OTHER_QUERIES: usize = 200;
/// Build rounds; `build_s` is the median round.
const ROUNDS: usize = 3;
/// Generator + `scan_stats` passes timed for `setup_s` (≈ 0.09 s each).
const SCANS: usize = 9;

/// Every streamed build of one round.
pub struct Built {
    pub exact1: Method,
    pub exact3: Method,
    pub appx1: Method,
    pub appx2: Method,
    pub b2_points: usize,
    pub b2_peak_pending: u64,
    /// Seconds per build step, in build order (`exact1`, `exact3`, `b2`,
    /// `appx1`, `appx2`).
    pub steps: [(&'static str, f64); 5],
}

/// Run `f`, timed, inside a span when tracing.
fn timed<T>(
    traced: bool,
    name: &'static str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let span = traced.then(|| adapter::span_open(name));
    let t0 = Instant::now();
    let value = f()?;
    let secs = t0.elapsed().as_secs_f64();
    if let Some(span) = span {
        span.finish();
    }
    Ok((value, secs))
}

/// Stream-build EXACT1, EXACT3, BREAKPOINTS2, APPX1 and APPX2 into fresh
/// directories under the work dir, timing each step.
pub fn build_all(
    run: &Run,
    meme: &Meme,
    stats: &adapter::ScanStats,
    budget: Budget,
) -> Result<Built, String> {
    let root = run.scratch("paper-build")?;
    let t = run.traced;
    let (exact1, e1) = timed(t, "bench.build.exact1", || {
        adapter::build_exact1_streaming(meme, &root.join("exact1"), budget)
    })?;
    let (exact3, e3) = timed(t, "bench.build.exact3", || {
        adapter::build_exact3_streaming(meme, &root.join("exact3"), budget)
    })?;
    let (b2, b2_s) = timed(t, "bench.build.b2", || {
        adapter::b2_stream(meme, stats, &root.join("b2"), budget, R)
    })?;
    let (appx1, a1) = timed(t, "bench.build.appx1", || {
        adapter::build_appx_streaming(meme, &root.join("appx1"), budget, 1, &b2, R)
    })?;
    let (appx2, a2) = timed(t, "bench.build.appx2", || {
        adapter::build_appx_streaming(meme, &root.join("appx2"), budget, 2, &b2, R)
    })?;
    Ok(Built {
        exact1,
        exact3,
        appx1,
        appx2,
        b2_points: b2.count,
        b2_peak_pending: b2.peak_pending_segments,
        steps: [("exact1", e1), ("exact3", e3), ("b2", b2_s), ("appx1", a1), ("appx2", a2)],
    })
}

/// What a batch of cold queries returned and cost, query by query.
pub struct ColdRun {
    pub answers: Vec<adapter::Answer>,
    pub reads: Vec<f64>,
    pub latencies_us: Vec<f64>,
}

/// Cold queries, each timed.
/// A traced caller drains the span ring after every call (a slice is at
/// most [`SLICE_QUERIES`] spans, the ring holds 512).
pub fn cold_queries(traced: bool, method: &Method, queries: &[Query]) -> Result<ColdRun, String> {
    let mut run = ColdRun { answers: Vec::new(), reads: Vec::new(), latencies_us: Vec::new() };
    for q in queries {
        let ((a, r), secs) = timed(traced, "bench.query.cold", || method.cold_top_k(q))?;
        run.answers.push(a);
        run.reads.push(r as f64);
        run.latencies_us.push(secs * 1e6);
    }
    Ok(run)
}

/// One timed set-up: the generator and its `scan_stats` pass.
fn timed_scan(objects: usize, seed: u64, times: &mut Vec<f64>) -> (Meme, adapter::ScanStats) {
    let t0 = Instant::now();
    let meme = Meme::new(objects, seed);
    let stats = meme.scan();
    times.push(t0.elapsed().as_secs_f64());
    (meme, stats)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let objects = run.ops(OBJECTS_PER_SECOND);
    let budget = Budget::new(run.size(BUDGET_BYTES) as u64);

    // The scans are spread over the run (a third up front, one after each
    // build round, the rest after the queries), so that `setup_s` meets
    // the host's two speeds in the mix the whole run met.
    let scans = run.setup_repeats(SCANS);
    let mut setup_s = Vec::new();
    let (meme, stats) = timed_scan(objects, run.seed, &mut setup_s);
    for _ in 1..scans / 3 {
        timed_scan(objects, run.seed, &mut setup_s);
    }
    out.fact("segments", stats.segments());
    out.fact("dataset_bytes", stats.dataset_bytes());
    out.fact("budget_bytes", budget.bytes());
    out.fact("out_of_core", !budget.holds(&stats));

    // --- builds: every round rebuilds everything from the stream ----------
    let rounds = run.setup_repeats(ROUNDS);
    let mut round_s = Vec::new();
    let mut built = None;
    for _ in 0..rounds {
        drop(built.take());
        let b = build_all(run, &meme, &stats, budget)?;
        round_s.push(b.steps.iter().map(|(_, s)| s).sum::<f64>());
        built = Some(b);
        if setup_s.len() < scans {
            timed_scan(objects, run.seed, &mut setup_s);
        }
    }
    let built = built.expect("at least one round");
    if run.traced {
        super::collect_spans(&mut out.spans);
    }
    out.set("build_s", Measured::of(&round_s, rounds as u64));
    for (name, secs) in built.steps {
        out.fact(&format!("build_s.{name}"), format!("{secs:.3}"));
    }
    out.fact("b2.breakpoints", built.b2_points);
    out.fact("b2.peak_pending_segments", built.b2_peak_pending);
    out.set(
        "index_bytes_per_segment",
        Measured::single(built.exact3.size_bytes() as f64 / stats.segments() as f64),
    );

    // --- cold queries ------------------------------------------------------
    let slices = run.measured_slices();
    let per_slice = run.size(SLICE_QUERIES);
    let queries =
        adapter::uniform_queries(stats.domain(), per_slice * (slices + 1), 0.25, K, run.seed + 1);
    let mut exact3_slices = Vec::new();
    let mut exact3_reads = Vec::new();
    let mut exact3_answers = Vec::new();
    for slice in 0..=slices {
        let part = &queries[slice * per_slice..(slice + 1) * per_slice];
        let t0 = Instant::now();
        let cold = cold_queries(run.traced, &built.exact3, part)?;
        let elapsed_s = t0.elapsed().as_secs_f64();
        if run.traced {
            super::collect_spans(&mut out.spans);
        }
        if slice == 0 {
            // The first slice's answers are the reference for the others.
            exact3_answers = cold.answers;
            continue;
        }
        exact3_reads.extend(cold.reads);
        exact3_slices.push(Slice { elapsed_s, latencies_us: cold.latencies_us });
    }
    while setup_s.len() < scans {
        timed_scan(objects, run.seed, &mut setup_s);
    }
    out.set("setup_s", setup_metric(&setup_s));
    let agg = stats::aggregate(&exact3_slices);
    out.set("query_qps", agg.rate_per_s);
    out.set("query_p50_us", agg.p50_us);
    out.set("query_p95_us", agg.p95_us);
    out.set("query_p99_us", agg.p99_us);
    out.set("reads_per_query", Measured::over(mean(&exact3_reads), exact3_reads.len() as u64));

    // The other methods answer the head of the first slice.
    let first = &queries[..run.size(OTHER_QUERIES).min(per_slice)];
    let others = first.len();
    let mut appx2_answers = Vec::new();
    for (name, method, count) in [
        ("exact1", &built.exact1, others.div_ceil(2)),
        ("appx1", &built.appx1, others),
        ("appx2", &built.appx2, others),
    ] {
        let cold = cold_queries(run.traced, method, &first[..count])?;
        if run.traced {
            super::collect_spans(&mut out.spans);
        }
        let answers = cold.answers;
        out.fact(&format!("cold_reads_per_query.{name}"), format!("{:.2}", mean(&cold.reads)));
        out.fact(
            &format!("cold_us_per_query.{name}"),
            format!("{:.1}", stats::median(&cold.latencies_us)),
        );
        out.fact(&format!("size_bytes.{name}"), method.size_bytes());
        let precision: Vec<f64> = exact3_answers
            .iter()
            .zip(&answers)
            .map(|(want, got)| adapter::precision(want, got))
            .collect();
        out.fact(&format!("precision_vs_exact3.{name}"), format!("{:.4}", mean(&precision)));
        if name == "appx2" {
            out.set("appx_precision", Measured::over(mean(&precision), precision.len() as u64));
            appx2_answers = answers;
        }
    }
    out.fact("size_bytes.exact3", built.exact3.size_bytes());
    // Approximation ratio of APPX2: returned score over true score.
    let ratios: Vec<f64> = first
        .iter()
        .zip(&appx2_answers)
        .flat_map(|(q, a)| a.iter().map(|&(id, s)| s / meme.score(id, q)))
        .filter(|r| r.is_finite())
        .collect();
    out.fact("ratio.appx2", format!("{:.4}", mean(&ratios)));
    out.set("peak_rss_mb", Measured::single(super::peak_rss_mb()));

    // --- EXACT3 and EXACT1 against brute force over the stream ------------
    let sample = sample_indices(first.len(), super::VERIFY_SAMPLE);
    let picked: Vec<Query> = sample.iter().map(|&i| first[i]).collect();
    let truth = meme.brute_force(&picked);
    for ((&i, want), q) in sample.iter().zip(&truth).zip(&picked) {
        out.check(super::answers_agree(want, &exact3_answers[i]), || format!("EXACT3 query {i}"));
        let got = built.exact1.top_k(q)?;
        out.check(super::answers_agree(want, &got), || format!("EXACT1 query {i}"));
    }
    out.attempted =
        (queries.len() + others.div_ceil(2) + 2 * others + sample.len()) as u64 + 5 * rounds as u64;
    Ok(out)
}
