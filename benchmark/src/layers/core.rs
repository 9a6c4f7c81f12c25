//! Core probes: the four streamable methods built out of core over a
//! Meme stream at probe scale and queried cold. (APPX2+ cannot be
//! stream-built; its numbers come from the in-memory build in
//! `serve.rs`, and so does every method's warm latency.)

use super::{mean, p50, Layers};
use crate::adapter::{self, Budget, Meme};
use crate::workloads::paper_build::{build_all, cold_queries};
use crate::workloads::{Run, K};
use std::time::Instant;

/// N ≈ 2·10⁵ segments (6.4 MB) under a 3 MiB budget: out of core.
const OBJECTS: usize = 3000;
const BUDGET_BYTES: usize = 3 << 20;
const QUERIES: usize = 100;

pub fn run(run: &Run, out: &mut Layers) -> Result<(), String> {
    let meme = Meme::new(run.size(OBJECTS), run.seed);
    let t0 = Instant::now();
    let stats = meme.scan();
    out.value("core.scan_stats_s", t0.elapsed().as_secs_f64());
    let budget = Budget::new(run.size(BUDGET_BYTES) as u64);
    let built = build_all(run, &meme, &stats, budget)?;
    let step = |name: &str| built.steps.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |s| s.1);
    out.value("core.b2.build_s", step("b2"));
    out.value("core.b2.peak_pending_segments", built.b2_peak_pending as f64);
    out.value("core.b2.breakpoints", built.b2_points as f64);

    let queries = adapter::uniform_queries(stats.domain(), QUERIES, 0.25, K, run.seed + 1);
    let mut exact3_answers = Vec::new();
    for (name, method) in [
        ("exact3", &built.exact3),
        ("exact1", &built.exact1),
        ("appx1", &built.appx1),
        ("appx2", &built.appx2),
    ] {
        let cold = cold_queries(false, method, &queries)?;
        let answers = cold.answers;
        out.value(&format!("core.{name}.cold_reads_per_query"), mean(&cold.reads));
        out.value(&format!("core.{name}.cold_us_per_query"), p50(&cold.latencies_us));
        // The shared B2 sweep is charged to both APPX variants, as the
        // paper's construction cost includes breakpoint computation.
        let shared = if name.starts_with("appx") { step("b2") } else { 0.0 };
        out.value(&format!("core.{name}.build_s"), step(name) + shared);
        out.value(&format!("core.{name}.size_bytes"), method.size_bytes() as f64);
        if name == "exact3" {
            exact3_answers = answers;
            continue;
        }
        if name.starts_with("appx") {
            let precision: Vec<f64> = exact3_answers
                .iter()
                .zip(&answers)
                .map(|(want, got)| adapter::precision(want, got))
                .collect();
            out.value(&format!("core.{name}.precision"), mean(&precision));
        }
        if name == "appx2" {
            let ratios: Vec<f64> = queries
                .iter()
                .zip(&answers)
                .flat_map(|(q, a)| a.iter().map(|&(id, s)| s / meme.score(id, q)))
                .filter(|r| r.is_finite())
                .collect();
            out.value("core.appx2.ratio", mean(&ratios));
        }
    }
    Ok(())
}
