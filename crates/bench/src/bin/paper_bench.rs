//! `paper_bench` — the paper's experiment at scale: out-of-core builds of
//! every method on a geometric `N` ladder, written to
//! `BENCH_PAPERSCALE.json`.
//!
//! ```text
//! paper_bench paperscale [options]
//!
//! options:
//!   --r N         breakpoint budget            (default 64)
//!   --kmax N      kmax                         (default 64)
//!   --k N         query k                      (default 20)
//!   --queries N   queries per rung             (default 40)
//!   --out DIR     parent of the build scratch  (default results)
//!   --quick       one small rung (CI smoke)
//!   --budget-mb N memory budget in MiB         (default 256)
//!   --paper       append the full m ≈ 1.5M / N ≈ 10⁸ rung
//! ```
//!
//! The paper's Section 5 figures at `N ≈ 10⁵` — precision, ratio and cold
//! reads by `r`, query span, `k` and `kmax` — are `pinned:` counts in
//! `tests/paper_claims.rs`; `REPRODUCTION.md`, "Committed bench series →
//! paper claims", maps each figure to its line.

use chronorank_bench::{fmt_bytes, Built, Table};
use chronorank_core::{ApproxConfig, ApproxIndex, ApproxVariant, B2Construction, RankMethod, TopK};
use chronorank_storage::Env;
use chronorank_workloads::QueryInterval;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Opts {
    r: usize,
    kmax: usize,
    k: usize,
    queries: usize,
    out: PathBuf,
    quick: bool,
    budget_mb: usize,
    paper: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            r: 64,
            kmax: 64,
            k: 20,
            queries: 40,
            out: PathBuf::from("results"),
            quick: false,
            budget_mb: 256,
            paper: false,
        }
    }
}

/// The value after the flag at `args[*i]`, or exit 2 naming the flag.
fn take<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    *i += 1;
    match args.get(*i).and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("missing/invalid value for {}", args[*i - 1]);
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: paper_bench paperscale [--r N] [--kmax N] [--k N] [--queries N] [--out DIR] \
             [--quick] [--budget-mb N] [--paper]"
        );
        std::process::exit(2);
    }
    let fig = args[0].clone();
    let mut opts = Opts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--r" => opts.r = take(&args, &mut i),
            "--kmax" => opts.kmax = take(&args, &mut i),
            "--k" => opts.k = take(&args, &mut i),
            "--queries" => opts.queries = take(&args, &mut i),
            "--budget-mb" => opts.budget_mb = take(&args, &mut i),
            "--paper" => opts.paper = true,
            "--out" => opts.out = take(&args, &mut i),
            "--quick" => {
                opts.r = 24;
                opts.kmax = 16;
                opts.k = 8;
                opts.queries = 8;
                opts.quick = true;
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let t0 = Instant::now();
    match fig.as_str() {
        "paperscale" => paperscale(&opts),
        other => {
            eprintln!("unknown figure {other}");
            std::process::exit(2);
        }
    }
    eprintln!("\n[paper_bench {fig} finished in {:.1}s]", t0.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------------------
// Paperscale: out-of-core builds on a geometric N ladder (BENCH_PAPERSCALE.json)
// ---------------------------------------------------------------------------

/// One rung of the paperscale ladder: everything `BENCH_PAPERSCALE.json`
/// records per method.
struct RungMethod {
    name: &'static str,
    build_secs: f64,
    size_bytes: u64,
    avg_ios: f64,
    avg_ms: f64,
    /// Mean precision against the rung's EXACT3 answers (APPX only).
    precision: Option<f64>,
    /// Distinct QUERY2 candidates re-scored per query (APPX2+ only).
    candidates: Option<f64>,
}

/// Reproduce the paper's headline ordering — EXACT3 ≪ EXACT1 and
/// APPX ≪ EXACT3 in per-query I/O — at dataset sizes that cannot be built
/// in memory.
///
/// Every rung regenerates a Memetracker-shaped dataset (n_avg = 67, the
/// paper's §5.1 Meme figure) **as a stream**: the `N`-segment dataset never
/// materializes. Builds go through the streaming constructors
/// (`Exact1::build_streaming`, `Exact3::build_streaming`,
/// `b2_streaming` + `ApproxIndex::build_streaming` for APPX1, APPX2 and
/// APPX2+ over the one breakpoint set), every sorter and
/// buffer pool sized from one [`chronorank_storage::ScaleBudget`]
/// (`--budget-mb`, default 256 MiB). Indexes live in directory-backed [`Env`]s under
/// `--out/paperscale_scratch`, torn down rung by rung.
///
/// Committed ladder: `N ≈ 10⁵, 10⁶, 10⁷` (the 10⁷ rung exceeds the default
/// budget — `out_of_core` is 1 there). `--paper` appends the full
/// m ≈ 1.5M / N ≈ 10⁸ rung (~3 GB of segments plus sort scratch; expect
/// tens of minutes on one core — see README "Running at scale").
/// `--quick` runs one small rung for CI.
///
/// Each APPX method's precision is scored against the answers the rung's
/// EXACT3 pass returned, and APPX2+ records how many candidates it
/// re-scores per query: the §5 crossover where APPX2+'s prefix-file reads
/// fall below EXACT3's `m/B` term.
///
/// The binary **self-gates**: it exits nonzero unless EXACT3 beats EXACT1
/// in mean cold-cache I/O on every rung, the better of APPX1 and APPX2
/// beats EXACT3 on every rung with `N ≥ 10⁵` (APPX2+ is measured, not
/// gated), EXACT3 stays within the paper's own
/// `2·(log_B N + m/B)` on every rung with `N ≥ 10⁶`, APPX1 and APPX2 are
/// no larger than their lists packed `⌊B / (12·kmax)⌋` to a block plus
/// their breakpoint directory (the paper's `Θ(r²·kmax/B)` and
/// `Θ(r·kmax/B)`, [`chronorank_core::cost_model::size_cost`]), and the streamed
/// BREAKPOINTS2 sweep reports `peak_pending_segments ≤ m`. Writes
/// `BENCH_PAPERSCALE.json` (cwd, or `$CHRONORANK_PAPERSCALE_JSON`).
fn paperscale(opts: &Opts) {
    use chronorank_core::cost_model::{size_cost, CostParams};
    use chronorank_core::{b2_streaming, scan_stats, AggKind};
    use chronorank_storage::ScaleBudget;
    use chronorank_workloads::{
        MemeConfig, MemeGenerator, QueryWorkload, QueryWorkloadConfig, StreamingGenerator,
    };

    let budget = ScaleBudget::new((opts.budget_mb as u64) << 20);
    let navg = 67usize; // paper's Meme n_avg; N = m · n_avg
    let r = opts.r;
    let kmax = opts.kmax;
    let k = opts.k.min(kmax);
    let span_frac = 0.25;
    let mut ladder: Vec<u64> =
        if opts.quick { vec![20_000] } else { vec![100_000, 1_000_000, 10_000_000] };
    if opts.paper {
        ladder.push(100_000_000); // m ≈ 1.5M: the paper's full Meme scale
    }
    let scratch_root = opts.out.join("paperscale_scratch");

    // Cold-cache measurement (paper methodology): empty pools and a zeroed
    // IO counter before every query. Brute-force ground truth would dwarf
    // the builds at these scales; the EXACT3 pass's answers stand in for
    // it when scoring the APPX methods' precision.
    let measure = |built: &Built, qs: &[QueryInterval]| -> (f64, f64, Vec<TopK>) {
        let mut ios = 0u64;
        let mut secs = 0.0f64;
        let mut answers = Vec::with_capacity(qs.len());
        for q in qs {
            built.method.drop_caches().expect("drop caches");
            built.method.reset_io();
            let t0 = Instant::now();
            answers.push(built.method.top_k(q.t1, q.t2, q.k, AggKind::Sum).expect("query"));
            secs += t0.elapsed().as_secs_f64();
            ios += built.method.io_stats().reads;
        }
        let n = qs.len().max(1) as f64;
        (ios as f64 / n, secs * 1000.0 / n, answers)
    };

    let mut table = Table::new(
        "Paperscale — per-query cold IO on the N ladder (streamed out-of-core builds)",
        &["N", "method", "build s", "size", "avg IOs", "avg ms", "precision", "candidates"],
    );
    let mut rung_jsons: Vec<String> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    for &n_target in &ladder {
        let m = (n_target / navg as u64).max(1) as usize;
        let generator = MemeGenerator::new(MemeConfig {
            objects: m,
            avg_segments: navg,
            span: 10_000.0,
            seed: 42,
        });
        let t0 = Instant::now();
        let stats = scan_stats(generator.objects());
        let scan_secs = t0.elapsed().as_secs_f64();
        let n_segments = stats.num_segments;
        let dataset_bytes = n_segments * 32; // four f64 per segment
        let out_of_core = !budget.holds_dataset(dataset_bytes);
        println!(
            "\n[paperscale] rung N={n_segments} (m={m}), dataset {}, budget {} → {} \
             (streamed stats scan {scan_secs:.1}s)",
            fmt_bytes(dataset_bytes),
            fmt_bytes(budget.total_bytes()),
            if out_of_core { "out-of-core" } else { "in-budget" },
        );
        let queries_here =
            if n_segments >= 10_000_000 { opts.queries.min(12) } else { opts.queries };
        let qs = QueryWorkload::new(
            QueryWorkloadConfig {
                count: queries_here,
                span_fraction: span_frac,
                k,
                seed: 7,
                ..Default::default()
            },
            stats.t_min,
            stats.t_max,
        )
        .generate();

        let rung_dir = scratch_root.join(format!("n{n_target}"));
        std::fs::remove_dir_all(&rung_dir).ok();
        let mut methods: Vec<RungMethod> = Vec::new();
        let mut exact3_answers: Vec<TopK> = Vec::new();
        let mut record = |name: &'static str, built: &Built, candidates: Option<f64>| {
            let (avg_ios, avg_ms, answers) = measure(built, &qs);
            let precision = name.starts_with("APPX").then(|| {
                let sum: f64 = exact3_answers
                    .iter()
                    .zip(&answers)
                    .map(|(exact, approx)| chronorank_core::metrics::precision(exact, approx))
                    .sum();
                sum / answers.len().max(1) as f64
            });
            if name == "EXACT3" {
                exact3_answers = answers;
            }
            methods.push(RungMethod {
                name,
                build_secs: built.build_secs,
                size_bytes: built.size_bytes,
                avg_ios,
                avg_ms,
                precision,
                candidates,
            });
        };

        // EXACT1: one tree over all N segments; queries scan every alive segment.
        {
            let env = Env::dir(rung_dir.join("exact1"), budget.store_config(2)).expect("env");
            let t0 = Instant::now();
            let idx = chronorank_core::Exact1::build_streaming(
                env,
                generator.objects(),
                budget.sort_bytes(),
            )
            .expect("EXACT1 streaming build");
            let built = Built {
                build_secs: t0.elapsed().as_secs_f64(),
                size_bytes: idx.size_bytes(),
                method: Box::new(idx),
            };
            record("EXACT1", &built, None);
            drop(built);
            std::fs::remove_dir_all(rung_dir.join("exact1")).ok();
        }

        // EXACT3: one interval tree, two stabbing queries.
        {
            let store = budget.store_config(2);
            let env = Env::dir(rung_dir.join("exact3"), store).expect("env");
            let t0 = Instant::now();
            let idx = chronorank_core::Exact3::build_streaming(
                env,
                store,
                generator.objects(),
                budget.sort_bytes(),
            )
            .expect("EXACT3 streaming build");
            let built = Built {
                build_secs: t0.elapsed().as_secs_f64(),
                size_bytes: idx.size_bytes(),
                method: Box::new(idx),
            };
            record("EXACT3", &built, None);
            drop(built);
            std::fs::remove_dir_all(rung_dir.join("exact3")).ok();
        }

        // Shared BREAKPOINTS2 for every APPX variant: one streaming sweep at
        // eps = 1/(r-1), never holding a per-object curve set in memory.
        let eps = 1.0 / (r.max(2) - 1) as f64;
        let b2_env = Env::dir(rung_dir.join("b2"), budget.store_config(1)).expect("env");
        let t0 = Instant::now();
        let streamed = b2_streaming(
            &b2_env,
            generator.objects(),
            &stats,
            eps,
            B2Construction::Efficient,
            budget.sort_bytes(),
        )
        .expect("streaming BREAKPOINTS2");
        let b2_secs = t0.elapsed().as_secs_f64();
        let peak_pending = streamed.peak_pending_segments;
        let breakpoints = streamed.breakpoints;
        drop(b2_env);
        std::fs::remove_dir_all(rung_dir.join("b2")).ok();
        println!(
            "[paperscale]   BREAKPOINTS2 sweep: {} points in {b2_secs:.1}s, \
             at most {peak_pending} objects holding a segment (m = {m})",
            breakpoints.len(),
        );
        if peak_pending > m as u64 {
            gate_failures.push(format!(
                "N={n_segments}: BREAKPOINTS2 sweep held {peak_pending} segments, over m = {m}"
            ));
        }

        for (variant, name, sub) in [
            (ApproxVariant::APPX1, "APPX1", "appx1"),
            (ApproxVariant::APPX2, "APPX2", "appx2"),
            (ApproxVariant::APPX2_PLUS, "APPX2+", "appx2plus"),
        ] {
            // APPX2+ keeps three files alive (lists, directory, prefix
            // file); the others two.
            let store = budget.store_config(3);
            let env = Env::dir(rung_dir.join(sub), store).expect("env");
            let cfg = ApproxConfig { r: breakpoints.len(), kmax, store };
            let t0 = Instant::now();
            let idx = ApproxIndex::build_streaming(
                env,
                generator.objects(),
                variant,
                cfg,
                breakpoints.clone(),
            )
            .expect("APPX streaming build");
            // The pool APPX2+ re-scores, counted apart from its timed pass.
            let candidates = variant.plus.then(|| {
                let total: usize = qs
                    .iter()
                    .map(|q| idx.candidates(q.t1, q.t2, q.k).expect("candidates").len())
                    .sum();
                total as f64 / qs.len().max(1) as f64
            });
            let built = Built {
                // Charge the shared sweep to every variant: the paper's
                // construction cost includes breakpoint computation.
                build_secs: t0.elapsed().as_secs_f64() + b2_secs,
                size_bytes: idx.size_bytes(),
                method: Box::new(idx),
            };
            record(name, &built, candidates);
            drop(built);
            std::fs::remove_dir_all(rung_dir.join(sub)).ok();
        }
        std::fs::remove_dir_all(&rung_dir).ok();

        // Headline ordering gates (the point of the ladder).
        let ios_of = |name: &str| {
            methods.iter().find(|m| m.name == name).map(|m| m.avg_ios).unwrap_or(f64::NAN)
        };
        let (e1, e3) = (ios_of("EXACT1"), ios_of("EXACT3"));
        let appx_best = ios_of("APPX1").min(ios_of("APPX2"));
        // `partial_cmp != Less` (not `>=`): a missing method yields NaN,
        // which must fail the gate rather than slip past it.
        let below = |a: f64, b: f64| a.partial_cmp(&b) == Some(std::cmp::Ordering::Less);
        if !below(e3, e1) {
            gate_failures
                .push(format!("N={n_segments}: EXACT3 avg IOs {e3:.1} not below EXACT1 {e1:.1}"));
        }
        if n_segments >= 100_000 && !below(appx_best, e3) {
            gate_failures.push(format!(
                "N={n_segments}: best APPX avg IOs {appx_best:.1} not below EXACT3 {e3:.1}"
            ));
        }

        // The paper's §3 space: QUERY1 and QUERY2 hold their lists packed
        // ⌊B / (12·kmax)⌋ to a block, beside one breakpoint directory.
        let packed = size_cost(&CostParams {
            m: m as u64,
            n_total: n_segments,
            n_avg: navg as u64,
            block: budget.block_size() as u64,
            r: breakpoints.len() as u64,
            kmax: kmax as u64,
            k: k as u64,
            overlap_frac: span_frac,
        });
        for (name, blocks) in [("APPX1", packed.appx1), ("APPX2", packed.appx2)] {
            let size = methods.iter().find(|m| m.name == name).map_or(u64::MAX, |m| m.size_bytes);
            let bound = blocks as u64 * budget.block_size() as u64;
            if size > bound {
                gate_failures.push(format!(
                    "N={n_segments}: {name} holds {size} bytes, over {bound} for its lists \
                     packed ⌊B / (12·kmax)⌋ to a block plus its breakpoint directory"
                ));
            }
        }

        // The paper's own bound on EXACT3 (§2, Eq. 2): two stabs of
        // log_B N + m/B blocks each, in the `cost_model` units below.
        let b_entries = (budget.block_size() / 16).max(2) as f64;
        let logb_n = (n_segments.max(2) as f64).ln() / b_entries.ln();
        let e3_bound = 2.0 * (logb_n + m as f64 / b_entries);
        if n_segments >= 1_000_000 && below(e3_bound, e3) {
            gate_failures.push(format!(
                "N={n_segments}: EXACT3 avg IOs {e3:.1} over 2·(log_B N + m/B) = {e3_bound:.1}"
            ));
        }

        let or_dash = |x: Option<f64>, digits: usize| {
            x.map_or_else(|| "-".to_string(), |x| format!("{x:.digits$}"))
        };
        for mrec in &methods {
            table.row(vec![
                n_segments.to_string(),
                mrec.name.to_string(),
                format!("{:.2}", mrec.build_secs),
                fmt_bytes(mrec.size_bytes),
                format!("{:.1}", mrec.avg_ios),
                format!("{:.3}", mrec.avg_ms),
                or_dash(mrec.precision, 3),
                or_dash(mrec.candidates, 1),
            ]);
        }

        // Cost-model reference terms (paper Fig. 3, B = entries per block):
        // EXACT1 queries pay O(log_B N + scanned/B), EXACT3 O(log_B N + m/B).
        let method_rows: Vec<String> = methods
            .iter()
            .map(|mr| {
                let precision =
                    mr.precision.map_or(String::new(), |p| format!(", \"precision\": {p:.4}"));
                let candidates = mr
                    .candidates
                    .map_or(String::new(), |c| format!(", \"candidates_per_query\": {c:.2}"));
                format!(
                    "        {{\"name\": \"{}\", \"build_secs\": {:.3}, \
                     \"build_throughput_sps\": {:.1}, \"size_bytes\": {}, \
                     \"avg_ios\": {:.2}, \"avg_ms\": {:.4}{precision}{candidates}}}",
                    mr.name,
                    mr.build_secs,
                    n_segments as f64 / mr.build_secs.max(1e-9),
                    mr.size_bytes,
                    mr.avg_ios,
                    mr.avg_ms,
                )
            })
            .collect();
        rung_jsons.push(format!(
            "    {{\n      \"n_target\": {n_target}, \"m\": {m}, \"n_segments\": {n_segments},\n      \
             \"dataset_bytes\": {dataset_bytes}, \"out_of_core\": {},\n      \
             \"queries\": {queries_here}, \"b2_secs\": {b2_secs:.3}, \
             \"b2_points\": {}, \"peak_pending_segments\": {peak_pending},\n      \
             \"cost_model\": {{\"logb_n\": {logb_n:.3}, \"n_over_b\": {:.1}, \"m_over_b\": {:.1}}},\n      \
             \"methods\": [\n{}\n      ],\n      \
             \"ordering\": {{\"exact3_over_exact1_io\": {:.4}, \"appx_over_exact3_io\": {:.4}}}\n    }}",
            if out_of_core { 1 } else { 0 },
            breakpoints.len(),
            n_segments as f64 / b_entries,
            m as f64 / b_entries,
            method_rows.join(",\n"),
            e3 / e1,
            appx_best / e3,
        ));
    }
    std::fs::remove_dir_all(&scratch_root).ok();

    print!("{table}");

    let json = format!(
        "{{\n  \"harness\": \"chronorank-paperscale-bench\",\n  \"quick\": {},\n  \
         \"budget\": {{\"total_bytes\": {}, \"pool_bytes\": {}, \"sort_bytes\": {}, \
         \"block_size\": {}}},\n  \
         \"scenario\": {{\"dataset\": \"meme\", \"navg\": {navg}, \"span\": 10000.0, \
         \"seed\": 42, \"r\": {r}, \"kmax\": {kmax}, \"k\": {k}, \
         \"span_fraction\": {span_frac}}},\n  \
         \"note\": \"Streamed out-of-core builds on a geometric N ladder: datasets are \
         generated object-at-a-time (never materialized), sorted externally under the sort \
         budget, and bulk-loaded through pools sized from the same budget. avg_ios is mean \
         cold-cache block reads per query (pools dropped + counter zeroed per query). The \
         bench exits nonzero unless EXACT3 < EXACT1 on every rung and the better of APPX1 and \
         APPX2 < EXACT3 on every rung with N >= 1e5 — the paper's Section 5 headline ordering; \
         APPX2+ is measured, not gated — EXACT3 <= \
         2*(logb_n + m_over_b) of its rung's cost_model on every rung with N >= 1e6, \
         APPX1 and APPX2 size_bytes <= their lists packed floor(B / (12*kmax)) to a block \
         plus their breakpoint directory on every rung, and peak_pending_segments <= m on \
         every rung. peak_pending_segments is the streaming \
         BREAKPOINTS2 sweep's high-water count of objects holding a segment, ≤ m (it keeps \
         one segment per object). b2_points is the r of every APPX index on its rung. \
         precision is each APPX method's mean precision against the rung's EXACT3 answers; \
         candidates_per_query is the mean distinct QUERY2 candidates APPX2+ re-scores.\",\n  \
         \"rungs\": [\n{}\n  ]\n}}\n",
        opts.quick,
        budget.total_bytes(),
        budget.pool_bytes(),
        budget.sort_bytes(),
        budget.block_size(),
        rung_jsons.join(",\n"),
    );
    // `$CHRONORANK_PAPERSCALE_JSON` sends a smoke run's JSON under
    // `target/`, clear of the committed full-scale baseline.
    let json_path = std::env::var("CHRONORANK_PAPERSCALE_JSON")
        .unwrap_or_else(|_| "BENCH_PAPERSCALE.json".into());
    std::fs::write(&json_path, json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!("wrote {json_path}");

    if !gate_failures.is_empty() {
        eprintln!("paperscale gate FAILED:");
        for g in &gate_failures {
            eprintln!("  - {g}");
        }
        std::process::exit(1);
    }
    println!(
        "paperscale gate OK: EXACT3 < EXACT1, APPX < EXACT3 and EXACT3 ≤ 2·(log_B N + m/B) \
         where gated, APPX1 / APPX2 lists packed to their blocks, B2 holds ≤ m segments"
    );
}
