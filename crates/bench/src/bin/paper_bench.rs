//! `paper-bench` — regenerate every table and figure of the paper's
//! evaluation (Section 5) at laptop scale.
//!
//! ```text
//! paper-bench <figure> [options]
//!
//! figures: fig3 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20
//!          ablation paperscale all
//! options:
//!   --m N         base object count            (default 800)
//!   --navg N      base segments per object     (default 250)
//!   --r N         base breakpoint budget       (default 64)
//!   --kmax N      base kmax                    (default 64)
//!   --k N         base query k                 (default 20)
//!   --queries N   queries per data point       (default 40)
//!   --meme-m N    meme object count            (default 20000)
//!   --out DIR     CSV output directory         (default results)
//!   --quick       quarter-scale everything (CI smoke)
//!   --budget-mb N paperscale memory budget in MiB (default 256)
//!   --paper       paperscale: append the full m ≈ 1.5M / N ≈ 10⁸ rung
//! ```
//!
//! Every figure prints the same rows/series the paper reports and writes a
//! CSV under `--out`. Paper-scale absolute numbers are not the goal — the
//! *shapes* are (who wins, by how much, where crossovers happen); see
//! `REPRODUCTION.md`, "Committed bench series → paper claims", for the
//! recorded comparison.

use chronorank_bench::{
    build_approx, build_exact, build_exact_with, fmt_bytes, ground_truth, measure_queries,
    meme_dataset, queries, temp_dataset, Built, Table,
};
use chronorank_core::{
    ApproxConfig, ApproxIndex, ApproxVariant, B2Construction, Breakpoints, IndexConfig, RankMethod,
    TemporalSet, TopK,
};
use chronorank_storage::Env;
use chronorank_storage::StoreConfig;
use chronorank_workloads::QueryInterval;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Opts {
    m: usize,
    navg: usize,
    r: usize,
    kmax: usize,
    k: usize,
    queries: usize,
    meme_m: usize,
    out: PathBuf,
    quick: bool,
    budget_mb: usize,
    paper: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            m: 800,
            navg: 250,
            r: 64,
            kmax: 64,
            k: 20,
            queries: 40,
            meme_m: 20_000,
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
            "usage: paper-bench <fig3|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig20|ablation|paperscale|all> \
             [--m N] [--navg N] [--r N] [--kmax N] [--k N] [--queries N] [--meme-m N] [--out DIR] [--quick] [--budget-mb N] [--paper]"
        );
        std::process::exit(2);
    }
    let fig = args[0].clone();
    let mut opts = Opts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--m" => opts.m = take(&args, &mut i),
            "--navg" => opts.navg = take(&args, &mut i),
            "--r" => opts.r = take(&args, &mut i),
            "--kmax" => opts.kmax = take(&args, &mut i),
            "--k" => opts.k = take(&args, &mut i),
            "--queries" => opts.queries = take(&args, &mut i),
            "--meme-m" => opts.meme_m = take(&args, &mut i),
            "--budget-mb" => opts.budget_mb = take(&args, &mut i),
            "--paper" => opts.paper = true,
            "--out" => opts.out = take(&args, &mut i),
            "--quick" => {
                opts.m = 200;
                opts.navg = 80;
                opts.r = 24;
                opts.kmax = 16;
                opts.k = 8;
                opts.queries = 8;
                opts.meme_m = 2000;
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
        "fig3" => fig3(&opts),
        "fig11" => fig11(&opts),
        "fig12" => fig12(&opts),
        "fig13" => fig13_14_15(&opts, SweepAxis::Objects),
        "fig14" => fig13_14_15(&opts, SweepAxis::Segments),
        "fig15" => {
            fig13_14_15(&opts, SweepAxis::Objects);
            fig13_14_15(&opts, SweepAxis::Segments);
        }
        "fig16" => fig16(&opts),
        "fig17" => fig17(&opts),
        "fig18" => fig18(&opts),
        "fig19" | "fig20" => fig19_20(&opts),
        "ablation" => ablation(&opts),
        "paperscale" => paperscale(&opts),
        "all" => {
            fig3(&opts);
            fig11(&opts);
            fig12(&opts);
            fig13_14_15(&opts, SweepAxis::Objects);
            fig13_14_15(&opts, SweepAxis::Segments);
            fig16(&opts);
            fig17(&opts);
            fig18(&opts);
            fig19_20(&opts);
            ablation(&opts);
        }
        other => {
            eprintln!("unknown figure {other}");
            std::process::exit(2);
        }
    }
    eprintln!("\n[paper-bench {fig} finished in {:.1}s]", t0.elapsed().as_secs_f64());
}

/// The five approximate variants in presentation order.
const APPROX_ALL: [ApproxVariant; 5] = ApproxVariant::ALL;
/// The three variants kept after Figure 12 ("we only use APPX1, APPX2 and
/// APPX2+ for the remaining experiments").
const APPROX_MAIN: [ApproxVariant; 3] =
    [ApproxVariant::APPX1, ApproxVariant::APPX2, ApproxVariant::APPX2_PLUS];

/// Build one approximate variant reusing precomputed breakpoints (the
/// paper compares variants at one fixed r).
fn build_approx_shared(
    variant: ApproxVariant,
    set: &TemporalSet,
    b1: &Breakpoints,
    b2: &Breakpoints,
    kmax: usize,
) -> Built {
    let bp = match variant.breakpoints {
        chronorank_core::BreakpointsKind::B1 => b1.clone(),
        chronorank_core::BreakpointsKind::B2 => b2.clone(),
    };
    let cfg = ApproxConfig { r: bp.len(), kmax, ..Default::default() };
    let t0 = Instant::now();
    let idx = ApproxIndex::build_with_breakpoints(Env::mem(cfg.store), set, variant, cfg, bp)
        .expect("build approx");
    Built {
        name: variant.name().to_string(),
        build_secs: t0.elapsed().as_secs_f64(),
        size_bytes: idx.size_bytes(),
        method: Box::new(idx),
    }
}

// ---------------------------------------------------------------------------
// Figure 3: the cost-bound table + an empirical scaling check
// ---------------------------------------------------------------------------

fn fig3(opts: &Opts) {
    let mut t = Table::new(
        "Figure 3 — theoretical IO bounds (B = block size)",
        &["method", "index size", "construction", "query", "update", "approximation"],
    );
    for row in [
        ["EXACT1", "O(N/B)", "O(N/B logB N)", "O(logB N + sum qi/B)", "O(logB N)", "(0,1)"],
        ["EXACT2", "O(N/B)", "O(sum ni/B logB ni)", "O(sum logB ni)", "O(logB n)", "(0,1)"],
        ["EXACT3", "O(N/B)", "O(N/B logB N)", "O(logB N + m/B)", "O(logB N)", "(0,1)"],
        [
            "APPX1",
            "O(r^2 kmax/B)",
            "O(N/B (logB N + r))",
            "O(k/B + logB r)",
            "O((logB N + r)/B)",
            "(eps;1)",
        ],
        [
            "APPX2",
            "O(r kmax/B)",
            "O(N/B (logB N + log r))",
            "O(k log r)",
            "O((logB N + log r)/B)",
            "(eps;2 log r)",
        ],
    ] {
        t.row(row.iter().map(|s| s.to_string()).collect());
    }
    t.print();
    t.write_csv(&opts.out, "fig3_theory").expect("csv");

    // Empirical check: EXACT3 query IOs grow ~linearly with m (the m/B
    // term); APPX2 query IOs stay flat.
    let m_lo = (opts.m / 2).max(8);
    let mut e = Table::new(
        "Figure 3 (empirical) — query-IO scaling when m doubles",
        &["method", "IOs @ m/2", "IOs @ m", "ratio"],
    );
    let mut per_m = Vec::new();
    for m in [m_lo, opts.m] {
        let set = temp_dataset(m, opts.navg, 42);
        let qs = queries(&set, opts.queries.min(16), 0.2, opts.k);
        let e3 = build_exact("EXACT3", &set);
        let s3 = measure_queries(&e3, &set, &qs, None);
        let a2 = build_approx(ApproxVariant::APPX2, &set, opts.r, opts.kmax);
        let s2 = measure_queries(&a2, &set, &qs, None);
        per_m.push((s3.avg_ios, s2.avg_ios));
    }
    for (name, a, b) in [
        ("EXACT3 (expect ~2.0)", per_m[0].0, per_m[1].0),
        ("APPX2  (expect ~1.0)", per_m[0].1, per_m[1].1),
    ] {
        e.row(vec![name.into(), format!("{a:.1}"), format!("{b:.1}"), format!("{:.2}", b / a)]);
    }
    e.print();
    e.write_csv(&opts.out, "fig3_empirical").expect("csv");
}

// ---------------------------------------------------------------------------
// Figures 11 & 12: vary the number of breakpoints r
// ---------------------------------------------------------------------------

fn r_values(base: usize) -> Vec<usize> {
    [base / 4, base / 2, base, base * 2, base * 4].into_iter().filter(|&r| r >= 8).collect()
}

fn fig11(opts: &Opts) {
    let set = temp_dataset(opts.m, opts.navg, 42);
    println!(
        "# Temp-like dataset: m = {}, N = {} (paper scale: m = 50k, N = 5e7)",
        set.num_objects(),
        set.num_segments()
    );
    let mut ta = Table::new("Figure 11(a) — eps vs r", &["r", "eps(B1)", "eps(B2)"]);
    let mut tb = Table::new(
        "Figure 11(b) — breakpoint build time (s)",
        &["r", "B1", "B2-Baseline", "B2-Efficient"],
    );
    let mut tc = Table::new(
        "Figure 11(c) — index size",
        &["r", "APPX1-B", "APPX2-B", "APPX1", "APPX2", "APPX2+", "EXACT3"],
    );
    let mut td = Table::new(
        "Figure 11(d) — index build time (s)",
        &["r", "APPX1-B", "APPX2-B", "APPX1", "APPX2", "APPX2+", "EXACT3"],
    );
    let e3 = build_exact("EXACT3", &set);
    for r in r_values(opts.r) {
        let t0 = Instant::now();
        let b1 = Breakpoints::b1_with_count(&set, r).expect("b1");
        let b1_secs = t0.elapsed().as_secs_f64();
        // Calibrate eps for B2 at this r, then time each construction alone.
        let b2 = Breakpoints::b2_with_count(&set, r, B2Construction::Efficient).expect("b2");
        let eps2 = b2.eps();
        let t0 = Instant::now();
        let _ = Breakpoints::b2_with_eps(&set, eps2, B2Construction::Baseline).expect("b2b");
        let b2b_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = Breakpoints::b2_with_eps(&set, eps2, B2Construction::Efficient).expect("b2e");
        let b2e_secs = t0.elapsed().as_secs_f64();
        ta.row(vec![r.to_string(), format!("{:.3e}", b1.eps()), format!("{:.3e}", eps2)]);
        tb.row(vec![
            r.to_string(),
            format!("{b1_secs:.3}"),
            format!("{b2b_secs:.3}"),
            format!("{b2e_secs:.3}"),
        ]);

        let mut sizes = vec![r.to_string()];
        let mut times = vec![r.to_string()];
        for v in APPROX_ALL {
            let built = build_approx_shared(v, &set, &b1, &b2, opts.kmax);
            sizes.push(fmt_bytes(built.size_bytes));
            times.push(format!("{:.2}", built.build_secs));
        }
        sizes.push(fmt_bytes(e3.size_bytes));
        times.push(format!("{:.2}", e3.build_secs));
        tc.row(sizes);
        td.row(times);
    }
    for (t, n) in
        [(&ta, "fig11a_eps"), (&tb, "fig11b_bp_time"), (&tc, "fig11c_size"), (&td, "fig11d_build")]
    {
        t.print();
        t.write_csv(&opts.out, n).expect("csv");
    }
}

fn fig12(opts: &Opts) {
    let set = temp_dataset(opts.m, opts.navg, 42);
    let qs = queries(&set, opts.queries, 0.2, opts.k);
    let truth = ground_truth(&set, &qs);
    let names: Vec<&str> = APPROX_ALL.iter().map(|v| v.name()).chain(["EXACT3"]).collect();
    let mut tp = Table::new("Figure 12(a) — precision/recall vs r", &prepend("r", &names));
    let mut tr = Table::new("Figure 12(b) — approximation ratio vs r", &prepend("r", &names));
    let mut ti = Table::new("Figure 12(c) — query IOs vs r", &prepend("r", &names));
    let mut tt = Table::new("Figure 12(d) — query time (ms) vs r", &prepend("r", &names));
    let e3 = build_exact("EXACT3", &set);
    let e3_stats = measure_queries(&e3, &set, &qs, None);
    for r in r_values(opts.r) {
        let b1 = Breakpoints::b1_with_count(&set, r).expect("b1");
        let b2 = Breakpoints::b2_with_count(&set, r, B2Construction::Efficient).expect("b2");
        let mut precs = vec![r.to_string()];
        let mut ratios = vec![r.to_string()];
        let mut ioses = vec![r.to_string()];
        let mut times = vec![r.to_string()];
        for v in APPROX_ALL {
            let built = build_approx_shared(v, &set, &b1, &b2, opts.kmax);
            let s = measure_queries(&built, &set, &qs, Some(&truth));
            precs.push(format!("{:.3}", s.precision));
            ratios.push(format!("{:.4}", s.ratio));
            ioses.push(format!("{:.1}", s.avg_ios));
            times.push(format!("{:.3}", s.avg_ms));
        }
        precs.push("1.000".into());
        ratios.push("1.0000".into());
        ioses.push(format!("{:.1}", e3_stats.avg_ios));
        times.push(format!("{:.3}", e3_stats.avg_ms));
        tp.row(precs);
        tr.row(ratios);
        ti.row(ioses);
        tt.row(times);
    }
    for (t, n) in [
        (&tp, "fig12a_precision"),
        (&tr, "fig12b_ratio"),
        (&ti, "fig12c_ios"),
        (&tt, "fig12d_time"),
    ] {
        t.print();
        t.write_csv(&opts.out, n).expect("csv");
    }
}

// ---------------------------------------------------------------------------
// Figures 13–15: vary m / n_avg (scalability + quality)
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum SweepAxis {
    Objects,
    Segments,
}

fn fig13_14_15(opts: &Opts, axis: SweepAxis) {
    let (fig, axis_name, values): (&str, &str, Vec<(usize, usize)>) = match axis {
        SweepAxis::Objects => (
            "13",
            "m",
            [opts.m / 4, opts.m / 2, opts.m, opts.m * 2, opts.m * 4]
                .iter()
                .map(|&m| (m.max(8), opts.navg))
                .collect(),
        ),
        SweepAxis::Segments => (
            "14",
            "navg",
            [opts.navg / 4, opts.navg / 2, opts.navg, opts.navg * 2, opts.navg * 4]
                .iter()
                .map(|&n| (opts.m, n.max(4)))
                .collect(),
        ),
    };
    let methods = ["EXACT1", "EXACT2", "EXACT3"];
    let names: Vec<&str> =
        methods.iter().copied().chain(APPROX_MAIN.iter().map(|v| v.name())).collect();
    let mut ts = Table::new(
        &format!("Figure {fig}(a) — index size vs {axis_name}"),
        &prepend(axis_name, &names),
    );
    let mut tb = Table::new(
        &format!("Figure {fig}(b) — build time (s) vs {axis_name}"),
        &prepend(axis_name, &names),
    );
    let mut ti = Table::new(
        &format!("Figure {fig}(c) — query IOs vs {axis_name}"),
        &prepend(axis_name, &names),
    );
    let mut tt = Table::new(
        &format!("Figure {fig}(d) — query time (ms) vs {axis_name}"),
        &prepend(axis_name, &names),
    );
    // Figure 15: quality of the approximate methods along the same sweep.
    let quality_header: Vec<String> = std::iter::once(axis_name.to_string())
        .chain(
            APPROX_MAIN
                .iter()
                .flat_map(|v| [format!("{} prec", v.name()), format!("{} ratio", v.name())]),
        )
        .collect();
    let quality_header_refs: Vec<&str> = quality_header.iter().map(|s| s.as_str()).collect();
    let mut tq =
        Table::new(&format!("Figure 15 — precision & ratio vs {axis_name}"), &quality_header_refs);
    for (m, navg) in values {
        let set = temp_dataset(m, navg, 42);
        let qs = queries(&set, opts.queries, 0.2, opts.k);
        let truth = ground_truth(&set, &qs);
        let label = match axis {
            SweepAxis::Objects => m.to_string(),
            SweepAxis::Segments => navg.to_string(),
        };
        let mut sizes = vec![label.clone()];
        let mut builds = vec![label.clone()];
        let mut ioses = vec![label.clone()];
        let mut times = vec![label.clone()];
        let mut quality = vec![label.clone()];
        for name in methods {
            let built = build_exact(name, &set);
            let s = measure_queries(&built, &set, &qs, None);
            sizes.push(fmt_bytes(built.size_bytes));
            builds.push(format!("{:.2}", built.build_secs));
            ioses.push(format!("{:.1}", s.avg_ios));
            times.push(format!("{:.3}", s.avg_ms));
        }
        for v in APPROX_MAIN {
            let built = build_approx(v, &set, opts.r, opts.kmax);
            let s = measure_queries(&built, &set, &qs, Some(&truth));
            sizes.push(fmt_bytes(built.size_bytes));
            builds.push(format!("{:.2}", built.build_secs));
            ioses.push(format!("{:.1}", s.avg_ios));
            times.push(format!("{:.3}", s.avg_ms));
            quality.push(format!("{:.3}", s.precision));
            quality.push(format!("{:.4}", s.ratio));
        }
        ts.row(sizes);
        tb.row(builds);
        ti.row(ioses);
        tt.row(times);
        tq.row(quality);
    }
    let prefix = format!("fig{fig}");
    for (t, suffix) in [(&ts, "a_size"), (&tb, "b_build"), (&ti, "c_ios"), (&tt, "d_time")] {
        t.print();
        t.write_csv(&opts.out, &format!("{prefix}{suffix}")).expect("csv");
    }
    tq.print();
    tq.write_csv(&opts.out, &format!("fig15_quality_vs_{axis_name}")).expect("csv");
}

// ---------------------------------------------------------------------------
// Figure 16: vary the query interval length
// ---------------------------------------------------------------------------

fn fig16(opts: &Opts) {
    let set = temp_dataset(opts.m, opts.navg, 42);
    let spans = [0.02, 0.10, 0.20, 0.30, 0.50];
    let workloads = spans
        .iter()
        .map(|&f| (format!("{:.0}", f * 100.0), queries(&set, opts.queries, f, opts.k)))
        .collect();
    run_query_sweep(opts, &set, "16", "span%", workloads);
}

// ---------------------------------------------------------------------------
// Figure 17: vary k
// ---------------------------------------------------------------------------

fn fig17(opts: &Opts) {
    let set = temp_dataset(opts.m, opts.navg, 42);
    let ks: Vec<usize> = [opts.k / 4, opts.k / 2, opts.k, opts.k * 2, opts.kmax]
        .iter()
        .map(|&k| k.clamp(1, opts.kmax))
        .collect();
    let workloads =
        ks.iter().map(|&k| (k.to_string(), queries(&set, opts.queries, 0.2, k))).collect();
    run_query_sweep(opts, &set, "17", "k", workloads);
}

/// Shared machinery for figures 16 & 17: all six methods, one workload per
/// sweep value; prints IOs, time, precision and ratio tables.
fn run_query_sweep(
    opts: &Opts,
    set: &TemporalSet,
    fig: &str,
    axis: &str,
    workloads: Vec<(String, Vec<QueryInterval>)>,
) {
    let exacts = ["EXACT1", "EXACT2", "EXACT3"];
    let names: Vec<&str> =
        exacts.iter().copied().chain(APPROX_MAIN.iter().map(|v| v.name())).collect();
    let mut ti =
        Table::new(&format!("Figure {fig}(a) — query IOs vs {axis}"), &prepend(axis, &names));
    let mut tt =
        Table::new(&format!("Figure {fig}(b) — query time (ms) vs {axis}"), &prepend(axis, &names));
    let approx_names: Vec<&str> = APPROX_MAIN.iter().map(|v| v.name()).collect();
    let mut tp = Table::new(
        &format!("Figure {fig}(c) — precision/recall vs {axis}"),
        &prepend(axis, &approx_names),
    );
    let mut tr = Table::new(
        &format!("Figure {fig}(d) — approximation ratio vs {axis}"),
        &prepend(axis, &approx_names),
    );
    let built_exact: Vec<Built> = exacts.iter().map(|n| build_exact(n, set)).collect();
    let built_approx: Vec<Built> =
        APPROX_MAIN.iter().map(|&v| build_approx(v, set, opts.r, opts.kmax)).collect();
    for (label, qs) in workloads {
        let truth: Vec<TopK> = ground_truth(set, &qs);
        let mut ioses = vec![label.clone()];
        let mut times = vec![label.clone()];
        let mut precs = vec![label.clone()];
        let mut ratios = vec![label.clone()];
        for b in &built_exact {
            let s = measure_queries(b, set, &qs, None);
            ioses.push(format!("{:.1}", s.avg_ios));
            times.push(format!("{:.3}", s.avg_ms));
        }
        for b in &built_approx {
            let s = measure_queries(b, set, &qs, Some(&truth));
            ioses.push(format!("{:.1}", s.avg_ios));
            times.push(format!("{:.3}", s.avg_ms));
            precs.push(format!("{:.3}", s.precision));
            ratios.push(format!("{:.4}", s.ratio));
        }
        ti.row(ioses);
        tt.row(times);
        tp.row(precs);
        tr.row(ratios);
    }
    for (t, n) in [
        (&ti, format!("fig{fig}a_ios")),
        (&tt, format!("fig{fig}b_time")),
        (&tp, format!("fig{fig}c_precision")),
        (&tr, format!("fig{fig}d_ratio")),
    ] {
        t.print();
        t.write_csv(&opts.out, &n).expect("csv");
    }
}

// ---------------------------------------------------------------------------
// Figure 18: vary kmax
// ---------------------------------------------------------------------------

fn fig18(opts: &Opts) {
    let set = temp_dataset(opts.m, opts.navg, 42);
    let k = opts.k.min(opts.kmax / 4).max(1);
    let qs = queries(&set, opts.queries, 0.2, k);
    let names: Vec<&str> = APPROX_MAIN.iter().map(|v| v.name()).chain(["EXACT3"]).collect();
    let mut ts = Table::new("Figure 18(a) — index size vs kmax", &prepend("kmax", &names));
    let mut tb = Table::new("Figure 18(b) — build time (s) vs kmax", &prepend("kmax", &names));
    let mut ti = Table::new("Figure 18(c) — query IOs vs kmax", &prepend("kmax", &names));
    let mut tt = Table::new("Figure 18(d) — query time (ms) vs kmax", &prepend("kmax", &names));
    let e3 = build_exact("EXACT3", &set);
    let e3s = measure_queries(&e3, &set, &qs, None);
    // Sweep past the one-block boundary (kmax*12 B vs the 4 KiB block) so
    // the linear index growth of the paper's Figure 18(a) is visible in
    // block-rounded sizes.
    for kmax in [opts.kmax, opts.kmax * 4, opts.kmax * 8, opts.kmax * 16, opts.kmax * 32] {
        let kmax = kmax.max(k);
        let mut sizes = vec![kmax.to_string()];
        let mut builds = vec![kmax.to_string()];
        let mut ioses = vec![kmax.to_string()];
        let mut times = vec![kmax.to_string()];
        for v in APPROX_MAIN {
            let built = build_approx(v, &set, opts.r, kmax);
            let s = measure_queries(&built, &set, &qs, None);
            sizes.push(fmt_bytes(built.size_bytes));
            builds.push(format!("{:.2}", built.build_secs));
            ioses.push(format!("{:.1}", s.avg_ios));
            times.push(format!("{:.3}", s.avg_ms));
        }
        sizes.push(fmt_bytes(e3.size_bytes));
        builds.push(format!("{:.2}", e3.build_secs));
        ioses.push(format!("{:.1}", e3s.avg_ios));
        times.push(format!("{:.3}", e3s.avg_ms));
        ts.row(sizes);
        tb.row(builds);
        ti.row(ioses);
        tt.row(times);
    }
    for (t, n) in
        [(&ts, "fig18a_size"), (&tb, "fig18b_build"), (&ti, "fig18c_ios"), (&tt, "fig18d_time")]
    {
        t.print();
        t.write_csv(&opts.out, n).expect("csv");
    }
}

// ---------------------------------------------------------------------------
// Figures 19 & 20: the Meme dataset
// ---------------------------------------------------------------------------

fn fig19_20(opts: &Opts) {
    let set = meme_dataset(opts.meme_m, 67, 42);
    println!(
        "# Meme-like dataset: m = {}, N = {} (paper scale: m = 1.5M, N = 1e8)",
        set.num_objects(),
        set.num_segments()
    );
    let qs = queries(&set, opts.queries, 0.2, opts.k);
    let truth = ground_truth(&set, &qs);
    let mut t19 = Table::new(
        "Figure 19 — Meme dataset: size / build / IOs / time per method",
        &["method", "index size", "build (s)", "query IOs", "query ms"],
    );
    let mut t20 = Table::new(
        "Figure 20 — Meme dataset: approximation quality",
        &["method", "precision", "ratio"],
    );
    for name in ["EXACT1", "EXACT2", "EXACT3"] {
        let built = build_exact(name, &set);
        let s = measure_queries(&built, &set, &qs, None);
        t19.row(vec![
            built.name.clone(),
            fmt_bytes(built.size_bytes),
            format!("{:.2}", built.build_secs),
            format!("{:.1}", s.avg_ios),
            format!("{:.3}", s.avg_ms),
        ]);
    }
    let b1 = Breakpoints::b1_with_count(&set, opts.r).expect("b1");
    let b2 = Breakpoints::b2_with_count(&set, opts.r, B2Construction::Efficient).expect("b2");
    for v in APPROX_ALL {
        let built = build_approx_shared(v, &set, &b1, &b2, opts.kmax);
        let s = measure_queries(&built, &set, &qs, Some(&truth));
        t19.row(vec![
            built.name.clone(),
            fmt_bytes(built.size_bytes),
            format!("{:.2}", built.build_secs),
            format!("{:.1}", s.avg_ios),
            format!("{:.3}", s.avg_ms),
        ]);
        t20.row(vec![built.name.clone(), format!("{:.3}", s.precision), format!("{:.4}", s.ratio)]);
    }
    t19.print();
    t19.write_csv(&opts.out, "fig19_meme").expect("csv");
    t20.print();
    t20.write_csv(&opts.out, "fig20_meme_quality").expect("csv");
}

// ---------------------------------------------------------------------------
// Ablations: the substrate design knobs (README "Workspace layout":
// `crates/storage`'s block size and buffer pool)
// ---------------------------------------------------------------------------

/// Two ablations over the storage substrate: the block size `B` (the free
/// parameter of every Figure-3 bound) and the buffer-pool capacity (cold vs
/// warm query IOs — the paper measures cold).
fn ablation(opts: &Opts) {
    let set = temp_dataset(opts.m, opts.navg, 42);
    let qs = queries(&set, opts.queries.min(16), 0.2, opts.k);

    // (a) Block size sweep: EXACT3's m/B output term and APPX2's list
    // reads both shrink as B grows; tree heights shrink too.
    let mut ta = Table::new(
        "Ablation (a) — block size vs cold query IOs",
        &["block", "EXACT3 IOs", "EXACT3 size", "APPX2 IOs", "APPX2 size"],
    );
    for block_size in [1024usize, 4096, 16384] {
        let store = StoreConfig { block_size, pool_capacity: 1024 };
        let e3 = build_exact_with("EXACT3", &set, IndexConfig { store });
        let s3 = measure_queries(&e3, &set, &qs, None);
        let t0 = Instant::now();
        let appx = ApproxIndex::build(
            &set,
            ApproxVariant::APPX2,
            ApproxConfig { r: opts.r, kmax: opts.kmax, store },
        )
        .expect("build");
        let built = Built {
            name: "APPX2".into(),
            build_secs: t0.elapsed().as_secs_f64(),
            size_bytes: appx.size_bytes(),
            method: Box::new(appx),
        };
        let sa = measure_queries(&built, &set, &qs, None);
        ta.row(vec![
            block_size.to_string(),
            format!("{:.1}", s3.avg_ios),
            fmt_bytes(e3.size_bytes),
            format!("{:.1}", sa.avg_ios),
            fmt_bytes(built.size_bytes),
        ]);
    }
    ta.print();
    ta.write_csv(&opts.out, "ablation_block_size").expect("csv");

    // (b) Pool capacity: cold queries (the paper methodology, caches
    // dropped per query) vs warm (repeat the same query, caches kept).
    let mut tb = Table::new(
        "Ablation (b) — buffer pool: cold vs warm EXACT3 query IOs",
        &["pool frames", "cold IOs", "warm IOs"],
    );
    for pool in [8usize, 128, 4096] {
        let store = StoreConfig { block_size: 4096, pool_capacity: pool };
        let e3 = build_exact_with("EXACT3", &set, IndexConfig { store });
        let q = qs[0];
        e3.method.drop_caches().expect("drop");
        e3.method.reset_io();
        e3.method.top_k(q.t1, q.t2, q.k, chronorank_core::AggKind::Sum).expect("query");
        let cold = e3.method.io_stats().reads;
        e3.method.reset_io();
        e3.method.top_k(q.t1, q.t2, q.k, chronorank_core::AggKind::Sum).expect("query");
        let warm = e3.method.io_stats().reads;
        tb.row(vec![pool.to_string(), cold.to_string(), warm.to_string()]);
    }
    tb.print();
    tb.write_csv(&opts.out, "ablation_pool").expect("csv");
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
}

/// Reproduce the paper's headline ordering — EXACT3 ≪ EXACT1 and
/// APPX ≪ EXACT3 in per-query I/O — at dataset sizes that cannot be built
/// in memory.
///
/// Every rung regenerates a Memetracker-shaped dataset (n_avg = 67, the
/// paper's §5.1 Meme figure) **as a stream**: the `N`-segment dataset never
/// materializes. Builds go through the streaming constructors
/// (`Exact1::build_streaming`, `Exact3::build_streaming`,
/// `b2_streaming` + `ApproxIndex::build_streaming`), every sorter and
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
/// The binary **self-gates**: it exits nonzero unless EXACT3 beats EXACT1
/// in mean cold-cache I/O on every rung, the best APPX beats EXACT3 on
/// every rung with `N ≥ 10⁵`, EXACT3 stays within the paper's own
/// `2·(log_B N + m/B)` on every rung with `N ≥ 10⁶`, and the streamed
/// BREAKPOINTS2 sweep reports `peak_pending_segments ≤ m`. Writes
/// `BENCH_PAPERSCALE.json` (cwd, or `$CHRONORANK_PAPERSCALE_JSON`) plus a
/// CSV under `--out`.
fn paperscale(opts: &Opts) {
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
    // IO counter before every query. Ground truth is skipped — brute force
    // at these scales would dwarf the builds; precision is covered by
    // fig12/fig16 at matched shapes.
    let measure = |built: &Built, qs: &[chronorank_workloads::QueryInterval]| -> (f64, f64) {
        let mut ios = 0u64;
        let mut secs = 0.0f64;
        for q in qs {
            built.method.drop_caches().expect("drop caches");
            built.method.reset_io();
            let t0 = Instant::now();
            built.method.top_k(q.t1, q.t2, q.k, AggKind::Sum).expect("query");
            secs += t0.elapsed().as_secs_f64();
            ios += built.method.io_stats().reads;
        }
        let n = qs.len().max(1) as f64;
        (ios as f64 / n, secs * 1000.0 / n)
    };

    let mut table = Table::new(
        "Paperscale — per-query cold IO on the N ladder (streamed out-of-core builds)",
        &["N", "method", "build s", "size", "avg IOs", "avg ms"],
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
        let mut record =
            |name: &'static str, built: &Built, qs: &[chronorank_workloads::QueryInterval]| {
                let (avg_ios, avg_ms) = measure(built, qs);
                methods.push(RungMethod {
                    name,
                    build_secs: built.build_secs,
                    size_bytes: built.size_bytes,
                    avg_ios,
                    avg_ms,
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
                name: "EXACT1".into(),
                build_secs: t0.elapsed().as_secs_f64(),
                size_bytes: idx.size_bytes(),
                method: Box::new(idx),
            };
            record("EXACT1", &built, &qs);
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
                name: "EXACT3".into(),
                build_secs: t0.elapsed().as_secs_f64(),
                size_bytes: idx.size_bytes(),
                method: Box::new(idx),
            };
            record("EXACT3", &built, &qs);
            drop(built);
            std::fs::remove_dir_all(rung_dir.join("exact3")).ok();
        }

        // Shared BREAKPOINTS2 for both APPX variants: one streaming sweep at
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

        for (variant, name, sub) in
            [(ApproxVariant::APPX1, "APPX1", "appx1"), (ApproxVariant::APPX2, "APPX2", "appx2")]
        {
            // QUERY1 keeps r+1 files alive (lists + r-1 sub-trees + top).
            let store = budget.store_config(r + 1);
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
            let built = Built {
                // Charge the shared sweep to both variants: the paper's
                // construction cost includes breakpoint computation.
                build_secs: t0.elapsed().as_secs_f64() + b2_secs,
                name: name.into(),
                size_bytes: idx.size_bytes(),
                method: Box::new(idx),
            };
            record(name, &built, &qs);
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

        for mrec in &methods {
            table.row(vec![
                n_segments.to_string(),
                mrec.name.to_string(),
                format!("{:.2}", mrec.build_secs),
                fmt_bytes(mrec.size_bytes),
                format!("{:.1}", mrec.avg_ios),
                format!("{:.3}", mrec.avg_ms),
            ]);
        }

        // Cost-model reference terms (paper Fig. 3, B = entries per block):
        // EXACT1 queries pay O(log_B N + scanned/B), EXACT3 O(log_B N + m/B).
        let method_rows: Vec<String> = methods
            .iter()
            .map(|mr| {
                format!(
                    "        {{\"name\": \"{}\", \"build_secs\": {:.3}, \
                     \"build_throughput_sps\": {:.1}, \"size_bytes\": {}, \
                     \"avg_ios\": {:.2}, \"avg_ms\": {:.4}}}",
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

    table.print();
    table.write_csv(&opts.out, "paperscale").expect("csv");

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
         bench exits nonzero unless EXACT3 < EXACT1 on every rung and best-APPX < EXACT3 on \
         every rung with N >= 1e5 — the paper's Section 5 headline ordering — EXACT3 <= \
         2*(logb_n + m_over_b) of its rung's cost_model on every rung with N >= 1e6, and \
         peak_pending_segments <= m on every rung. peak_pending_segments is the streaming \
         BREAKPOINTS2 sweep's high-water count of objects holding a segment, ≤ m (it keeps \
         one segment per object).\",\n  \
         \"rungs\": [\n{}\n  ]\n}}\n",
        opts.quick,
        budget.total_bytes(),
        budget.pool_bytes(),
        budget.sort_bytes(),
        budget.block_size(),
        rung_jsons.join(",\n"),
    );
    write_bench_json("PAPERSCALE", &json);

    if !gate_failures.is_empty() {
        eprintln!("paperscale gate FAILED:");
        for g in &gate_failures {
            eprintln!("  - {g}");
        }
        std::process::exit(1);
    }
    println!(
        "paperscale gate OK: EXACT3 < EXACT1, APPX < EXACT3 and EXACT3 ≤ 2·(log_B N + m/B) \
         where gated, B2 holds ≤ m segments"
    );
}

// ---------------------------------------------------------------------------
// Bench JSON artifacts
// ---------------------------------------------------------------------------

/// Emit one bench JSON artifact the way every figure does: resolve the
/// output path from `$CHRONORANK_<TAG>_JSON` (default `BENCH_<TAG>.json`
/// in the cwd, so CI can redirect smoke runs under `target/` without
/// clobbering the committed full-scale baselines), write it, announce it.
fn write_bench_json(tag: &str, json: &str) {
    use std::io::Write as _;
    let json_path = std::env::var(format!("CHRONORANK_{tag}_JSON"))
        .unwrap_or_else(|_| format!("BENCH_{tag}.json"));
    let mut f =
        std::fs::File::create(&json_path).unwrap_or_else(|e| panic!("create {json_path}: {e}"));
    f.write_all(json.as_bytes()).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!("wrote {json_path}");
}

fn prepend<'a>(first: &'a str, rest: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![first];
    v.extend_from_slice(rest);
    v
}
