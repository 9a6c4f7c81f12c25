//! Memetracker-style analysis (the paper's second dataset): *"how
//! different quotes and phrases compete for coverage every day and how some
//! quickly fade out of use while others persist"*. Demonstrates the
//! approximate methods where they shine — bursty data, large `m`, queries
//! that must not touch all `m` objects — and compares all five APPX
//! variants' quality against the exact answer (paper Figures 19–20).
//!
//! Run with: `cargo run --release --example meme_tracker`

use chronorank::core::metrics;
use chronorank::core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, Exact3, IndexConfig, RankMethod,
};
use chronorank::workloads::{DatasetGenerator, MemeConfig, MemeGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let set = MemeGenerator::new(MemeConfig {
        objects: 10_000,
        avg_segments: 67,
        span: 10_000.0,
        seed: 5,
    })
    .generate_set();
    println!(
        "meme dataset: m = {}, N = {}, bursty and heavy-tailed",
        set.num_objects(),
        set.num_segments()
    );

    let exact3 = Exact3::build(&set, IndexConfig::default())?;
    let (t1, t2) = (3000.0, 5000.0);
    let k = 20;
    let exact = exact3.top_k(t1, t2, k, AggKind::Sum)?;
    println!("\nexact top-{k} phrases by total coverage on [{t1}, {t2}]:");
    for (rank, &(id, s)) in exact.entries().iter().take(5).enumerate() {
        println!("  #{:<2} phrase {:<6} coverage {:.1}", rank + 1, id, s);
    }
    println!("  … ({} more)", k - 5);

    println!(
        "\n{:<9} {:>10} {:>12} {:>11} {:>10} {:>10}",
        "method", "size KiB", "build ms", "query IOs", "prec", "ratio"
    );
    for variant in ApproxVariant::ALL {
        let t0 = std::time::Instant::now();
        let idx = ApproxIndex::build(
            &set,
            variant,
            ApproxConfig { r: 128, kmax: 64, ..Default::default() },
        )?;
        let build_ms = t0.elapsed().as_millis();
        idx.drop_caches()?;
        idx.reset_io();
        let answer = idx.top_k(t1, t2, k, AggKind::Sum)?;
        let ios = idx.io_stats().reads;
        let prec = metrics::precision(&exact, &answer);
        let ratio = metrics::approximation_ratio(&set, &answer, t1, t2)?;
        println!(
            "{:<9} {:>10} {:>12} {:>11} {:>10.3} {:>10.3}",
            idx.name(),
            idx.size_bytes() / 1024,
            build_ms,
            ios,
            prec,
            ratio.mean
        );
    }

    exact3.drop_caches()?;
    exact3.reset_io();
    let _ = exact3.top_k(t1, t2, k, AggKind::Sum)?;
    println!(
        "{:<9} {:>10} {:>12} {:>11} {:>10.3} {:>10.3}",
        "EXACT3",
        exact3.size_bytes() / 1024,
        "-",
        exact3.io_stats().reads,
        1.0,
        1.0
    );
    println!(
        "\nAPPX* answer from KiB-scale indexes in a handful of IOs; EXACT3 pays m/B per stab."
    );
    Ok(())
}
