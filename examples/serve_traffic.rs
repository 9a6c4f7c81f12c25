//! Serve a skewed query stream through the sharded engine and print the
//! `ServeReport`.
//!
//! A Meme-style dataset is sharded across 4 workers; traffic is a Zipf
//! stream (a few hot dashboards asked over and over, plus background
//! noise) mixing three client profiles: exact, approximate, and
//! approximate-with-tight-ranks. The report shows the planner's route mix,
//! the cache hit rate, and the aggregated per-shard IO.
//!
//! Run with: `cargo run --release --example serve_traffic`

use chronorank::obs::SpanSink;
use chronorank::serve::{ServeConfig, ServeEngine, ServeQuery};
use chronorank::workloads::{
    DatasetGenerator, IntervalPattern, MemeConfig, MemeGenerator, QueryWorkload,
    QueryWorkloadConfig,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A Memetracker-style dataset: bursty, heavy-tailed curves.
    let set = MemeGenerator::new(MemeConfig {
        objects: 2_000,
        avg_segments: 40,
        span: 10_000.0,
        seed: 42,
    })
    .generate_set();
    println!(
        "dataset: m = {} objects, N = {} segments, domain [{:.0}, {:.0}]",
        set.num_objects(),
        set.num_segments(),
        set.t_min(),
        set.t_max()
    );

    // 2. The engine: 4 shards, each with EXACT3 + APPX2 + APPX2+ and a
    //    shard-local result cache (the defaults).
    let engine = ServeEngine::new(&set, ServeConfig { workers: 4, ..Default::default() })?;

    // 3. A Zipf-skewed interval stream: 8 hot intervals, exponent 1,
    //    10% uniform background.
    let workload = QueryWorkload::new(
        QueryWorkloadConfig {
            count: 3_000,
            span_fraction: 0.2,
            k: 20,
            seed: 7,
            pattern: IntervalPattern::Zipf { hotspots: 8, exponent: 1.0, background: 0.1 },
        },
        set.t_min(),
        set.t_max(),
    );
    // Client mix: 20% exact dashboards, 70% approximate (ε = 1%), 10%
    // approximate with tight ranks (ε = 1%, α = 1-grade).
    let queries: Vec<ServeQuery> = workload
        .generate()
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 10 {
            0 | 1 => ServeQuery::exact(q.t1, q.t2, q.k),
            2 => ServeQuery::approx_tight(q.t1, q.t2, q.k, 0.01),
            _ => ServeQuery::approx(q.t1, q.t2, q.k, 0.01),
        })
        .collect();

    // 4. Serve the stream in windows of 16 and report.
    let t0 = Instant::now();
    let mut served = 0;
    for window in queries.chunks(16) {
        served += engine.execute(window, None, &SpanSink::noop())?.len();
    }
    let secs = t0.elapsed().as_secs_f64();
    println!("\nserved {served} queries in {secs:.2}s — {:.0} queries/sec\n", served as f64 / secs);
    print!("{}", engine.report());

    // 5. Spot-check one hot answer against brute force.
    let hot = workload.hotspots()[0];
    let truth = set.top_k_bruteforce(hot.t1, hot.t2, 5);
    let served = engine.query(ServeQuery::exact(hot.t1, hot.t2, 5))?;
    println!("\nhot interval [{:.0}, {:.0}] top-5 (exact route):", hot.t1, hot.t2);
    for j in 0..served.len() {
        let (id, s) = served.rank(j);
        println!("  #{} object {id:>5} score {s:>12.3}", j + 1);
        assert_eq!(id, truth.rank(j).0, "serving layer must agree with brute force");
    }
    Ok(())
}
