//! A live stock ticker on the full ingest stack: stream trading-volume
//! readings into a WAL-backed [`chronorank::live::IngestEngine`] while
//! top-k queries keep flowing — the paper's §4 scenario ("the stock
//! market keeps trading") as an end-to-end system instead of a single
//! index method.
//!
//! The run bootstraps the engine from the first half of a generated
//! stock-volume dataset, then replays the second half as a time-ordered
//! append trace with hot-spot queries interleaved after every durable
//! batch. Watch the report at the end: rebuilds happen *during* the run
//! (off-thread, swap pauses in microseconds) and the WAL accounts for
//! every accepted tick.
//!
//! Run with: `cargo run --release --example live_ticker`

use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::serve::ServeQuery;
use chronorank::workloads::{
    AppendStream, AppendStreamConfig, IntervalPattern, LiveOp, QueryWorkloadConfig, StockConfig,
    StockGenerator,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 400 tickers × 30 trading days; the engine starts with the first ~15
    // days and the rest arrives live, 64 ticks per durable batch.
    let generator =
        StockGenerator::new(StockConfig { objects: 400, days: 30, readings_per_day: 8, seed: 11 });
    let stream = AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.5, batch: 64, skew: 0.0, seed: 7 },
    );
    let seed = stream.base_set();
    println!(
        "bootstrap: {} tickers, {} segments, {} ticks still to arrive",
        seed.num_objects(),
        seed.num_segments(),
        stream.records().len()
    );

    let mut engine = IngestEngine::new(
        &seed,
        LiveConfig {
            workers: 4,
            rebuild: RebuildPolicy { mass_factor: 1.5, max_tail_segments: 2048 },
            ..Default::default()
        },
    )?;

    // Mixed traffic: after every batch of ticks, two hot-spot queries
    // ("total volume over the busy window everyone keeps asking about").
    let ops = stream.hotspot(
        QueryWorkloadConfig {
            span_fraction: 0.15,
            k: 10,
            seed: 3,
            pattern: IntervalPattern::Zipf { hotspots: 6, exponent: 1.0, background: 0.1 },
            ..Default::default()
        },
        2,
    );
    let n_appends = ops.iter().filter(|op| matches!(op, LiveOp::Appends(_))).count();
    println!("replaying {} batches with {} interleaved queries…", n_appends, ops.len() - n_appends);
    let t0 = std::time::Instant::now();
    let (mut ticks, mut answered) = (0usize, 0usize);
    for op in &ops {
        match op {
            LiveOp::Appends(batch) => {
                engine.append_batch(batch)?;
                ticks += batch.len();
            }
            LiveOp::Query(q) => {
                engine.query(ServeQuery::exact(q.t1, q.t2, q.k))?;
                answered += 1;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "ingested {ticks} ticks at {:.0} ticks/s while answering {answered} queries at {:.0} q/s",
        ticks as f64 / secs,
        answered as f64 / secs
    );

    // The market close: who traded the most over the freshly arrived days?
    let live = engine.live_set();
    let (t1, t2) = (live.t_max() - 3.0, live.t_max());
    let top = engine.query(ServeQuery::exact(t1, t2, 10))?;
    println!("\ntop-10 tickers by volume over the last 3 (live-streamed) days:");
    for (rank, &(id, vol)) in top.entries().iter().enumerate() {
        println!("  #{:<2} ticker {:<4} volume {:.1}", rank + 1, id, vol);
    }
    // Cross-check against brute force over the engine's live data.
    let oracle = live.top_k_bruteforce(t1, t2, 10);
    assert_eq!(oracle.ids(), top.ids(), "live answers must equal ground truth");

    println!("\n{}", engine.report());
    Ok(())
}
