//! The paper's second motivating example (§1): *"find the top-20 stocks
//! having the largest total transaction volumes from 02/05/2011 to
//! 02/07/2011"* — a `sum` aggregate over a short multi-day window, plus
//! the §4 update model: the market keeps trading, segments arrive at the
//! right edge, and a live engine answers fresh queries over them without
//! waiting for a rebuild.
//!
//! Run with: `cargo run --release --example stock_volumes`

use chronorank::core::{AggKind, AppendRecord, Exact3, IndexConfig, RankMethod};
use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::serve::{MethodSet, ServeQuery};
use chronorank::workloads::{DatasetGenerator, StockConfig, StockGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1,000 tickers × 60 trading days, 8 intraday readings each.
    let gen =
        StockGenerator::new(StockConfig { objects: 1000, days: 60, readings_per_day: 8, seed: 11 });
    let mut set = gen.generate_set();
    let exact3 = Exact3::build(&set, IndexConfig::default())?;

    // "Total volume over days 40–42" (a 3-day window like 02/05–02/07).
    let (t1, t2) = (40.0, 43.0);
    let top = exact3.top_k(t1, t2, 20, AggKind::Sum)?;
    println!("top-20 tickers by total volume over days 40-42:");
    for (rank, &(id, vol)) in top.entries().iter().enumerate() {
        println!("  #{:<2} ticker {:<5} volume {:.1}", rank + 1, id, vol);
    }

    // The market trades on: a live engine over the same 60 days takes one
    // more half-day tick per ticker as a single WAL-durable batch (the
    // paper's §4 right-edge update model). A built index never changes:
    // the engine rescores the appended segments into every answer and
    // rebuilds its frozen generation once the mass doubles.
    let mut engine = IngestEngine::new(
        &set,
        LiveConfig {
            methods: MethodSet { appx2: false, appx2_plus: false, ..Default::default() },
            rebuild: RebuildPolicy { max_tail_segments: usize::MAX, ..Default::default() },
            ..Default::default()
        },
    )?;
    println!("\nappending one more half-day for all {} tickers…", set.num_objects());
    let mut batch = Vec::with_capacity(set.num_objects());
    for o in set.objects() {
        let end = o.curve.end();
        // A flat tick roughly continuing the last level.
        let v = o.curve.eval(end).unwrap_or(0.0);
        batch.push(AppendRecord { object: o.id, t: end + 0.5, v });
    }
    engine.append_batch(&batch)?;
    for &rec in &batch {
        set.apply(rec)?;
    }

    // Query the freshly appended region.
    let fresh_start = set.t_max() - 0.6;
    let fresh = engine.query(ServeQuery::exact(fresh_start, set.t_max(), 5))?;
    println!("top-5 by volume in the just-appended half-day:");
    for (rank, &(id, vol)) in fresh.entries().iter().enumerate() {
        println!("  #{:<2} ticker {:<5} volume {:.1}", rank + 1, id, vol);
    }
    let report = engine.report();
    println!(
        "live tail: {} appended segments; mass {:.3}× the built generation's (rebuild at 2×)",
        report.tail_segments,
        report.live_mass / report.built_mass
    );

    // Sanity: the engine agrees with brute force after the updates.
    let want = set.top_k_bruteforce(fresh_start, set.t_max(), 5);
    assert_eq!(want.ids(), fresh.ids(), "engine must agree with brute force");
    println!("verified against brute-force ground truth ✓");
    Ok(())
}
