//! The paper's second motivating example (§1): *"find the top-20 stocks
//! having the largest total transaction volumes from 02/05/2011 to
//! 02/07/2011"* — a `sum` aggregate over a short multi-day window, plus
//! the §4 update path: the market keeps trading, segments are appended at
//! the right edge, and the index answers fresh queries without a rebuild.
//!
//! Run with: `cargo run --release --example stock_volumes`

use chronorank::core::{AggKind, Exact3, IndexConfig, RankMethod};
use chronorank::curve::Segment;
use chronorank::workloads::{DatasetGenerator, StockConfig, StockGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1,000 tickers × 60 trading days, 8 intraday readings each.
    let gen =
        StockGenerator::new(StockConfig { objects: 1000, days: 60, readings_per_day: 8, seed: 11 });
    let mut set = gen.generate_set();
    let mut exact3 = Exact3::build(&set, IndexConfig::default())?;

    // "Total volume over days 40–42" (a 3-day window like 02/05–02/07).
    let (t1, t2) = (40.0, 43.0);
    let top = exact3.top_k(t1, t2, 20, AggKind::Sum)?;
    println!("top-20 tickers by total volume over days 40-42:");
    for (rank, &(id, vol)) in top.entries().iter().enumerate() {
        println!("  #{:<2} ticker {:<5} volume {:.1}", rank + 1, id, vol);
    }

    // The market trades on: append day 61 for every ticker (the paper's §4
    // right-edge update model, O(log_B N) per appended segment).
    println!("\nappending one more trading day for all {} tickers…", set.num_objects());
    for id in 0..set.num_objects() as u32 {
        let end = set.object(id)?.curve.end();
        let v_end = set.object(id)?.curve.eval(end).unwrap_or(0.0);
        // A flat half-day tick roughly continuing the last level.
        let seg = Segment::new(end, v_end, end + 0.5, v_end);
        set.append_segment(id, seg.t1, seg.v1)?;
        exact3.append_segment(id, seg)?;
    }

    // Query the freshly appended region.
    let fresh_start = set.t_max() - 0.6;
    let fresh = exact3.top_k(fresh_start, set.t_max(), 5, AggKind::Sum)?;
    println!("top-5 by volume in the just-appended half-day:");
    for (rank, &(id, vol)) in fresh.entries().iter().enumerate() {
        println!("  #{:<2} ticker {:<5} volume {:.1}", rank + 1, id, vol);
    }
    println!(
        "interval tree tail: {} appended entries; rebuild due: {}",
        set.num_objects(),
        exact3.needs_rebuild()
    );

    // Sanity: the index agrees with brute force after the updates.
    let want = set.top_k_bruteforce(fresh_start, set.t_max(), 5);
    assert_eq!(want.ids(), fresh.ids(), "index must agree with brute force");
    println!("verified against brute-force ground truth ✓");
    Ok(())
}
