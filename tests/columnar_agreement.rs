//! Columnar-tail and batch-execution agreement (ISSUE 10 acceptance):
//!
//! (a) property test (`PROPTEST_CASES`-scaled): a `ColumnarTail` fed an
//!     append stream is **bit-identical** to the row-wise
//!     `PiecewiseLinear` path — per-object integrals, batch integrals,
//!     and multi-window integrals agree to the last bit at *every* stream
//!     prefix, across mid-stream `freeze()` compactions;
//! (b) `execute(window)` on both engines (serve and live) is bit-identical
//!     — answers, routes and `eps_used` — to the concatenation of
//!     `execute(&[q])`, for W ∈ {1, 4} (plus `$CHRONORANK_AGREEMENT_W`),
//!     on windows full of duplicates, snapped neighbours, mixed exact/approx
//!     tolerances, and the empty window; on live with appends and forced
//!     rebuilds between windows;
//! (c) probe-dedup regression: a batch window of probe-identical queries
//!     costs each shard's result cache exactly **one** lookup, where the
//!     same queries issued solo cost one lookup each.

use chronorank::core::{TemporalSet, TopK};
use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::obs::SpanSink;
use chronorank::serve::{Answer, ServeConfig, ServeEngine, ServeQuery};
use chronorank::workloads::{
    AppendStream, AppendStreamConfig, DatasetGenerator, StockConfig, StockGenerator, TempConfig,
    TempGenerator,
};
use proptest::prelude::*;

/// {1, 4} plus `$CHRONORANK_AGREEMENT_W` when set (the CI wide sweep).
fn worker_widths() -> Vec<usize> {
    let mut widths = vec![1usize, 4];
    if let Ok(w) = std::env::var("CHRONORANK_AGREEMENT_W") {
        let w: usize = w.parse().expect("CHRONORANK_AGREEMENT_W must be a worker count");
        if !widths.contains(&w) {
            widths.push(w);
        }
    }
    widths
}

/// Bit-identical comparison: same ids, same score bits.
fn assert_bit_identical(want: &TopK, got: &TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    assert_eq!(want.ids(), got.ids(), "{ctx}: ids");
    for (j, (ws, gs)) in want.scores().iter().zip(got.scores()).enumerate() {
        assert_eq!(ws.to_bits(), gs.to_bits(), "{ctx} rank {j}: {ws} vs {gs}");
    }
}

/// A window's answers against the same queries executed in windows of one:
/// same bits, same routes, same restated ε.
fn assert_window_matches_solo(got: &[Answer], want: &[Answer], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: one answer per query");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_bit_identical(&w.topk, &g.topk, &format!("{ctx} query {i}"));
        assert_eq!(g.route, w.route, "{ctx} query {i}: route");
        assert_eq!(
            g.eps_used.map(f64::to_bits),
            w.eps_used.map(f64::to_bits),
            "{ctx} query {i}: eps_used"
        );
    }
}

fn temp_set(objects: usize) -> TemporalSet {
    TempGenerator::new(TempConfig { objects, avg_segments: 30, seed: 47, dropout: 0.0 })
        .generate_set()
}

/// A mixed admission window over `set`: duplicated exact probes, distinct
/// exact probes, snapped-together approximate neighbours, and a stray k.
fn mixed_window(set: &TemporalSet) -> Vec<ServeQuery> {
    let (lo, span) = (set.t_min(), set.span());
    let (a, b) = (lo + 0.2 * span, lo + 0.7 * span);
    vec![
        ServeQuery::exact(a, b, 6),
        ServeQuery::exact(a, b, 6), // exact duplicate of [0]
        ServeQuery::exact(lo + 0.05 * span, lo + 0.3 * span, 6),
        ServeQuery::approx(a, b, 5, 0.5),
        ServeQuery::approx(a + 1e-9 * span, b - 1e-9 * span, 5, 0.5), // snaps with [3]
        ServeQuery::approx(a, b, 3, 0.5),                             // same interval, different k
        ServeQuery::exact(a, b, 9),                                   // same interval, different k
    ]
}

#[test]
fn serve_query_batch_is_bit_identical_to_solo_queries() {
    let set = temp_set(60);
    let window = mixed_window(&set);
    let noop = SpanSink::noop();
    for w in worker_widths() {
        let windowed =
            ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
        let solo =
            ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
        // The full window, then sizes 1 and 4: degenerate windows too.
        for sub in [&window[..], &window[..1], &window[..4]] {
            let got = windowed.execute(sub, None, &noop).unwrap();
            let want: Vec<Answer> = sub
                .iter()
                .flat_map(|q| solo.execute(std::slice::from_ref(q), None, &noop).unwrap())
                .collect();
            assert_window_matches_solo(&got, &want, &format!("serve W={w} |window|={}", sub.len()));
            for (q, a) in sub.iter().zip(&got) {
                assert_eq!(a.route, solo.route_for(q), "serve W={w}: planner route");
                assert_eq!(a.route.is_exact(), a.eps_used.is_none(), "serve W={w}: eps class");
            }
        }
        assert!(windowed.execute(&[], None, &noop).unwrap().is_empty());
        assert_eq!(windowed.report().queries, solo.report().queries, "every query is counted");
    }
}

#[test]
fn live_query_batch_is_bit_identical_to_solo_queries() {
    let generator =
        TempGenerator::new(TempConfig { objects: 40, avg_segments: 24, seed: 29, dropout: 0.0 });
    let stream = AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.5, batch: 24, skew: 0.0, seed: 31 },
    );
    let seed = stream.base_set();
    let noop = SpanSink::noop();
    for w in worker_widths() {
        // A full tail forces a rebuild every few batches; installing both
        // engines' builds after every batch makes the swaps land at the
        // same stream prefixes on both.
        let config = LiveConfig {
            workers: w,
            rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 48 / w },
            ..Default::default()
        };
        let mut windowed = IngestEngine::new(&seed, config.clone()).unwrap();
        let mut solo = IngestEngine::new(&seed, config).unwrap();
        for (i, batch) in stream.batches().enumerate() {
            windowed.append_batch(batch).unwrap();
            solo.append_batch(batch).unwrap();
            windowed.finish_rebuilds();
            solo.finish_rebuilds();
            if i % 4 != 0 {
                continue;
            }
            // Probe mid-stream so the windows hit mutable columnar tails,
            // not just frozen generations.
            let window = mixed_window(&windowed.live_set());
            let got = windowed.execute(&window, None, &noop).unwrap();
            let want: Vec<Answer> = window
                .iter()
                .flat_map(|q| solo.execute(std::slice::from_ref(q), None, &noop).unwrap())
                .collect();
            assert_window_matches_solo(&got, &want, &format!("live W={w} batch {i}"));
        }
        assert!(windowed.execute(&[], None, &noop).unwrap().is_empty());
        let (a, b) = (windowed.report(), solo.report());
        assert!(a.rebuilds > 0, "live W={w}: the stream must force rebuilds between windows");
        assert_eq!(a.rebuilds, b.rebuilds, "live W={w}: both engines swapped alike");
    }
}

#[test]
fn batch_window_of_identical_queries_costs_one_cache_lookup_per_shard() {
    let set = temp_set(60);
    let (lo, span) = (set.t_min(), set.span());
    let q = ServeQuery::approx(lo + 0.2 * span, lo + 0.7 * span, 5, 0.5);
    let w = 2;

    // Serve tier: the window's eight probe-identical queries form one
    // group, so each shard's result cache sees exactly one (cold) lookup…
    let batched = ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
    assert!(
        batched.route_for(&q).cacheable(),
        "the ε budget must admit a snap-keyed route for this regression to bite"
    );
    let window = vec![q; 8];
    let got = batched.execute(&window, None, &SpanSink::noop()).unwrap();
    let r = batched.report();
    assert_eq!(r.cache_lookups, w as u64, "one lookup per shard for the whole window");
    assert_eq!(r.cache_hits, 0, "a deduped window never re-asks its own probe");
    // …where the same queries issued solo cost one lookup each.
    let solo = ServeEngine::new(&set, ServeConfig { workers: w, ..Default::default() }).unwrap();
    let mut want = Vec::new();
    for q in &window {
        want.push(solo.query(*q).unwrap());
    }
    let r = solo.report();
    assert_eq!(r.cache_lookups, 8 * w as u64);
    assert_eq!(r.cache_hits, 7 * w as u64, "solo repeats hit the cache after the first miss");
    for (i, w) in want.iter().enumerate() {
        assert_bit_identical(w, &got[i].topk, &format!("dedup vs solo {i}"));
    }

    // Live tier: same contract through the ingest engine's shard caches.
    let live = IngestEngine::new(&set, LiveConfig { workers: w, ..Default::default() }).unwrap();
    assert!(live.route_for(&q).cacheable());
    live.execute(&window, None, &SpanSink::noop()).unwrap();
    let r = live.report();
    assert_eq!(r.cache_lookups, w as u64, "live: one lookup per shard for the whole window");
    assert_eq!(r.cache_hits, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) The columnar tail is bit-identical to the row path at every
    /// append-stream prefix: per-object integrals, the batch kernel, and
    /// multi-window gathers all reproduce `PiecewiseLinear::integral` to
    /// the last bit, with `freeze()` compactions interleaved mid-stream.
    #[test]
    fn columnar_tail_matches_row_path_at_every_prefix(
        seed_sel in 0u64..1000,
        batch in 4usize..24,
        skew in 0.0f64..1.5,
    ) {
        let generator = StockGenerator::new(StockConfig {
            objects: 10,
            days: 5,
            readings_per_day: 6,
            seed: seed_sel,
        });
        let stream = AppendStream::from_generator(
            &generator,
            AppendStreamConfig { base_fraction: 0.4, batch, skew, seed: 31 },
        );
        let base = stream.base_set();
        let mut columns = base.to_columnar();
        let mut rows = base.objects().to_vec();
        let ids: Vec<u32> = (0..columns.num_objects()).map(|i| i as u32).collect();
        for (b, recs) in stream.batches().enumerate() {
            for rec in recs {
                let (pt, pv) = columns.append(rec.object as usize, rec.t, rec.v).unwrap();
                let o = &rows[rec.object as usize].curve;
                let last = o.segments().last().unwrap();
                prop_assert_eq!(pt.to_bits(), o.end().to_bits());
                prop_assert_eq!(pv.to_bits(), last.v1.to_bits());
                rows[rec.object as usize].curve.append(rec.t, rec.v).unwrap();
            }
            // Freeze (compact log → base) on some prefixes: integrals must
            // not move a bit across the epoch bump.
            if b % 3 == 2 {
                columns.freeze();
            }
            let hi = rows.iter().map(|o| o.curve.end()).fold(f64::NEG_INFINITY, f64::max);
            let lo = base.t_min();
            let windows =
                [(lo, hi), (lo, lo + 0.3 * (hi - lo)), (lo + 0.6 * (hi - lo), hi + 1.0)];
            for (a, z) in windows {
                for (i, o) in rows.iter().enumerate() {
                    prop_assert_eq!(
                        columns.integral(i, a, z).to_bits(),
                        o.curve.integral(a, z).to_bits(),
                        "object {} window [{}, {}] after batch {}", i, a, z, b
                    );
                }
                let mut batch_scores = Vec::new();
                columns.integral_batch(&ids, a, z, &mut batch_scores);
                for (i, s) in batch_scores.iter().enumerate() {
                    prop_assert_eq!(s.to_bits(), rows[i].curve.integral(a, z).to_bits());
                }
            }
            let mut multi = Vec::new();
            columns.integral_multi(&ids, &windows, &mut multi);
            for (wi, (a, z)) in windows.iter().enumerate() {
                for (i, o) in rows.iter().enumerate() {
                    prop_assert_eq!(
                        multi[wi * ids.len() + i].to_bits(),
                        o.curve.integral(*a, *z).to_bits()
                    );
                }
            }
        }
    }
}
