//! Live-ingest agreement (ISSUE 3 acceptance):
//!
//! (a) after **any** prefix of an append trace, the live engine's exact
//!     answers are bit-identical to a fresh bulk build over that prefix,
//!     for W ∈ {1, 4} (plus `$CHRONORANK_AGREEMENT_W` — CI re-runs at
//!     W = 8 with `RUST_TEST_THREADS` unpinned);
//! (b) WAL replay after a simulated crash reproduces the pre-crash
//!     answers bit-for-bit, with and without an intervening checkpoint —
//!     and so does booting an image that still carries the per-shard
//!     EXACT1 sections checkpoints wrote before ISSUE 15;
//! (c) property test (`PROPTEST_CASES`-scaled): approximate answers —
//!     including ones served from the staleness-audited cache — never
//!     violate the ε·M budget against the live ground truth, no matter
//!     how appends interleave with queries.

use chronorank::core::{Exact1, IndexConfig, TemporalSet, TopK};
use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::serve::ServeQuery;
use chronorank::storage::{GenerationImage, ImageWriter, IoCounter, StoreConfig};
use chronorank::workloads::{
    AppendStream, AppendStreamConfig, StockConfig, StockGenerator, TempConfig, TempGenerator,
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

fn temp_stream(objects: usize, batch: usize, skew: f64) -> AppendStream {
    let generator =
        TempGenerator::new(TempConfig { objects, avg_segments: 24, seed: 29, dropout: 0.0 });
    AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.45, batch, skew, seed: 31 },
    )
}

/// Bit-identical comparison: same ids, same score bits.
fn assert_bit_identical(want: &TopK, got: &TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    assert_eq!(want.ids(), got.ids(), "{ctx}: ids");
    for (j, (ws, gs)) in want.scores().iter().zip(got.scores()).enumerate() {
        assert_eq!(ws.to_bits(), gs.to_bits(), "{ctx} rank {j}: {ws} vs {gs}");
    }
}

/// The acceptance queries at one checkpoint: an old window, the fresh
/// right edge, and the full span.
fn probe_windows(set: &TemporalSet) -> [(f64, f64); 3] {
    [
        (set.t_min(), set.t_min() + 0.2 * set.span()),
        (set.t_max() - 0.15 * set.span(), set.t_max()),
        (set.t_min(), set.t_max()),
    ]
}

#[test]
fn streamed_ingest_equals_fresh_bulk_build_at_every_prefix() {
    let stream = temp_stream(40, 24, 0.0);
    let seed = stream.base_set();
    for w in worker_widths() {
        let mut engine =
            IngestEngine::new(&seed, LiveConfig { workers: w, ..Default::default() }).unwrap();
        let mut oracle_objects = seed.objects().to_vec();
        for (i, batch) in stream.batches().enumerate() {
            engine.append_batch(batch).unwrap();
            for rec in batch {
                let o = &mut oracle_objects[rec.object as usize];
                o.curve.append(rec.t, rec.v).unwrap();
            }
            if i % 3 != 0 {
                continue;
            }
            // A genuinely fresh bulk build over the same prefix.
            let bulk = TemporalSet::from_objects(oracle_objects.clone()).unwrap();
            for (t1, t2) in probe_windows(&bulk) {
                let got = engine.query(ServeQuery::exact(t1, t2, 7)).unwrap();
                let want = bulk.top_k_bruteforce(t1, t2, 7);
                assert_bit_identical(&want, &got, &format!("W={w} batch {i} [{t1},{t2}]"));
            }
        }
        // The final live state is segment-for-segment the generator's bulk
        // output.
        assert_eq!(engine.live_set().num_segments(), stream.full_set().num_segments());
    }
}

#[test]
fn skewed_arrival_changes_nothing_about_answers() {
    // The same dataset streamed with bursty per-object arrival must agree
    // with the time-ordered trace at the end state.
    let flat = temp_stream(24, 16, 0.0);
    let skewed = temp_stream(24, 16, 1.5);
    let seed = flat.base_set();
    let mut a = IngestEngine::new(&seed, LiveConfig::default()).unwrap();
    let mut b = IngestEngine::new(&seed, LiveConfig::default()).unwrap();
    for batch in flat.batches() {
        a.append_batch(batch).unwrap();
    }
    for batch in skewed.batches() {
        b.append_batch(batch).unwrap();
    }
    let full = flat.full_set();
    for (t1, t2) in probe_windows(&full) {
        let qa = a.query(ServeQuery::exact(t1, t2, 6)).unwrap();
        let qb = b.query(ServeQuery::exact(t1, t2, 6)).unwrap();
        assert_bit_identical(&qa, &qb, &format!("[{t1},{t2}]"));
    }
}

#[test]
fn wal_replay_after_crash_reproduces_pre_crash_answers() {
    let dir = std::env::temp_dir().join(format!("chronorank-live-agree-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = temp_stream(30, 20, 0.0);
    let seed = stream.base_set();
    let config = LiveConfig { workers: 4, wal_dir: Some(dir.clone()), ..Default::default() };
    let batches: Vec<_> = stream.batches().collect();
    let mid = batches.len() / 2;

    let mut pre_crash: Vec<(f64, f64, TopK)> = Vec::new();
    {
        let mut engine = IngestEngine::new(&seed, config.clone()).unwrap();
        for batch in &batches[..mid] {
            engine.append_batch(batch).unwrap();
        }
        // Checkpoint: snapshot + WAL truncation. Recovery must cope with
        // both the snapshot and the records logged after it.
        engine.checkpoint().unwrap();
        for batch in &batches[mid..] {
            engine.append_batch(batch).unwrap();
        }
        let live = engine.live_set();
        for (t1, t2) in probe_windows(&live) {
            let top = engine.query(ServeQuery::exact(t1, t2, 8)).unwrap();
            pre_crash.push((t1, t2, top));
        }
        // Simulated crash: drop without checkpoint or graceful teardown.
    }
    {
        let recovered = IngestEngine::new(&seed, config.clone()).unwrap();
        for (t1, t2, want) in &pre_crash {
            let got = recovered.query(ServeQuery::exact(*t1, *t2, 8)).unwrap();
            assert_bit_identical(want, &got, &format!("recovered [{t1},{t2}]"));
        }
        // Recovery is idempotent: a second recovery sees the same state.
        drop(recovered);
        let again = IngestEngine::new(&seed, config.clone()).unwrap();
        let (t1, t2, want) = &pre_crash[2];
        let got = again.query(ServeQuery::exact(*t1, *t2, 8)).unwrap();
        assert_bit_identical(want, &got, "second recovery");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `LiveReport.index_io` is every block the generations' pools moved, not
/// only the queries': a checkpoint images the EXACT3 tree through its pool.
#[test]
fn a_checkpoint_reads_the_tree_into_index_io() {
    let dir = std::env::temp_dir().join(format!("chronorank-live-ckio-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let seed = temp_stream(60, 20, 0.0).base_set();
    // A tree of ~60 512-byte pages behind 8 frames: imaging it must read.
    let store = StoreConfig { block_size: 512, pool_capacity: 8 };
    let config = LiveConfig { workers: 1, store, wal_dir: Some(dir.clone()), ..Default::default() };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    // The same query follows every step, and its own reads are taken out
    // by asking it once more: what is left is the checkpoint's.
    let q = ServeQuery::exact(seed.t_min(), seed.t_min() + 0.5 * seed.span(), 8);
    let reads_after_query = |engine: &IngestEngine| {
        engine.query(q).unwrap();
        engine.report().index_io.reads
    };
    let r0 = reads_after_query(&engine);
    engine.checkpoint().unwrap();
    let r1 = reads_after_query(&engine);
    let r2 = reads_after_query(&engine);
    let imaging = (r1 - r0) as i64 - (r2 - r1) as i64;
    assert!(imaging >= 30, "imaging read {imaging} blocks ({r0} → {r1} → {r2})");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrite the image at `path` the way a pre-ISSUE-15 checkpoint wrote
/// it: every shard's metadata flags an EXACT1 tree (byte 8) and the
/// `exact1_pages` / `exact1_meta` sections follow it.
fn add_exact1_sections(path: &std::path::Path, exact1: &Exact1) {
    let mut img = GenerationImage::open(path).unwrap();
    let names: Vec<String> = img.section_names().iter().map(|n| n.to_string()).collect();
    let staged = path.with_extension("old");
    let mut w = ImageWriter::create(&staged).unwrap();
    for name in &names {
        // `blob` refuses a paged section, which is how the two kinds are told apart.
        match img.blob(name) {
            Ok(mut bytes) => {
                if let Some(prefix) = name.strip_suffix("meta").filter(|p| p.ends_with('/')) {
                    bytes[8] = 1;
                    w.add_blob(name, &bytes).unwrap();
                    w.add_paged(&format!("{prefix}exact1_pages"), exact1.tree_file()).unwrap();
                    w.add_blob(&format!("{prefix}exact1_meta"), &exact1.meta_bytes()).unwrap();
                } else {
                    w.add_blob(name, &bytes).unwrap();
                }
            }
            Err(_) => w.add_paged(name, &img.paged(name, 8, IoCounter::new()).unwrap()).unwrap(),
        }
    }
    w.finish(img.epoch()).unwrap();
    std::fs::rename(&staged, path).unwrap();
}

#[test]
fn an_image_with_exact1_sections_boots_from_the_image() {
    let dir = std::env::temp_dir().join(format!("chronorank-live-oldimg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = temp_stream(30, 20, 0.0);
    let seed = stream.base_set();
    for w in worker_widths() {
        let config = LiveConfig { workers: w, wal_dir: Some(dir.clone()), ..Default::default() };
        let mut want: Vec<(f64, f64, TopK)> = Vec::new();
        {
            let mut engine = IngestEngine::new(&seed, config.clone()).unwrap();
            for batch in stream.batches() {
                engine.append_batch(batch).unwrap();
            }
            engine.checkpoint().unwrap();
            let live = engine.live_set();
            // A hairline window too: what the EXACT1 tree used to answer.
            let hairline = (live.t_min() + 0.5 * live.span(), live.t_min() + 0.501 * live.span());
            for (t1, t2) in probe_windows(&live).into_iter().chain([hairline]) {
                want.push((t1, t2, engine.query(ServeQuery::exact(t1, t2, 8)).unwrap()));
            }
        }
        let image = dir.join("generation.img");
        add_exact1_sections(&image, &Exact1::build(&seed, IndexConfig::default()).unwrap());
        let sections = GenerationImage::open(&image).unwrap().section_names().join(" ");
        assert!(sections.contains("s0/exact1_pages") && sections.contains("s0/exact1_meta"));
        let recovered = IngestEngine::new(&seed, config).unwrap();
        assert_eq!(recovered.report().preloaded_shards, w as u64, "W={w}: no silent rebuild");
        for (t1, t2, want) in &want {
            let got = recovered.query(ServeQuery::exact(*t1, *t2, 8)).unwrap();
            assert_bit_identical(want, &got, &format!("W={w} old-format image [{t1},{t2}]"));
        }
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (c) No ε-invalidated cache entry ever serves a stale result: run a
    /// cached engine and a cache-disabled twin through the same
    /// append/query interleaving and bound how far a (possibly cached,
    /// possibly stale-but-within-budget) answer may drift from the freshly
    /// computed one — plus an absolute guardrail against live truth.
    #[test]
    fn stale_cache_never_violates_the_eps_budget(
        seed_sel in 0u64..1000,
        eps in 0.05f64..0.45,
        batch in 4usize..24,
        k in 1usize..6,
        aggressive_sel in 0u32..2,
    ) {
        let generator = StockGenerator::new(StockConfig {
            objects: 12,
            days: 6,
            readings_per_day: 5,
            seed: seed_sel,
        });
        let stream = AppendStream::from_generator(
            &generator,
            AppendStreamConfig { base_fraction: 0.5, batch, ..Default::default() },
        );
        let seed = stream.base_set();
        let rebuild = if aggressive_sel == 1 {
            RebuildPolicy { mass_factor: 1.1, max_tail_segments: 16 }
        } else {
            // Never rebuild: the generation goes maximally stale, the
            // cache's staleness account does all the work.
            RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX }
        };
        let config = LiveConfig { workers: 2, rebuild, ..Default::default() };
        let uncached_config = LiveConfig { cache_capacity: 0, ..config.clone() };
        let mut cached = IngestEngine::new(&seed, config).unwrap();
        let mut uncached = IngestEngine::new(&seed, uncached_config).unwrap();
        let mut oracle = seed.clone();
        // Two fixed hot intervals, re-asked after every batch (maximal
        // cache reuse while appends keep landing).
        let full = stream.full_set();
        let hot = [
            (full.t_min() + 0.1 * full.span(), full.t_min() + 0.6 * full.span()),
            (full.t_min() + 0.4 * full.span(), full.t_min() + 0.9 * full.span()),
        ];
        for batch in stream.batches() {
            cached.append_batch(batch).unwrap();
            uncached.append_batch(batch).unwrap();
            // Both twins then serve the same generation, built over the
            // same prefix.
            cached.finish_rebuilds();
            uncached.finish_rebuilds();
            for &rec in batch {
                oracle.apply(rec).unwrap();
            }
            for &(t1, t2) in &hot {
                let q = ServeQuery::approx(t1, t2, k, eps);
                // The mass-growth headroom of the generation that answers.
                let report = cached.report();
                let delta_m = (report.live_mass - report.built_mass).max(0.0);
                let a = cached.query(q).unwrap();
                let b = uncached.query(q).unwrap();
                let m_live = oracle.total_mass();
                prop_assert_eq!(a.len(), b.len());
                // The cache may serve an entry computed before some of the
                // appends, but the staleness audit caps its drift from the
                // snapped truth at eps·M_live − ε_abs; both engines' fresh
                // candidate sets are ε_abs-grade, so rank-wise scores may
                // differ by at most 2·ε_abs + staleness ≤ 2·eps·M_live.
                let slack = 2.0 * eps * m_live + 1e-9 * (1.0 + m_live);
                for j in 0..a.len() {
                    let (sa, sb) = (a.rank(j).1, b.rank(j).1);
                    prop_assert!(
                        (sa - sb).abs() <= slack,
                        "rank {}: cached {} vs uncached {} drifts past {} \
                         (seed={} eps={} batch={} k={} agg={})",
                        j, sa, sb, slack, seed_sel, eps, batch.len(), k, aggressive_sel
                    );
                }
                // Absolute guardrail against live truth: the snapped
                // endpoints can each miss the built per-gap mass (≤
                // eps·M_live after planner re-validation) *plus* whatever
                // mass appends parked inside a gap since the generation
                // was built (ΔM = M_live − M_built — this is exactly the
                // degradation §4's mass-doubling rebuild bounds).
                let guard = 3.0 * eps * m_live + 2.0 * delta_m + 1e-9 * (1.0 + m_live);
                for &(id, s) in a.entries() {
                    let truth = oracle.score(id, t1, t2).unwrap();
                    prop_assert!(
                        (s - truth).abs() <= guard,
                        "object {} score {} vs truth {} exceeds guardrail {}",
                        id, s, truth, guard
                    );
                }
            }
        }
        // The hot stream must actually have exercised the cache whenever
        // an approximate route was taken, and the twin never caches.
        let report = cached.report();
        if report.cache_lookups > 0 {
            prop_assert!(report.cache_hits + report.cache_invalidations > 0);
        }
        prop_assert_eq!(uncached.report().cache_lookups, 0);
    }
}
