//! Integration tests for the live ingest engine: freshness, epoch swaps,
//! durability, and the staleness-audited cache.

use chronorank_core::{AppendRecord, TemporalSet};
use chronorank_live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank_obs::SpanSink;
use chronorank_serve::{Route, ServeConfig, ServeEngine, ServeQuery};
use chronorank_storage::GenerationImage;
use chronorank_workloads::{AppendStream, AppendStreamConfig, StockConfig, StockGenerator};

fn stock_stream(objects: usize, batch: usize) -> AppendStream {
    let generator =
        StockGenerator::new(StockConfig { objects, days: 8, readings_per_day: 6, seed: 17 });
    AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.5, batch, ..Default::default() },
    )
}

fn assert_top_matches(want: &chronorank_core::TopK, got: &chronorank_core::TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    assert_eq!(want.ids(), got.ids(), "{ctx}: ids");
    for (j, (ws, gs)) in want.scores().iter().zip(got.scores()).enumerate() {
        assert_eq!(ws.to_bits(), gs.to_bits(), "{ctx} rank {j}: {ws} vs {gs}");
    }
}

#[test]
fn appends_are_visible_to_the_next_query() {
    let stream = stock_stream(10, 8);
    let seed = stream.base_set();
    let mut engine =
        IngestEngine::new(&seed, LiveConfig { workers: 2, ..Default::default() }).unwrap();
    let mut oracle = seed.clone();
    for (i, batch) in stream.batches().enumerate().take(6) {
        engine.append_batch(batch).unwrap();
        for &rec in batch {
            oracle.apply(rec).unwrap();
        }
        let (t1, t2) = (oracle.t_max() - 2.0, oracle.t_max());
        let got = engine.query(ServeQuery::exact(t1, t2, 5)).unwrap();
        let want = oracle.top_k_bruteforce(t1, t2, 5);
        assert_top_matches(&want, &got, &format!("batch {i}"));
    }
    let report = engine.report();
    assert_eq!(report.appends, engine.report().appends);
    assert!(report.appends > 0 && report.queries == 6);
    assert!(report.wal.wal_writes > 0, "appends must hit the WAL");
    assert!(report.tail_segments > 0 || report.rebuilds > 0);
}

/// A `k` past the object count is the whole set, on every route and
/// whether it comes alone or in a window with `k = 0`: the candidate
/// budget `k + |touched| + slack` must not wrap. ε = 0.2 at `k = m` is
/// APPX2's answer over the snapped interval; past `kmax` every ε query is
/// answered exactly.
#[test]
fn a_k_past_the_object_count_is_the_whole_set() {
    let m = 16;
    let stream = stock_stream(m, 8);
    let mut engine =
        IngestEngine::new(&stream.base_set(), LiveConfig { workers: 2, ..Default::default() })
            .unwrap();
    engine.append_batch(stream.batches().next().unwrap()).unwrap();
    let (t_min, t_max) = engine.domain();
    let (t1, t2) = (t_min + 0.1 * (t_max - t_min), t_max);
    let whole = engine.query(ServeQuery::exact(t1, t2, m)).unwrap();
    assert_eq!(whole.len(), m);
    assert_eq!(engine.route_for(&ServeQuery::approx(t1, t2, m, 0.2)), Route::Appx2);
    let appx = engine.query(ServeQuery::approx(t1, t2, m, 0.2)).unwrap();
    assert_eq!(appx.len(), m);
    let huge = [1 << 40, usize::MAX / 2, usize::MAX - 2];
    for eps in [None, Some(0.2)] {
        let at = |k| match eps {
            None => ServeQuery::exact(t1, t2, k),
            Some(eps) => ServeQuery::approx(t1, t2, k, eps),
        };
        for k in huge {
            assert!(engine.route_for(&at(k)).is_exact());
            assert_top_matches(&whole, &engine.query(at(k)).unwrap(), &format!("{:?}", at(k)));
        }
        let window: Vec<_> = [0, m].into_iter().chain(huge).map(at).collect();
        let answers = engine.execute(&window, None, &SpanSink::noop()).unwrap();
        assert!(answers[0].topk.is_empty(), "k = 0");
        assert_top_matches(if eps.is_some() { &appx } else { &whole }, &answers[1].topk, "k = m");
        for (q, a) in window.iter().zip(&answers).skip(2) {
            assert_top_matches(&whole, &a.topk, &format!("window {q:?}"));
        }
    }
}

#[test]
fn mass_doubling_triggers_an_epoch_swap_without_blocking_readers() {
    let stream = stock_stream(6, 4);
    let seed = stream.base_set();
    let config = LiveConfig {
        workers: 1,
        rebuild: RebuildPolicy { mass_factor: 1.05, max_tail_segments: 10_000 },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    let mut oracle = seed.clone();
    for batch in stream.batches() {
        engine.append_batch(batch).unwrap();
        for &rec in batch {
            oracle.apply(rec).unwrap();
        }
        // Queries keep being answered correctly whether or not a rebuild
        // is in flight at this moment.
        let (t1, t2) = (oracle.t_min(), oracle.t_max());
        let got = engine.query(ServeQuery::exact(t1, t2, 4)).unwrap();
        let want = oracle.top_k_bruteforce(t1, t2, 4);
        assert_top_matches(&want, &got, "during ingest");
    }
    // Install what is still building, then confirm swaps happened.
    engine.finish_rebuilds();
    let report = engine.report();
    assert!(report.rebuilds > 0 && report.rebuilds_in_flight == 0, "{report}");
    assert!(report.generations > 0);
    assert_eq!(report.swap_pause.count(), report.rebuilds);
    let got = engine.query(ServeQuery::exact(oracle.t_min(), oracle.t_max(), 4)).unwrap();
    assert_top_matches(&oracle.top_k_bruteforce(oracle.t_min(), oracle.t_max(), 4), &got, "after");
}

/// The paper's §4 trigger at its own factor: at W = 1 with no tail
/// bound, no build starts while a batch leaves the live mass below twice
/// the built mass, the first batch that reaches it starts exactly one, and
/// installing that build publishes generation 1.
#[test]
fn mass_doubling_starts_one_build_at_twice_the_built_mass_and_not_before() {
    let generator =
        StockGenerator::new(StockConfig { objects: 6, days: 12, readings_per_day: 6, seed: 17 });
    let stream = AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.25, batch: 4, ..Default::default() },
    );
    let config = LiveConfig {
        workers: 1,
        rebuild: RebuildPolicy { max_tail_segments: usize::MAX, ..Default::default() },
        ..Default::default()
    };
    assert_eq!(config.rebuild.mass_factor, 2.0, "the paper's doubling");
    let mut engine = IngestEngine::new(&stream.base_set(), config).unwrap();
    let mut below = 0;
    for batch in stream.batches() {
        engine.append_batch(batch).unwrap();
        let report = engine.report();
        if report.live_mass < 2.0 * report.built_mass {
            assert_eq!(report.rebuilds_in_flight, 0, "a build below doubling: {report}");
            below += 1;
            continue;
        }
        assert_eq!((report.rebuilds_in_flight, report.rebuilds), (1, 0), "{report}");
        engine.finish_rebuilds();
        let report = engine.report();
        assert_eq!((report.generations, report.rebuilds, report.rebuilds_in_flight), (1, 1, 0));
        assert!(below > 1, "the stream must cross 2× only after several batches ({below})");
        return;
    }
    panic!("the appended mass never doubled the built mass");
}

#[test]
fn tail_length_policy_also_triggers_rebuilds() {
    let stream = stock_stream(8, 16);
    let seed = stream.base_set();
    let config = LiveConfig {
        workers: 2,
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 8 },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    for batch in stream.batches() {
        engine.append_batch(batch).unwrap();
    }
    engine.finish_rebuilds();
    assert!(engine.report().rebuilds > 0, "tail policy never fired");
}

#[test]
fn checkpoint_then_recover_reproduces_answers() {
    let dir = std::env::temp_dir().join(format!("chronorank-live-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = stock_stream(9, 8);
    let seed = stream.base_set();
    let config = LiveConfig { workers: 2, wal_dir: Some(dir.clone()), ..Default::default() };
    let batches: Vec<_> = stream.batches().collect();
    let mid = batches.len() / 2;
    let q = |set: &TemporalSet| {
        let (t1, t2) = (set.t_min() + 0.25 * set.span(), set.t_max());
        ServeQuery::exact(t1, t2, 6)
    };
    let want;
    {
        let mut engine = IngestEngine::new(&seed, config.clone()).unwrap();
        for batch in &batches[..mid] {
            engine.append_batch(batch).unwrap();
        }
        engine.checkpoint().unwrap();
        assert_eq!(engine.report().checkpoints, 1);
        // The image's data section is gathered from the shards' columns:
        // byte for byte what a bulk set of the same append prefix writes.
        let mut oracle = seed.clone();
        batches[..mid].iter().flat_map(|b| b.iter()).for_each(|rec| oracle.apply(*rec).unwrap());
        let mut image = GenerationImage::open(dir.join("generation.img")).unwrap();
        assert!(image.blob("live_set").unwrap() == oracle.to_columnar().to_bytes());
        for batch in &batches[mid..] {
            engine.append_batch(batch).unwrap();
        }
        want = engine.query(q(&engine.live_set())).unwrap();
        // Simulated crash: engine dropped without another checkpoint.
    }
    {
        let recovered = IngestEngine::new(&seed, config.clone()).unwrap();
        let got = recovered.query(q(&recovered.live_set())).unwrap();
        assert_top_matches(&want, &got, "post-recovery");
        // The recovered set equals the fully applied stream.
        assert_eq!(recovered.live_set().num_segments(), stream.full_set().num_segments());
        // And the frozen generations came back page-for-page from the
        // checkpoint image rather than being rebuilt.
        assert_eq!(recovered.report().preloaded_shards, 2, "cold start must serve from the image");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_checkpoint_recovers_idempotently() {
    // The crash window the epoch stamp exists for: the image is published
    // (tmp+rename) but the process dies before the WAL truncation. The
    // log then still holds every record the image already absorbed; the
    // recovery gate must skip them all, and recovering twice must change
    // nothing (fault injection via the `checkpoint_without_truncate` hook).
    let dir = std::env::temp_dir().join(format!("chronorank-live-crashwin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = stock_stream(8, 8);
    let seed = stream.base_set();
    let config = LiveConfig { workers: 2, wal_dir: Some(dir.clone()), ..Default::default() };
    let q = |set: &TemporalSet| {
        let (t1, t2) = (set.t_min() + 0.25 * set.span(), set.t_max());
        ServeQuery::exact(t1, t2, 6)
    };
    let want;
    let want_segments;
    {
        let mut engine = IngestEngine::new(&seed, config.clone()).unwrap();
        for batch in stream.batches() {
            engine.append_batch(batch).unwrap();
        }
        engine.checkpoint_without_truncate().unwrap();
        assert_eq!(engine.report().checkpoints, 0, "an interrupted checkpoint must not count");
        want = engine.query(q(&engine.live_set())).unwrap();
        want_segments = engine.live_set().num_segments();
        // Simulated crash: dropped between image publish and truncation.
    }
    for attempt in 0..2 {
        // Recover twice over the same (image, un-truncated WAL) pair:
        // answers must be bit-identical both times — nothing is lost by
        // skipping the absorbed log, nothing is double-applied.
        let recovered = IngestEngine::new(&seed, config.clone()).unwrap();
        assert_eq!(
            recovered.live_set().num_segments(),
            want_segments,
            "recovery {attempt}: segment count"
        );
        let got = recovered.query(q(&recovered.live_set())).unwrap();
        assert_top_matches(&want, &got, &format!("recovery {attempt}"));
        assert_eq!(
            recovered.report().preloaded_shards,
            2,
            "recovery {attempt}: generations must reopen from the image"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn approximate_queries_respect_the_eps_budget_under_appends() {
    let stream = stock_stream(16, 8);
    let seed = stream.base_set();
    let mut engine =
        IngestEngine::new(&seed, LiveConfig { workers: 2, ..Default::default() }).unwrap();
    let mut oracle = seed.clone();
    let eps = 0.3;
    let mut cacheable_seen = false;
    for batch in stream.batches() {
        engine.append_batch(batch).unwrap();
        for &rec in batch {
            oracle.apply(rec).unwrap();
        }
        let (t1, t2) = (oracle.t_min() + 0.3 * oracle.span(), oracle.t_min() + 0.8 * oracle.span());
        let q = ServeQuery::approx(t1, t2, 4, eps);
        let route = engine.route_for(&q);
        cacheable_seen |= route.cacheable();
        let got = engine.query(q).unwrap();
        // Every returned score is within the ε·M budget of that object's
        // live truth (answers are exactly rescored, so this mostly guards
        // the cached/stale path).
        let budget = eps * oracle.total_mass() + 1e-9;
        for &(id, s) in got.entries() {
            let truth = oracle.score(id, t1, t2).unwrap();
            assert!((s - truth).abs() <= budget, "object {id}: {s} vs {truth}");
        }
    }
    assert!(cacheable_seen, "the tolerance stream must exercise a cacheable route");
    let report = engine.report();
    assert!(report.cache_lookups > 0, "cacheable routes must consult the cache");
}

#[test]
fn eps_invalidating_appends_evict_cached_answers() {
    use chronorank_curve::PiecewiseLinear;
    // One short object (room to append inside the query window) and one
    // long one (pins the domain so the snapped window covers the appends).
    let c0 = PiecewiseLinear::from_points(&[(0.0, 1.0), (10.0, 1.0)]).unwrap();
    let c1 = PiecewiseLinear::from_points(&[(0.0, 1.0), (100.0, 1.0)]).unwrap();
    let seed = TemporalSet::from_curves(vec![c0, c1]).unwrap();
    // Rebuilds disabled: only the staleness audit stands between a cached
    // entry and the appended mass.
    let config = LiveConfig {
        workers: 1,
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    let q = ServeQuery::approx(0.0, 100.0, 2, 0.3);
    assert!(engine.route_for(&q).cacheable(), "scenario must exercise a cacheable route");
    engine.query(q).unwrap(); // populate
    engine.query(q).unwrap(); // hit
    let before = engine.report();
    assert!(before.cache_hits >= 1, "second identical query must hit: {before}");
    assert_eq!(before.cache_invalidations, 0);
    // Massive appends to the short object, *inside* the snapped window:
    // mass far beyond the ε budget of any later lookup.
    for t in 11..=60 {
        engine.append(AppendRecord { object: 0, t: t as f64, v: 50.0 }).unwrap();
    }
    let top = engine.query(q).unwrap();
    let after = engine.report();
    assert!(
        after.cache_invalidations >= 1,
        "the ε-stale entry must be evicted, not served: {after}"
    );
    // And the recomputed answer sees the appended mass: object 0 now wins.
    assert_eq!(top.rank(0).0, 0, "fresh answer must include the appended mass: {top:?}");
}

#[test]
fn two_tolerances_on_one_probe_key_are_one_serve_lookup_and_two_live_ones() {
    // Serve and live shards run one window dedup; only its key differs. A
    // serve answer does not read the tolerance, so both queries share one
    // probe and one cache lookup per shard. A live shard's staleness audit
    // does, so its key keeps the tolerance: two lookups per shard.
    let seed = stock_stream(64, 8).base_set();
    let (t1, t2) = (seed.t_min() + 0.2 * seed.span(), seed.t_min() + 0.7 * seed.span());
    let window = [ServeQuery::approx(t1, t2, 5, 0.3), ServeQuery::approx(t1, t2, 5, 0.4)];
    let w = 2;
    let serve = ServeEngine::new(&seed, ServeConfig { workers: w, ..Default::default() }).unwrap();
    let live = IngestEngine::new(&seed, LiveConfig { workers: w, ..Default::default() }).unwrap();
    for q in &window {
        assert_eq!(serve.route_for(q), Route::Appx2, "{q:?}: one cacheable route, one key");
        assert_eq!(live.route_for(q), Route::Appx2, "{q:?}: one cacheable route, one key");
    }
    let served = serve.execute(&window, None, &SpanSink::noop()).unwrap();
    let (lookups, hits) = (serve.report().cache_lookups, serve.report().cache_hits);
    assert_eq!((lookups, hits), (w as u64, 0), "serve: one lookup per shard");
    assert_eq!(served[0].topk, served[1].topk, "serve: one probe answered both");
    let answered = live.execute(&window, None, &SpanSink::noop()).unwrap();
    let report = live.report();
    assert_eq!(report.cache_lookups, 2 * w as u64, "live: one lookup per tolerance per shard");
    // The second tolerance finds the entry the first one cached: nothing
    // was charged to it, so it hits.
    assert_eq!((report.cache_hits, report.cache_invalidations), (w as u64, 0));
    assert_eq!(answered[0].topk, answered[1].topk);
}

#[test]
fn rejected_appends_do_not_corrupt_state() {
    let dir = std::env::temp_dir().join(format!("chronorank-live-reject-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = stock_stream(5, 4);
    let seed = stream.base_set();
    let config = LiveConfig { workers: 1, wal_dir: Some(dir.clone()), ..Default::default() };
    let mut engine = IngestEngine::new(&seed, config.clone()).unwrap();
    // Appending into the past must fail…
    let bad = AppendRecord { object: 0, t: seed.t_min() - 5.0, v: 1.0 };
    assert!(engine.append(bad).is_err());
    // …and to an unknown object too.
    let unknown = AppendRecord { object: 10_000, t: seed.t_max() + 1.0, v: 1.0 };
    assert!(engine.append(unknown).is_err());
    // A batch is refused whole, before the first WAL byte: the records ahead
    // of the bad one are neither logged nor applied, wherever it sits — also
    // when it only collides with an edge the batch itself moved.
    let end = |object| seed.object(object).unwrap().curve.end();
    let good = AppendRecord { object: 0, t: end(0) + 1.0, v: 9.0 };
    let later = AppendRecord { object: 1, t: end(1) + 1.0, v: 9.0 };
    let wal_writes = engine.report().wal.wal_writes;
    for batch in [[good, bad, later], [good, later, good]] {
        assert!(engine.append_batch(&batch).is_err());
        assert_eq!(engine.appends(), 0);
        assert_eq!(engine.report().wal.wal_writes, wal_writes, "a refused batch reached the WAL");
    }
    drop(engine);
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    assert_eq!(engine.live_set().num_segments(), seed.num_segments(), "a refused record replayed");
    // The engine still ingests and serves: the retry of the good records lands.
    engine.append_batch(&[good, later]).unwrap();
    assert_eq!(engine.appends(), 2);
    let top = engine.query(ServeQuery::exact(seed.t_min(), seed.t_max() + 1.0, 2)).unwrap();
    assert_eq!(top.len(), 2);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_renders() {
    let stream = stock_stream(5, 4);
    let seed = stream.base_set();
    let mut engine =
        IngestEngine::new(&seed, LiveConfig { workers: 2, ..Default::default() }).unwrap();
    engine.append_batch(stream.batches().next().unwrap()).unwrap();
    engine.query(ServeQuery::exact(seed.t_min(), seed.t_max(), 2)).unwrap();
    let text = engine.report().to_string();
    assert!(text.contains("live report"), "{text}");
    assert!(text.contains("wal:"), "{text}");
}

#[test]
fn ingest_engine_is_send_and_sync() {
    // The network tier shares one engine behind an RwLock: queries (&self)
    // overlap as readers, appends (&mut self) serialize as writers.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IngestEngine>();
}

#[test]
fn concurrent_readers_query_one_live_engine() {
    let stream = stock_stream(400, 64);
    let seed = stream.base_set();
    // A one-segment tail limit: the append below leaves a generation build
    // pending on every shard, and nothing installs it before
    // `finish_rebuilds` — so the readers query first across the builds,
    // then on what they built.
    let config = LiveConfig {
        workers: 2,
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 1 },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    let records = stream.records();
    let prefix = &records[..records.len() / 2];
    engine.append_batch(prefix).unwrap();
    assert_eq!(engine.report().rebuilds_in_flight, 2, "both shards must be building");
    // The oracle: a bulk build of the same append prefix, never the engine.
    let mut objects = seed.objects().to_vec();
    for rec in prefix {
        objects[rec.object as usize].curve.append(rec.t, rec.v).unwrap();
    }
    let bulk = TemporalSet::from_objects(objects).unwrap();
    let windows = [
        (bulk.t_min() + 0.3 * bulk.span(), bulk.t_min() + 0.8 * bulk.span()),
        (bulk.t_max() - 0.1 * bulk.span(), bulk.t_max()),
        (bulk.t_min(), bulk.t_max()),
    ];
    let want = windows.map(|(t1, t2)| bulk.top_k_bruteforce(t1, t2, 5));
    const PER_READER: usize = 30;
    let asked = 4 * PER_READER as u64;
    let read = |engine: &IngestEngine, phase: &str| {
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (want, windows) = (&want, &windows);
                scope.spawn(move || {
                    for i in 0..PER_READER {
                        let (t1, t2) = windows[i % 3];
                        let got = engine.query(ServeQuery::exact(t1, t2, 5)).unwrap();
                        assert_top_matches(&want[i % 3], &got, &format!("{phase} {t}/{i}"));
                    }
                });
            }
        });
    };
    read(&engine, "building");
    let report = engine.report();
    assert_eq!((report.queries, report.queries_during_rebuild), (asked, asked), "{report}");
    assert_eq!((report.rebuilds, report.rebuilds_in_flight), (0, 2), "no query installs");
    engine.finish_rebuilds();
    let report = engine.report();
    assert_eq!((report.rebuilds, report.rebuilds_in_flight, report.generations), (2, 0, 1));
    read(&engine, "installed");
    let report = engine.report();
    assert_eq!((report.queries, report.queries_during_rebuild), (2 * asked, asked), "{report}");
}

#[test]
fn queries_during_rebuild_counts_each_query_once() {
    let stream = stock_stream(400, 64);
    let seed = stream.base_set();
    let config = LiveConfig {
        workers: 2,
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 1 },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    engine.append_batch(stream.batches().next().unwrap()).unwrap();
    assert_eq!(engine.report().rebuilds_in_flight, 2, "both shards must be building");
    // Three probe-identical queries (one probe group per shard) and two
    // distinct ones: five queries, whatever the shards and groups.
    let (t1, t2) = (seed.t_min(), seed.t_max());
    let q = ServeQuery::exact(t1, t2, 4);
    let window = [q, q, q, ServeQuery::exact(t1, t2, 2), ServeQuery::approx(t1, t2, 3, 0.3)];
    engine.execute(&window, None, &SpanSink::noop()).unwrap();
    assert_eq!(engine.report().queries_during_rebuild, 5);
}

#[test]
fn dropping_the_engine_mid_build_returns_once_the_build_lands() {
    let dir = std::env::temp_dir().join(format!("chronorank-live-drop-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let stream = stock_stream(400, 64);
    let seed = stream.base_set();
    let config = LiveConfig {
        workers: 2,
        wal_dir: Some(dir.clone()),
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: 1 },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config.clone()).unwrap();
    engine.append_batch(stream.batches().next().unwrap()).unwrap();
    assert!(engine.report().rebuilds_in_flight > 0, "the drop below must race a build");
    let live = engine.live_set();
    let q = ServeQuery::exact(live.t_min(), live.t_max(), 6);
    let want = engine.query(q).unwrap();
    // Dropped on a helper thread: a drop that waits on something the build
    // never delivers fails here instead of hanging.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(engine);
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("drop must return once the in-flight build has landed");
    // Nothing of the dropped engine is left running: its directory boots
    // again and answers as it did.
    let recovered = IngestEngine::new(&seed, config).unwrap();
    assert_top_matches(&want, &recovered.query(q).unwrap(), "after the drop");
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mixed_window_is_routed_query_by_query_from_one_snapshot() {
    let stream = stock_stream(16, 8);
    let seed = stream.base_set();
    // Rebuilds off: the snapshot that routes the window is the one
    // `route_for` and `routing_snapshot` read afterwards.
    let config = LiveConfig {
        workers: 2,
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX },
        ..Default::default()
    };
    let mut engine = IngestEngine::new(&seed, config).unwrap();
    engine.append_batch(stream.batches().next().unwrap()).unwrap();
    let live = engine.live_set();
    let (t1, t2) = (live.t_min() + 0.3 * live.span(), live.t_min() + 0.8 * live.span());
    let window = [
        ServeQuery::exact(t1, t2, 4),
        ServeQuery::approx(t1, t2, 4, 0.3),
        ServeQuery::approx_tight(t1, t2, 4, 0.3),
        ServeQuery::approx(t1, t2, 4, 1e-12), // unsatisfiable: exact fallback
        ServeQuery::approx(t1, t2, 4, 0.3),
    ];
    let answers = engine.execute(&window, None, &SpanSink::noop()).unwrap();
    let (planner, fresh) = engine.routing_snapshot();
    assert!(fresh.live_mass > fresh.built_mass, "the append must have grown the live mass");
    let mut approximate = 0;
    for (q, a) in window.iter().zip(&answers) {
        assert_eq!(a.route, engine.route_for(q), "{q:?}");
        let want = planner
            .profile(a.route)
            .and_then(|p| p.revalidate(fresh.built_mass, fresh.live_mass).eps);
        assert_eq!(a.eps_used.map(f64::to_bits), want.map(f64::to_bits), "{q:?}");
        assert_eq!(a.eps_used.is_none(), a.route.is_exact(), "{q:?}");
        approximate += usize::from(!a.route.is_exact());
    }
    assert!(approximate >= 2, "the window must exercise approximate routes: {answers:?}");
    assert_eq!(engine.report().queries, window.len() as u64);
}

#[test]
fn appx2_plus_rescores_the_whole_query2_pool_from_the_columns() {
    let stream = stock_stream(256, 8);
    let seed = stream.base_set();
    for kmax in [2, 3] {
        // Rebuilds off, so the appended tail stays beside the frozen
        // generation and its touched objects join QUERY2's pool. A `kmax`
        // of `k` caps the candidate budget at `k`: QUERY2's top `k` alone
        // misses an exact top-k object in some of these windows, its whole
        // pool in none.
        let mut config = LiveConfig {
            workers: 2,
            rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX },
            ..Default::default()
        };
        config.approx.kmax = kmax;
        let mut engine = IngestEngine::new(&seed, config).unwrap();
        for batch in stream.batches().take(3) {
            engine.append_batch(batch).unwrap();
        }
        assert!(engine.report().tail_segments > 0, "the tail must not be absorbed");
        let live = engine.live_set();
        let at = |i: usize| live.t_min() + live.span() * i as f64 / 20.0;
        for (a, b) in (0..20).flat_map(|a| (a + 1..20).map(move |b| (a, b))) {
            let (t1, t2) = (at(a), at(b));
            let q = ServeQuery::approx_tight(t1, t2, kmax, 0.3);
            let answer = engine.execute(&[q], None, &SpanSink::noop()).unwrap().remove(0);
            let ctx = format!("kmax {kmax} [{a}, {b}]/20");
            assert_eq!(answer.route, Route::Appx2Plus, "{ctx}: route");
            // Every score is the exact live score, to the bit.
            for &(id, s) in answer.topk.entries() {
                let truth = live.score(id, t1, t2).unwrap();
                assert_eq!(s.to_bits(), truth.to_bits(), "{ctx} object {id}: {s} vs {truth}");
            }
            // Pool ∪ touched, ranked exactly: on these seeds, the exact top-k.
            assert_top_matches(&live.top_k_bruteforce(t1, t2, kmax), &answer.topk, &ctx);
        }
    }
}
