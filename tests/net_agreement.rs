//! Network-layer agreement (ISSUE 4 acceptance): putting a TCP socket and
//! the frame protocol between client and engine must not change a single
//! bit of any answer.
//!
//! * TOPK answers fetched over a real socket are **bit-identical** to
//!   in-process [`ServeEngine`] answers on the same workload, for
//!   W ∈ {1, 4}, across exact and approximate routes — pipelined too.
//! * Over the live path, a wire trace of interleaved APPEND_BATCH / TOPK
//!   ops agrees bit-for-bit with the same trace driven in process.
//! * Under genuinely **concurrent** append traffic from a second
//!   connection, every answer is bit-identical to a fresh bulk build
//!   over exactly the append prefix the response reports
//!   (`appends_applied`) — the wire tier inherits the live engine's
//!   prefix-consistency guarantee.

use chronorank::core::{AppendRecord, TemporalSet, TopK};
use chronorank::live::{IngestEngine, LiveConfig, RebuildPolicy};
use chronorank::net::{NetClient, NetConfig, NetServer};
use chronorank::serve::{ServeConfig, ServeEngine, ServeQuery};
use chronorank::workloads::{
    AppendStream, AppendStreamConfig, ClosedLoopTraffic, DatasetGenerator, IntervalPattern,
    QueryWorkloadConfig, TempConfig, TempGenerator, TrafficConfig,
};

fn temp_set(objects: usize) -> TemporalSet {
    TempGenerator::new(TempConfig { objects, avg_segments: 40, seed: 33, dropout: 0.02 })
        .generate_set()
}

/// Bit-identical: same ids, same score bits.
fn assert_bit_identical(want: &TopK, got: &TopK, ctx: &str) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    assert_eq!(want.ids(), got.ids(), "{ctx}: ids");
    for (j, (ws, gs)) in want.scores().iter().zip(got.scores()).enumerate() {
        assert_eq!(ws.to_bits(), gs.to_bits(), "{ctx} rank {j}: {ws} vs {gs}");
    }
}

/// A mixed-route query stream: exact, loose-ε, and tight-ranks queries.
fn mixed_queries(set: &TemporalSet, count: usize) -> Vec<ServeQuery> {
    let plan = ClosedLoopTraffic::new(
        TrafficConfig {
            clients: 1,
            queries_per_client: count,
            workload: QueryWorkloadConfig {
                span_fraction: 0.25,
                k: 7,
                seed: 17,
                pattern: IntervalPattern::Zipf { hotspots: 5, exponent: 1.0, background: 0.2 },
                ..Default::default()
            },
        },
        set.t_min(),
        set.t_max(),
    );
    plan.streams()[0]
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 3 {
            0 => ServeQuery::exact(q.t1, q.t2, q.k),
            1 => ServeQuery::approx(q.t1, q.t2, q.k, 0.3),
            _ => ServeQuery::approx_tight(q.t1, q.t2, q.k, 0.3),
        })
        .collect()
}

#[test]
fn wire_topk_is_bit_identical_to_in_process_serve() {
    let set = temp_set(80);
    let queries = mixed_queries(&set, 24);
    for w in [1usize, 4] {
        let cfg = ServeConfig { workers: w, ..Default::default() };
        let oracle = ServeEngine::new(&set, cfg).unwrap();
        let server = NetServer::start_serve(set.clone(), cfg, NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let want_route = oracle.route_for(q);
            let want = oracle.query(*q).unwrap();
            let got = client.topk(*q).unwrap();
            assert_eq!(got.route, want_route, "W={w} q{i}: route");
            assert_eq!(got.route.is_exact(), got.eps_used.is_none(), "W={w} q{i}: eps class");
            assert_bit_identical(&want, &got.topk, &format!("W={w} q{i}"));
        }
        server.shutdown();
    }
}

#[test]
fn pipelined_wire_answers_match_in_process_in_order() {
    let set = temp_set(60);
    let queries = mixed_queries(&set, 40);
    for w in [1usize, 4] {
        let cfg = ServeConfig { workers: w, ..Default::default() };
        let oracle = ServeEngine::new(&set, cfg).unwrap();
        let server = NetServer::start_serve(set.clone(), cfg, NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let outcome = client.pipeline_topk(&queries, 8).unwrap();
        assert_eq!(outcome.answers.len(), queries.len());
        assert_eq!(outcome.busy_retries, 0, "default limits must not push back here");
        for (i, (q, got)) in queries.iter().zip(&outcome.answers).enumerate() {
            let want = oracle.query(*q).unwrap();
            assert_bit_identical(&want, &got.topk, &format!("W={w} pipelined q{i}"));
        }
        server.shutdown();
    }
}

fn temp_stream(objects: usize) -> AppendStream {
    let generator =
        TempGenerator::new(TempConfig { objects, avg_segments: 24, seed: 29, dropout: 0.0 });
    AppendStream::from_generator(
        &generator,
        AppendStreamConfig { base_fraction: 0.5, batch: 24, skew: 0.0, seed: 31 },
    )
}

/// The probe windows live_agreement uses: old, fresh edge, full span.
fn probe_windows(set: &TemporalSet) -> [(f64, f64); 3] {
    [
        (set.t_min(), set.t_min() + 0.2 * set.span()),
        (set.t_max() - 0.15 * set.span(), set.t_max()),
        (set.t_min(), set.t_max()),
    ]
}

#[test]
fn wire_live_trace_agrees_with_in_process_engine() {
    let stream = temp_stream(36);
    let seed = stream.base_set();
    let full = stream.full_set();
    for w in [1usize, 4] {
        let cfg = LiveConfig { workers: w, ..Default::default() };
        let mut oracle = IngestEngine::new(&seed, cfg.clone()).unwrap();
        let server = NetServer::start_live(seed.clone(), cfg, NetConfig::default()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        for (i, batch) in stream.batches().enumerate() {
            let ok = client.append_batch(batch).unwrap();
            assert_eq!(ok.accepted as usize, batch.len(), "W={w} batch {i}");
            oracle.append_batch(batch).unwrap();
            if i % 3 != 0 {
                continue;
            }
            for (t1, t2) in probe_windows(&full) {
                let q = ServeQuery::exact(t1, t2, 6);
                let want = oracle.query(q).unwrap();
                let got = client.topk(q).unwrap();
                assert_eq!(got.appends_applied, oracle.appends(), "W={w} batch {i}");
                assert_bit_identical(&want, &got.topk, &format!("W={w} batch {i} [{t1},{t2}]"));
            }
        }
        server.shutdown();
    }
}

#[test]
fn wire_eps_used_is_restated_from_the_snapshot_that_routed_the_query() {
    // Quiescent: rebuilds off, so the generation (and its built mass) that
    // routes a wire query is the one the oracle's planner reports.
    let stream = temp_stream(36);
    let seed = stream.base_set();
    let cfg = LiveConfig {
        workers: 2,
        rebuild: RebuildPolicy { mass_factor: f64::INFINITY, max_tail_segments: usize::MAX },
        ..Default::default()
    };
    let mut oracle = IngestEngine::new(&seed, cfg.clone()).unwrap();
    let server = NetServer::start_live(seed.clone(), cfg, NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for batch in stream.batches().take(4) {
        client.append_batch(batch).unwrap();
        oracle.append_batch(batch).unwrap();
    }
    let (planner, fresh) = oracle.routing_snapshot();
    assert!(fresh.live_mass > fresh.built_mass, "appends must have outgrown the built mass");
    let (t1, t2) = probe_windows(&stream.full_set())[2];
    let mut approximate = 0;
    for q in [
        ServeQuery::exact(t1, t2, 6),
        ServeQuery::approx(t1, t2, 6, 0.3),
        ServeQuery::approx_tight(t1, t2, 6, 0.3),
        ServeQuery::approx(t1, t2, 6, 1e-12),
    ] {
        let got = client.topk(q).unwrap();
        assert_eq!(got.route, oracle.route_for(&q), "{q:?}: route");
        let want = planner
            .profile(got.route)
            .and_then(|p| p.revalidate(fresh.built_mass, fresh.live_mass).eps);
        assert_eq!(got.eps_used.map(f64::to_bits), want.map(f64::to_bits), "{q:?}: eps_used");
        assert_eq!(got.eps_used.is_none(), got.route.is_exact(), "{q:?}: eps class");
        approximate += usize::from(!got.route.is_exact());
    }
    assert!(approximate >= 2, "the ε-tolerant queries must take approximate routes");
    server.shutdown();
}

#[test]
fn wire_topk_agrees_under_concurrent_append_traffic() {
    let stream = temp_stream(32);
    let seed = stream.base_set();
    let full = stream.full_set();
    let records = stream.records().to_vec();
    for w in [1usize, 4] {
        let cfg = LiveConfig { workers: w, ..Default::default() };
        let server = NetServer::start_live(seed.clone(), cfg, NetConfig::default()).unwrap();
        let addr = server.local_addr();

        // A second connection floods appends while the main connection
        // queries. The server applies batches in the appender's send
        // order, so `appends_applied = P` in a response pins the exact
        // live state that answered it: base + records[..P].
        let appender_records = records.clone();
        let appender = std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("appender connects");
            for batch in appender_records.chunks(16) {
                client.append_batch(batch).expect("append over the wire");
            }
        });

        let mut client = NetClient::connect(addr).unwrap();
        let mut prefixes_seen = Vec::new();
        for round in 0..30 {
            let (t1, t2) = probe_windows(&full)[round % 3];
            let got = client.topk(ServeQuery::exact(t1, t2, 5)).unwrap();
            let p = got.appends_applied as usize;
            assert!(p <= records.len(), "prefix within the trace");
            assert!(p.is_multiple_of(16) || p == records.len(), "whole batches only (got {p})");
            // Oracle: a fresh bulk build over exactly that prefix.
            let mut objects = seed.objects().to_vec();
            for rec in &records[..p] {
                objects[rec.object as usize].curve.append(rec.t, rec.v).unwrap();
            }
            let bulk = TemporalSet::from_objects(objects).unwrap();
            let want = bulk.top_k_bruteforce(t1, t2, 5);
            assert_bit_identical(&want, &got.topk, &format!("W={w} round {round} at prefix {p}"));
            prefixes_seen.push(p);
        }
        appender.join().unwrap();
        // The run must actually have raced: some queries answered before
        // all appends landed, and the prefix only ever grows.
        assert!(prefixes_seen.windows(2).all(|ab| ab[0] <= ab[1]), "monotone prefixes");
        let final_ok = client.topk(ServeQuery::exact(full.t_min(), full.t_max(), 5)).unwrap();
        assert_eq!(final_ok.appends_applied as usize, records.len(), "W={w}: all appends applied");
        server.shutdown();
    }
}

#[test]
fn wire_append_records_survive_the_codec_bit_for_bit() {
    // Appends carry f64 time/value bits; a lossy codec would silently
    // desynchronize wire state from in-process state. Spot-check with
    // adversarial bit patterns (negative zero, ulp-separated times,
    // full-mantissa values). Magnitudes stay moderate: the §4 rebuild
    // arithmetic is not built for ±1e300 masses, and that is an engine
    // property, not a codec one.
    let set = temp_set(8);
    let cfg = LiveConfig { workers: 2, ..Default::default() };
    let mut oracle = IngestEngine::new(&set, cfg.clone()).unwrap();
    let server = NetServer::start_live(set.clone(), cfg, NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let t0 = set.t_max();
    let recs: Vec<AppendRecord> = (0..8)
        .map(|i| AppendRecord {
            object: i,
            t: t0 + 1.0 + (i as f64) * f64::EPSILON * 4.0,
            v: match i % 4 {
                0 => -0.0,
                1 => 1.0e-12,
                2 => -1.5e3 - 1.0 / 3.0,
                _ => 1.0 + f64::EPSILON,
            },
        })
        .collect();
    client.append_batch(&recs).unwrap();
    oracle.append_batch(&recs).unwrap();
    let q = ServeQuery::exact(t0, t0 + 1.0 + 64.0 * f64::EPSILON, 8);
    let want = oracle.query(q).unwrap();
    let got = client.topk(q).unwrap();
    assert_bit_identical(&want, &got.topk, "adversarial f64 appends");
    server.shutdown();
}
