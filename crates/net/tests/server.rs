//! Server-behaviour coverage: admission control, typed refusals, the
//! live write path over the wire, and clean shutdown. (Answer-level
//! agreement with the in-process engines lives in the workspace-level
//! `tests/net_agreement.rs`.)

use chronorank_core::{AppendRecord, TemporalSet};
use chronorank_curve::PiecewiseLinear;
use chronorank_live::LiveConfig;
use chronorank_net::{ErrCode, NetClient, NetConfig, NetError, NetServer};
use chronorank_serve::{ServeConfig, ServeQuery};

fn tiny_set(objects: usize) -> TemporalSet {
    let curves: Vec<_> = (0..objects)
        .map(|i| {
            PiecewiseLinear::from_points(&[
                (0.0, i as f64),
                (50.0, (objects - i) as f64),
                (100.0, i as f64 + 1.0),
            ])
            .unwrap()
        })
        .collect();
    TemporalSet::from_curves(curves).unwrap()
}

fn expect_remote(result: Result<impl std::fmt::Debug, NetError>, code: ErrCode) {
    match result {
        Err(NetError::Remote { code: got, .. }) => assert_eq!(got, code),
        other => panic!("expected typed {code:?} error, got {other:?}"),
    }
}

#[test]
fn ping_stats_and_query_roundtrip() {
    let server = NetServer::start_serve(
        tiny_set(12),
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.ping(b"echo me").unwrap(), b"echo me");
    let answer = client.topk(ServeQuery::exact(10.0, 90.0, 4)).unwrap();
    assert_eq!(answer.topk.len(), 4);
    assert_eq!(answer.appends_applied, 0, "read-only backend never applies appends");
    let stats = client.stats().unwrap();
    assert_eq!(stats.live_backend, 0);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queries, 1);
    assert!(stats.frames_in >= 3 && stats.connections == 1);
    server.shutdown();
}

#[test]
fn serve_backend_refuses_writes_with_typed_unsupported() {
    let server =
        NetServer::start_serve(tiny_set(8), ServeConfig::default(), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let rec = AppendRecord { object: 0, t: 200.0, v: 1.0 };
    expect_remote(client.append_batch(&[rec]), ErrCode::Unsupported);
    expect_remote(client.checkpoint(), ErrCode::Unsupported);
    // The connection survives a typed refusal.
    assert_eq!(client.ping(b"still here").unwrap(), b"still here");
    server.shutdown();
}

#[test]
fn live_backend_appends_and_checkpoints_over_the_wire() {
    let server = NetServer::start_live(
        tiny_set(8),
        LiveConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let batch: Vec<AppendRecord> =
        (0..8).map(|i| AppendRecord { object: i, t: 150.0, v: 100.0 + i as f64 }).collect();
    let ok = client.append_batch(&batch).unwrap();
    assert_eq!(ok.accepted, 8);
    assert_eq!(ok.total_appends, 8);
    let answer = client.topk(ServeQuery::exact(120.0, 150.0, 3)).unwrap();
    assert_eq!(answer.appends_applied, 8, "the answer must report the applied appends");
    client.checkpoint().unwrap();
    // A rejected append (non-monotone time) is a typed engine error, and it
    // refuses its whole batch: the reply carries no count, so none of the
    // records ahead of it may have landed, and a retry of those is accepted.
    let bad = AppendRecord { object: 0, t: 10.0, v: 1.0 };
    let good = [1, 2].map(|object| AppendRecord { object, t: 160.0, v: 1.0 });
    expect_remote(client.append_batch(&[good[0], bad, good[1]]), ErrCode::Engine);
    assert_eq!(client.stats().unwrap().appends, 8);
    assert_eq!(client.append_batch(&good).unwrap().total_appends, 10);
    server.shutdown();
}

#[test]
fn admission_control_answers_busy_instead_of_queueing() {
    // max_in_flight = 0: every engine frame must bounce with BUSY while
    // the engine-free PING path keeps working.
    let server = NetServer::start_serve(
        tiny_set(8),
        ServeConfig::default(),
        NetConfig { max_in_flight: 0, ..Default::default() },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let result = client.topk(ServeQuery::exact(10.0, 90.0, 2));
    assert!(matches!(&result, Err(e) if e.is_busy()), "got {result:?}");
    assert_eq!(client.ping(b"ok").unwrap(), b"ok");
    let stats = client.stats();
    // STATS is an engine op too — equally refused at this limit.
    assert!(matches!(&stats, Err(e) if e.is_busy()), "got {stats:?}");
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_typed_refusal_not_busy() {
    let server = NetServer::start_serve(
        tiny_set(8),
        ServeConfig::default(),
        NetConfig { max_connections: 1, ..Default::default() },
    )
    .unwrap();
    let mut first = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(first.ping(b"a").unwrap(), b"a");
    // The second connection is told why it is being turned away — and the
    // client types it as a REFUSAL (whole connection, do not re-send),
    // never as the retryable per-request admission BUSY.
    let mut second = NetClient::connect(server.local_addr()).unwrap();
    let result = second.ping(b"b");
    match &result {
        Err(e) => {
            assert!(e.is_refusal(), "got {result:?}");
            assert!(!e.is_busy(), "a connection-cap refusal must not look retryable");
            assert!(e.to_string().contains("connection limit"), "got {e}");
        }
        Ok(_) => panic!("over-cap connection must be refused"),
    }
    server.shutdown();
}

#[test]
fn pipeline_distinguishes_admission_busy_from_connection_refusal() {
    let set = tiny_set(8);
    // (a) Admission pushback: zero in-flight budget. The pipeline retries
    // up to its cap, then surfaces the admission BUSY (is_busy, not a
    // refusal) — the connection itself stays healthy throughout.
    let server = NetServer::start_serve(
        set.clone(),
        ServeConfig::default(),
        NetConfig { max_in_flight: 0, ..Default::default() },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let qs = [ServeQuery::exact(10.0, 90.0, 2)];
    let result = client.pipeline_topk(&qs, 1);
    match &result {
        Err(e) => {
            assert!(e.is_busy(), "got {result:?}");
            assert!(!e.is_refusal());
        }
        Ok(_) => panic!("a zero-admission server cannot answer"),
    }
    assert_eq!(client.ping(b"alive").unwrap(), b"alive");
    server.shutdown();
    // (b) Connection-cap refusal: the pipeline aborts with a typed
    // refusal immediately — no retry storm against a closed socket.
    let server = NetServer::start_serve(
        set,
        ServeConfig::default(),
        NetConfig { max_connections: 1, ..Default::default() },
    )
    .unwrap();
    let _first = NetClient::connect(server.local_addr()).unwrap();
    let mut hold = NetClient::connect(server.local_addr()).unwrap();
    // `_first` holds the only slot, so `hold` is over the cap.
    let result = hold.pipeline_topk(&[ServeQuery::exact(10.0, 90.0, 2)], 4);
    match &result {
        Err(e) => assert!(e.is_refusal(), "got {result:?}"),
        Ok(_) => panic!("over-cap pipeline must be refused"),
    }
    server.shutdown();
}

#[test]
fn engine_thread_pool_answers_concurrent_pipelines_correctly() {
    // N engine workers over ONE shared ServeEngine: concurrent pipelined
    // clients must each get answers identical to a single-threaded oracle,
    // even though responses may complete out of submission order.
    let set = tiny_set(16);
    let server = NetServer::start_serve(
        set.clone(),
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig { engine_threads: 4, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let queries: Vec<ServeQuery> =
        (0..24).map(|i| ServeQuery::exact(i as f64, 60.0 + i as f64, 3)).collect();
    let mut oracle = NetClient::connect(addr).unwrap();
    let want: Vec<_> =
        queries.iter().map(|q| oracle.topk(*q).unwrap().topk.entries().to_vec()).collect();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (queries, want) = (&queries, &want);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                let outcome = client.pipeline_topk(queries, 8).unwrap();
                for (i, (got, want)) in outcome.answers.iter().zip(want).enumerate() {
                    assert_eq!(got.topk.entries(), &want[..], "query {i}");
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn metrics_scrape_returns_valid_exposition_with_serve_families() {
    let server = NetServer::start_serve(
        tiny_set(12),
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.topk(ServeQuery::exact(10.0, 90.0, 4)).unwrap();
    client.topk(ServeQuery::approx(10.0, 90.0, 4, 0.05)).unwrap();
    let text = client.metrics().unwrap();
    let families = chronorank_obs::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    for family in [
        "chronorank_serve_route_latency_us",
        "chronorank_serve_route_total",
        "chronorank_serve_queries",
        "chronorank_serve_workers",
        "chronorank_net_frames_in",
        "chronorank_net_frame_decode_us",
        "chronorank_net_frame_encode_us",
    ] {
        assert!(families.contains(family), "missing family {family} in:\n{text}");
    }
    server.shutdown();
}

#[test]
fn metrics_scrape_covers_the_live_tier() {
    let server = NetServer::start_live(
        tiny_set(8),
        LiveConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let batch: Vec<AppendRecord> =
        (0..8).map(|i| AppendRecord { object: i, t: 150.0, v: 100.0 + i as f64 }).collect();
    client.append_batch(&batch).unwrap();
    client.checkpoint().unwrap();
    let text = client.metrics().unwrap();
    let families = chronorank_obs::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    for family in [
        "chronorank_live_appends",
        "chronorank_live_batch_size",
        "chronorank_live_wal_fsync_us",
        "chronorank_live_checkpoint_us",
        "chronorank_live_recovery_us",
    ] {
        assert!(families.contains(family), "missing family {family} in:\n{text}");
    }
    // The gauges mirror the engine's own counters.
    assert!(text.contains("chronorank_live_appends 8"), "got:\n{text}");
    assert!(text.contains("chronorank_live_checkpoints 1"), "got:\n{text}");
    server.shutdown();
}

/// ISSUE 8 satellite: METRICS is a read-mostly snapshot of live atomics,
/// so concurrent scrapes from several clients during TOPK/APPEND traffic
/// must each return a *complete, self-consistent* exposition — every
/// scrape passes `validate_exposition` (which now also rejects
/// conflicting HELP/TYPE re-declarations), no torn text, no panics.
#[test]
fn concurrent_metrics_scrapes_stay_valid_under_traffic() {
    let server = NetServer::start_live(
        tiny_set(16),
        LiveConfig { workers: 2, ..Default::default() },
        NetConfig { engine_threads: 4, max_in_flight: 256, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        // Query traffic.
        for _ in 0..2 {
            s.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                for i in 0..60 {
                    let k = 1 + i % 5;
                    client.topk(ServeQuery::exact(10.0, 90.0, k)).unwrap();
                }
            });
        }
        // Append traffic (live backend serializes writes internally).
        s.spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            for i in 0..30u32 {
                let batch: Vec<AppendRecord> = (0..4)
                    .map(|j| AppendRecord {
                        object: j,
                        t: 150.0 + i as f64,
                        v: 10.0 + (i + j) as f64,
                    })
                    .collect();
                client.append_batch(&batch).unwrap();
            }
        });
        // Concurrent scrapers: every scrape must be a valid exposition
        // containing both the net and live families.
        for _ in 0..3 {
            s.spawn(move || {
                let mut client = NetClient::connect(addr).unwrap();
                for _ in 0..20 {
                    let text = client.metrics().unwrap();
                    let families = chronorank_obs::validate_exposition(&text)
                        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
                    for family in ["chronorank_net_frames_in", "chronorank_live_appends"] {
                        assert!(families.contains(family), "missing {family} in:\n{text}");
                    }
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn malformed_bytes_get_a_typed_goodbye_then_close() {
    use std::io::{Read, Write};
    let server =
        NetServer::start_serve(tiny_set(8), ServeConfig::default(), NetConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // Longer than one frame header, so the decoder must judge it (a
    // shorter blob would legitimately be "waiting for the rest").
    raw.write_all(b"GET / HTTP/1.1\r\nHost: nonsense\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap(); // server closes after its goodbye
    let frames = chronorank_net::Frame::decode_all(&buf).unwrap();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].opcode, chronorank_net::OpCode::Error);
    let body = chronorank_net::ErrorBody::decode(&frames[0].payload).unwrap();
    assert_eq!(body.code, ErrCode::BadRequest);
    server.shutdown();
}

#[test]
fn shutdown_is_clean_and_observable_from_the_client() {
    let server =
        NetServer::start_serve(tiny_set(8), ServeConfig::default(), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.ping(b"x").unwrap(), b"x");
    server.shutdown(); // joins acceptor, connections, engine

    // The live connection was shut down; the next call must fail cleanly.
    let result = client.ping(b"y");
    assert!(result.is_err(), "got {result:?}");
    // And the port no longer accepts fresh protocol traffic (an outright
    // refused connect is equally clean).
    if let Ok(mut c) = NetClient::connect(addr) {
        assert!(c.ping(b"z").is_err());
    }
}

#[test]
fn backend_build_failure_surfaces_at_start() {
    let err = NetServer::start(NetConfig::default(), || Err("deliberate".to_string()))
        .err()
        .expect("start must fail");
    assert!(err.to_string().contains("deliberate"), "got {err}");
}
