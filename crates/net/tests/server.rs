//! What only a real socket shows: the connection cap's typed refusal and
//! its bounded drain of a refused client, BUSY against refusal in the
//! client's pipeline, concurrent connections on one backend, and clean
//! shutdown. The protocol itself — replies,
//! refusals, admission, scrapes, malformed frames, a peer that stops
//! reading — is tested on scripted byte streams in `src/server.rs`, and
//! answer-level agreement with the in-process engines in the
//! workspace-level `tests/net_agreement.rs`.

use chronorank_core::{AppendRecord, TemporalSet};
use chronorank_curve::PiecewiseLinear;
use chronorank_live::LiveConfig;
use chronorank_net::{NetClient, NetConfig, NetServer, Response};
use chronorank_serve::{ServeConfig, ServeQuery};
use std::io::Write;
use std::net::TcpStream;

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
    // The acceptor counts the connection it admitted and the one it refused.
    let stats = first.stats().unwrap();
    assert_eq!((stats.connections, stats.busy_rejections), (1, 1));
    server.shutdown();
}

#[test]
fn a_refused_client_that_keeps_sending_is_cut_off() {
    // Far above what the kernel buffers on both ends of a loopback socket:
    // a client that gets this much through was read by the acceptor.
    const CAP: usize = 64 << 20;
    let server = NetServer::start_serve(
        tiny_set(8),
        ServeConfig::default(),
        NetConfig { max_connections: 1, ..Default::default() },
    )
    .unwrap();
    let mut first = NetClient::connect(server.local_addr()).unwrap();
    assert_eq!(first.ping(b"a").unwrap(), b"a");
    // Refused, and never stops sending: the acceptor must stop draining
    // it and close, so the write fails well before the cap.
    let mut flood = TcpStream::connect(server.local_addr()).unwrap();
    let chunk = vec![0x5A; 64 << 10];
    let mut sent = 0;
    while sent < CAP {
        match flood.write(&chunk) {
            Ok(n) => sent += n,
            Err(_) => break,
        }
    }
    assert!(sent < CAP, "the acceptor read all {sent} bytes a refused client sent");
    // The acceptor is free again: the refused count moved, and shutdown
    // can join it.
    assert_eq!(first.stats().unwrap().busy_rejections, 1);
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
fn concurrent_pipelines_are_each_answered_in_request_order() {
    // Three connections pipeline at depth 8 into ONE shared ServeEngine,
    // each running its requests on its own reader thread: every answer
    // matches a single-connection oracle, and each connection receives
    // its response ids in the order it sent them.
    let server = NetServer::start_serve(
        tiny_set(16),
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
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
                let mut sent = Vec::with_capacity(queries.len());
                for (i, want) in want.iter().enumerate() {
                    while sent.len() < queries.len() && sent.len() < i + 8 {
                        sent.push(client.send_topk(queries[sent.len()]).unwrap());
                    }
                    let (id, resp) = client.recv().unwrap();
                    assert_eq!(id, sent[i], "reply {i} must answer this connection's request {i}");
                    match resp {
                        Response::TopK(got) => {
                            assert_eq!(got.topk.entries(), &want[..], "query {i}")
                        }
                        other => panic!("query {i}: expected TOPK_OK, got {other:?}"),
                    }
                }
            });
        }
    });
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
        NetConfig::default(),
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
fn shutdown_is_clean_and_observable_from_the_client() {
    let server =
        NetServer::start_serve(tiny_set(8), ServeConfig::default(), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    assert_eq!(client.ping(b"x").unwrap(), b"x");
    server.shutdown(); // joins the acceptor and every connection's threads

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
