//! End-to-end distributed tracing + SLO burn-rate acceptance (ISSUE 8).
//!
//! One wire query must produce ONE joined span tree: the client's root
//! span (`client.topk`) parents the server's `server.request` span via
//! the 16-byte trace-context tail, which parents `engine.query`, which
//! parents every `shard.probe`. The tree is retrieved over the TRACE
//! wire op as structured JSON and parsed here with the bench crate's
//! JSON parser — ids cross as 16-hex-digit strings precisely so this
//! round-trip is lossless. A live backend yields the same tree: its
//! windows run through the same scatter–gather on the same worker pool.
//!
//! The same file exercises the SLO burn-rate engine end to end: a
//! healthy loopback server reports compliant windows in METRICS; a
//! server whose p99 objective no real query meets (0 µs) flips the
//! burn-rate gauges past budget.
//!
//! Everything lives in ONE test fn: the span sink and the metric
//! registry the server publishes into are process-global, and parallel
//! test threads would otherwise race on drains and gauge overwrites.

use chronorank::core::TemporalSet;
use chronorank::curve::PiecewiseLinear;
use chronorank::live::LiveConfig;
use chronorank::net::{NetClient, NetConfig, NetServer};
use chronorank::obs::{SloObjective, SpanSink};
use chronorank::serve::{ServeConfig, ServeQuery};
use chronorank_bench::json::{self, Json};

fn tiny_set(objects: usize) -> TemporalSet {
    let curves: Vec<_> = (0..objects)
        .map(|i| {
            PiecewiseLinear::from_points(&[
                (0.0, i as f64),
                (50.0, (objects - i) as f64),
                (100.0, i as f64 / 2.0),
            ])
            .unwrap()
        })
        .collect();
    TemporalSet::from_curves(curves).unwrap()
}

fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}")),
        other => panic!("expected object with {key:?}, got {other:?}"),
    }
}

fn as_str(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_arr(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        other => panic!("expected array, got {other:?}"),
    }
}

/// One traced TOPK over `client`, and its tree as TRACE dumps it:
/// `client.topk → server.request → engine.query → probes × shard.probe`,
/// every probe reporting its reads, and nothing else in the trace.
fn assert_one_joined_tree(client: &mut NetClient, probes: usize) {
    client.set_span_sink(SpanSink::new(64));
    let (answer, trace) = client.topk_traced(ServeQuery::exact(10.0, 90.0, 4)).unwrap();
    assert_eq!(answer.topk.len(), 4);

    // The client kept exactly one root span for the call.
    let client_spans = client.span_sink().drain();
    assert_eq!(client_spans.len(), 1, "one client span per traced call");
    let root = &client_spans[0];
    assert_eq!(root.name, "client.topk");
    assert_eq!(root.trace, trace);
    assert_eq!(root.parent, None);

    // The server's side of the tree comes back over the TRACE wire op.
    let dump = client.trace_dump().unwrap();
    let doc = json::parse(&dump).unwrap_or_else(|e| panic!("TRACE is not valid JSON: {e}\n{dump}"));
    assert!(matches!(get(&doc, "spans_dropped"), Json::Num(_)));
    assert!(matches!(get(get(&doc, "slo"), "healthy"), Json::Bool(_)));

    let ours: Vec<&Json> = as_arr(get(&doc, "spans"))
        .iter()
        .filter(|s| as_str(get(s, "trace")) == trace.hex())
        .collect();
    let by_name = |name: &str| -> Vec<&&Json> {
        ours.iter().filter(|s| as_str(get(s, "name")) == name).collect()
    };

    let server_spans = by_name("server.request");
    assert_eq!(server_spans.len(), 1, "one server span per request:\n{dump}");
    let server_span = server_spans[0];
    assert_eq!(
        as_str(get(server_span, "parent")),
        root.id.hex(),
        "server span must hang off the client's wire-propagated span id"
    );

    let engine_spans = by_name("engine.query");
    assert_eq!(engine_spans.len(), 1, "one engine span per request:\n{dump}");
    let engine_span = engine_spans[0];
    assert_eq!(as_str(get(engine_span, "parent")), as_str(get(server_span, "span")));

    let probe_spans = by_name("shard.probe");
    assert_eq!(probe_spans.len(), probes, "one probe per shard:\n{dump}");
    for probe in &probe_spans {
        assert_eq!(as_str(get(probe, "parent")), as_str(get(engine_span, "span")));
        assert!(matches!(get(get(probe, "attrs"), "reads"), Json::Num(_)), "reads:\n{dump}");
    }
    // Nothing else claims membership in this trace: the tree is closed.
    assert_eq!(ours.len(), 2 + probes, "unexpected extra spans:\n{dump}");
}

#[test]
fn wire_query_yields_one_joined_tree_and_slo_gauges_flip() {
    // ----- Phase 1: one traced query, one joined tree over TRACE. -----
    let server = NetServer::start_serve(
        tiny_set(24),
        ServeConfig { workers: 3, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    assert_one_joined_tree(&mut client, 3);

    // A healthy loopback server is within its (generous default) SLO.
    let text = client.metrics().unwrap();
    chronorank::obs::validate_exposition(&text).unwrap();
    assert!(
        text.contains("chronorank_slo_compliant{window=\"1s\"} 1"),
        "healthy server must report compliance:\n{text}"
    );
    server.shutdown();

    // A live backend yields the same tree: its windows run through the
    // same scatter–gather.
    let server = NetServer::start_live(
        tiny_set(24),
        LiveConfig { workers: 2, ..Default::default() },
        NetConfig::default(),
    )
    .unwrap();
    assert_one_joined_tree(&mut NetClient::connect(server.local_addr()).unwrap(), 2);
    server.shutdown();

    // ----- Phase 2: every query violates an unmeetable objective. -----
    let server = NetServer::start_serve(
        tiny_set(24),
        ServeConfig { workers: 2, ..Default::default() },
        NetConfig {
            // A TOPK is timed from admission to its encoded reply, across
            // a pool hand-off, so it never reads 0 µs: all 10 burn budget.
            slo: SloObjective { p99_target_us: 0, error_budget: 0.01 },
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for _ in 0..10 {
        client.topk(ServeQuery::exact(10.0, 90.0, 4)).unwrap();
    }
    let text = client.metrics().unwrap();
    chronorank::obs::validate_exposition(&text).unwrap();
    assert!(
        text.contains("chronorank_slo_compliant{window=\"1s\"} 0"),
        "violated objective must flip the compliance gauge:\n{text}"
    );
    // 100% bad over a 1% budget is a burn rate of 100 (milli: 100000).
    assert!(
        text.contains("chronorank_slo_burn_rate_milli{window=\"1s\"} 100000"),
        "burn rate must report the full budget overrun:\n{text}"
    );
    // The TRACE op reports the same verdict in its structured dump.
    let doc = json::parse(&client.trace_dump().unwrap()).unwrap();
    assert_eq!(get(get(&doc, "slo"), "healthy"), &Json::Bool(false));
    server.shutdown();
}
