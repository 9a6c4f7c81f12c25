//! Print a cross-process span tree for one wire query.
//!
//! Starts a serve-backend TCP server on loopback, sends a handful of
//! traced TOPK queries (each request carries the 16-byte trace-context
//! tail), then retrieves the server's spans over the `TRACE` wire op and
//! prints one query's joined tree:
//!
//! ```text
//! trace 7c31…  client.topk (412 µs)
//!   └─ server.request (389 µs)  op=topk
//!        └─ engine.query (351 µs)  route=exact3 cache=miss
//!             ├─ shard.probe (118 µs)  shard=0 reads=4
//!             └─ shard.probe (104 µs)  shard=1 reads=3
//! ```
//!
//! Exits nonzero if the dump is not valid JSON, the tree does not join
//! (the server span must parent to the client's span id), or the SLO
//! section is missing — so CI can run this binary as the trace smoke
//! gate.
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```

use chronorank::core::TemporalSet;
use chronorank::curve::PiecewiseLinear;
use chronorank::net::{NetClient, NetConfig, NetServer};
use chronorank::obs::{Span, SpanId, SpanSink, TraceId};
use chronorank::serve::{ServeConfig, ServeQuery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let curves: Vec<_> = (0..48)
        .map(|i| {
            PiecewiseLinear::from_points(&[
                (0.0, i as f64),
                (50.0, (48 - i) as f64),
                (100.0, i as f64 / 2.0),
            ])
            .expect("valid curve")
        })
        .collect();
    let set = TemporalSet::from_curves(curves)?;

    let server = NetServer::start_serve(
        set,
        ServeConfig { workers: 3, ..Default::default() },
        NetConfig::default(),
    )?;
    let mut client = NetClient::connect(server.local_addr())?;
    // A real (non-noop) sink turns every client call into a traced call.
    client.set_span_sink(SpanSink::new(64));

    let mut last_trace = TraceId(0);
    for i in 0..4 {
        let q = ServeQuery::exact(5.0 + i as f64 * 10.0, 95.0, 5);
        let (answer, trace) = client.topk_traced(q)?;
        println!(
            "query {i}: trace {} route {} top-1 object {:?}",
            trace.hex(),
            answer.route.name(),
            answer.topk.entries().first().map(|e| e.0),
        );
        last_trace = trace;
    }

    // The client half of each tree lives in the client's own sink…
    let client_spans = client.span_sink().drain();
    // …and the server half comes back over the TRACE wire op as JSON.
    let dump = client.trace_dump()?;
    let server_spans = parse_server_spans(&dump)?;
    if !dump.contains("\"slo\":") {
        return Err("TRACE dump is missing its SLO section".into());
    }

    let spans: Vec<PrintSpan> = client_spans
        .iter()
        .map(PrintSpan::from_span)
        .chain(server_spans.iter().cloned())
        .filter(|s| s.trace == last_trace.hex())
        .collect();
    let root = spans
        .iter()
        .find(|s| s.name == "client.topk")
        .ok_or("client root span missing from the tree")?;
    let joined = spans
        .iter()
        .any(|s| s.name == "server.request" && s.parent.as_deref() == Some(root.id.as_str()));
    if !joined {
        return Err("server span did not join the client's trace".into());
    }

    println!("\nspan tree for trace {}:", last_trace.hex());
    print_tree(&spans, None, 0);
    println!("\ntrace smoke OK: {} spans joined into one tree", spans.len());
    server.shutdown();
    Ok(())
}

/// The slice of a span this example prints (client- and server-side spans
/// arrive in different shapes: structs vs JSON).
#[derive(Clone)]
struct PrintSpan {
    trace: String,
    id: String,
    parent: Option<String>,
    name: String,
    duration_us: u64,
}

impl PrintSpan {
    fn from_span(s: &Span) -> Self {
        PrintSpan {
            trace: s.trace.hex(),
            id: s.id.hex(),
            parent: s.parent.map(SpanId::hex),
            name: s.name.to_string(),
            duration_us: s.duration_us,
        }
    }
}

fn print_tree(spans: &[PrintSpan], parent: Option<&str>, depth: usize) {
    for s in spans.iter().filter(|s| s.parent.as_deref() == parent) {
        println!("{:indent$}{} ({} µs)", "", s.name, s.duration_us, indent = depth * 4);
        print_tree(spans, Some(s.id.as_str()), depth + 1);
    }
}

/// Pull `trace`/`span`/`parent`/`name`/`duration_us` out of the TRACE
/// dump's `"spans"` array. A tiny field scanner, not a JSON parser — the
/// facade's integration tests parse the same dump with the bench
/// harness's full parser; an example stays dependency-light.
fn parse_server_spans(dump: &str) -> Result<Vec<PrintSpan>, Box<dyn std::error::Error>> {
    let spans_at = dump.find("\"spans\":[").ok_or("TRACE dump has no spans array")?;
    let mut out = Vec::new();
    for obj in dump[spans_at..].split("{\"trace\":\"").skip(1) {
        let field = |key: &str| -> Option<String> {
            let tagged = format!("\"{key}\":\"");
            let at = obj.find(&tagged)? + tagged.len();
            Some(obj[at..].split('"').next()?.to_string())
        };
        let num = |key: &str| -> Option<u64> {
            let tagged = format!("\"{key}\":");
            let at = obj.find(&tagged)? + tagged.len();
            obj[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
        };
        out.push(PrintSpan {
            trace: obj.split('"').next().unwrap_or_default().to_string(),
            id: field("span").ok_or("span id missing")?,
            parent: field("parent"),
            name: field("name").ok_or("span name missing")?,
            duration_us: num("duration_us").unwrap_or(0),
        });
    }
    Ok(out)
}
