//! Explicit span trees for end-to-end distributed tracing.
//!
//! A [`Span`] is one timed operation: a [`TraceId`] naming the query it
//! belongs to, its own [`SpanId`], an optional parent link, a static
//! name, typed attributes, and a monotonic start offset + duration. The
//! ids are process-seeded (time ⊕ pid, mixed), so spans minted on a
//! client and on a server join into **one** tree when the trace id
//! crosses the wire — which is exactly what the net tier's trace-context
//! extension does.
//!
//! Finished spans land in a [`SpanSink`]: a *bounded* ring of inline
//! `Option<Span>` slots behind one `Mutex`, allocated once when the sink
//! is made. Emitting is lock, stamp the sequence number, replace the slot
//! — no allocation per span; an overwritten span is dropped and counted,
//! never waited for. [`SpanSink::drain`] takes every slot under the same
//! lock, so scrapers never re-report a span. A lock is enough because of
//! who emits: the caller gathering a query's shard replies (its
//! `engine.query` span and the W `shard.probe` children it back-dates
//! from the workers' reported durations — the workers themselves never
//! touch the sink) and the connection thread closing `server.request`,
//! so 2–4 threads per process, each holding the lock for one slot write;
//! `tests/obs_counts.rs` pins the resulting cost at W + 1 spans and zero
//! heap allocations per traced query. The noop variant follows the same
//! cost discipline as [`crate::Registry::noop`]: every operation on a
//! noop sink is a branch on `None`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Identifies one end-to-end query across processes. `0` is reserved for
/// "absent" (a wire frame without trace context).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. `0` is reserved for "no parent".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Mint a fresh, process-seeded trace id (never 0).
    pub fn next() -> Self {
        TraceId(next_id())
    }

    /// Render as the fixed-width hex string the trace JSON uses.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl SpanId {
    /// Mint a fresh, process-seeded span id (never 0).
    pub fn next() -> Self {
        SpanId(next_id())
    }

    /// Render as the fixed-width hex string the trace JSON uses.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Process-unique id stream: a shared counter seeded from wall time ⊕
/// pid, passed through a 64-bit finalizer so two processes started in
/// the same instant still diverge after one step. Never yields 0.
fn next_id() -> u64 {
    static STATE: OnceLock<AtomicU64> = OnceLock::new();
    let state = STATE.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        AtomicU64::new(t ^ (u64::from(std::process::id()) << 32))
    });
    loop {
        let id = mix64(state.fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

/// SplitMix64 finalizer — full-avalanche, so sequential counter values
/// become well-spread ids.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned count (reads, k, queue depth, …).
    U64(u64),
    /// A float (ε budgets, rates).
    F64(f64),
    /// A flag (cache_hit, …).
    Bool(bool),
    /// Free text (error messages and other dynamic strings). Boxed so
    /// the variant does not widen every inline attribute slot.
    Str(Box<str>),
    /// Static text (route names, op names) — no allocation on the hot
    /// path; tracing must stay nearly free when the sink is live.
    Sym(&'static str),
}

/// The most attributes one span can carry. Everything past the cap is
/// silently dropped — spans are diagnostics, and a fixed inline array
/// keeps attribute attachment allocation-free on the serving hot path
/// (a heap `Vec` here is one allocation per span; `tests/obs_counts.rs`
/// pins a traced query at none).
/// Kept tight: every slot widens every `Span`, and emission cost at
/// serving scale is dominated by the cache lines a span touches.
pub const MAX_ATTRS: usize = 4;

/// Inline, fixed-capacity attribute list — see [`MAX_ATTRS`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttrList {
    len: u8,
    slots: [Option<(&'static str, AttrValue)>; MAX_ATTRS],
}

impl AttrList {
    /// Attach one attribute; silently dropped past [`MAX_ATTRS`].
    pub fn push(&mut self, key: &'static str, value: AttrValue) {
        if let Some(slot) = self.slots.get_mut(self.len as usize) {
            *slot = Some((key, value));
            self.len += 1;
        }
    }

    /// Attributes in attachment order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, AttrValue)> {
        self.slots[..self.len as usize].iter().filter_map(Option::as_ref)
    }

    /// Number of attached attributes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no attribute is attached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<const K: usize> From<[(&'static str, AttrValue); K]> for AttrList {
    fn from(items: [(&'static str, AttrValue); K]) -> Self {
        let mut out = Self::default();
        for (key, value) in items {
            out.push(key, value);
        }
        out
    }
}

/// One finished, timed operation in a trace tree.
#[derive(Clone, Debug)]
pub struct Span {
    /// The end-to-end query this span belongs to.
    pub trace: TraceId,
    /// This span's own id.
    pub id: SpanId,
    /// Parent span, `None` for a root.
    pub parent: Option<SpanId>,
    /// What the span measures (`"client.topk"`, `"server.request"`, …).
    pub name: &'static str,
    /// Admission order within the sink (drain sort key).
    pub seq: u64,
    /// Monotonic start offset from the sink's epoch, µs.
    pub start_us: u64,
    /// Wall duration, µs.
    pub duration_us: u64,
    /// Typed attributes, emission order.
    pub attrs: AttrList,
}

struct SinkInner {
    epoch: Instant,
    ring: Mutex<Ring>,
}

/// The bounded ring and its two counters, all under the sink's one lock.
struct Ring {
    /// Spans ever admitted (also the sequence source).
    emitted: u64,
    /// Spans overwritten before any drain saw them.
    dropped: u64,
    /// Span `seq` lives in slot `seq % len` until overwritten or drained.
    slots: Box<[Option<Span>]>,
}

impl SinkInner {
    /// Nothing done under the lock can leave the ring half-written, so a
    /// poisoned lock is entered, not propagated.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded ring of finished [`Span`]s behind one lock (see module docs).
#[derive(Clone, Default)]
pub struct SpanSink(Option<Arc<SinkInner>>);

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("noop", &self.0.is_none())
            .field("emitted", &self.emitted())
            .finish()
    }
}

impl SpanSink {
    /// A sink holding at most `capacity` spans (oldest overwritten).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanSink(Some(Arc::new(SinkInner {
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                emitted: 0,
                dropped: 0,
                slots: std::iter::repeat_with(|| None).take(capacity).collect(),
            }),
        })))
    }

    /// A sink that drops everything; every operation is a branch on `None`.
    pub fn noop() -> Self {
        SpanSink(None)
    }

    /// The process-wide sink the net tier emits into by default (the one
    /// the `TRACE` wire op drains).
    pub fn global() -> &'static SpanSink {
        static GLOBAL: OnceLock<SpanSink> = OnceLock::new();
        GLOBAL.get_or_init(|| SpanSink::new(512))
    }

    /// Whether this is a [`SpanSink::noop`] handle.
    pub fn is_noop(&self) -> bool {
        self.0.is_none()
    }

    /// Spans ever admitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.ring().emitted)
    }

    /// Spans overwritten before a drain collected them.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.ring().dropped)
    }

    /// Open a root span (no parent) on `trace`.
    pub fn root(&self, trace: TraceId, name: &'static str) -> ActiveSpan {
        self.start_span(trace, None, name)
    }

    /// Open a child span under `parent`. A `parent` of `SpanId(0)` (a
    /// peer that traced nothing locally) degrades to a root.
    pub fn child(&self, trace: TraceId, parent: SpanId, name: &'static str) -> ActiveSpan {
        self.start_span(trace, (parent.0 != 0).then_some(parent), name)
    }

    fn start_span(&self, trace: TraceId, parent: Option<SpanId>, name: &'static str) -> ActiveSpan {
        let timing = self.0.as_ref().map(|inner| {
            let t0 = Instant::now();
            (t0, us_since(inner.epoch, t0))
        });
        let attrs = AttrList::default();
        ActiveSpan { sink: self.clone(), trace, id: SpanId::next(), parent, name, timing, attrs }
    }

    /// Microseconds since this sink's epoch. Pair with
    /// [`SpanSink::emit_at`] so a caller emitting several spans measured
    /// against the same instant (the serve engine's probes plus its own
    /// span) pays one clock read, not one per span. `0` on a noop sink.
    pub fn now_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| us_since(inner.epoch, Instant::now()))
    }

    /// Emit a span whose duration was measured elsewhere (per-shard probe
    /// timings arrive as µs from the worker threads): it ends at `end_us`
    /// (a [`SpanSink::now_us`] reading) and is back-dated by `duration_us`.
    /// The id is the caller's, so it can be handed to children *before*
    /// the span itself is emitted (the serve engine parents its shard
    /// probes on the `engine.query` span it emits last).
    #[allow(clippy::too_many_arguments)]
    pub fn emit_at(
        &self,
        id: SpanId,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        end_us: u64,
        duration_us: u64,
        attrs: impl Into<AttrList>,
    ) {
        if self.0.is_none() {
            return;
        }
        self.push(Span {
            trace,
            id,
            parent,
            name,
            seq: 0,
            start_us: end_us.saturating_sub(duration_us),
            duration_us,
            attrs: attrs.into(),
        });
    }

    fn push(&self, mut span: Span) {
        let Some(inner) = &self.0 else { return };
        let mut ring = inner.ring();
        span.seq = ring.emitted;
        ring.emitted += 1;
        let slot = (span.seq % ring.slots.len() as u64) as usize;
        if ring.slots[slot].replace(span).is_some() {
            ring.dropped += 1;
        }
    }

    /// Take-and-clear: every held span, admission order, and the ring is
    /// left empty. Emitters wait for the one pass over the slots; nothing
    /// is reported twice.
    pub fn drain(&self) -> Vec<Span> {
        let Some(inner) = &self.0 else { return Vec::new() };
        let mut out: Vec<Span> = inner.ring().slots.iter_mut().filter_map(Option::take).collect();
        out.sort_by_key(|s| s.seq);
        out
    }
}

fn us_since(epoch: Instant, now: Instant) -> u64 {
    u64::try_from(now.duration_since(epoch).as_micros()).unwrap_or(u64::MAX)
}

/// A span being timed. Finish it with [`ActiveSpan::finish`] to compute
/// the duration and hand it to the sink; dropping it unfinished discards
/// it (deliberate: an errored path that forgets to finish must not emit a
/// half-timed span).
#[derive(Debug)]
pub struct ActiveSpan {
    sink: SpanSink,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    /// `(start instant, start offset µs)`; `None` on a noop sink.
    timing: Option<(Instant, u64)>,
    attrs: AttrList,
}

impl ActiveSpan {
    /// This span's id — what children (local or across the wire) link to.
    /// Real even on a noop sink, so trace context can still propagate.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Attach one typed attribute (dropped on a noop sink).
    pub fn attr(&mut self, key: &'static str, value: AttrValue) {
        if self.timing.is_some() {
            self.attrs.push(key, value);
        }
    }

    /// Close the span: duration = now − start, then emit into the sink.
    pub fn finish(self) {
        let ActiveSpan { sink, trace, id, parent, name, timing, attrs } = self;
        let Some((t0, start_us)) = timing else { return };
        let duration_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        sink.push(Span { trace, id, parent, name, seq: 0, start_us, duration_us, attrs });
    }
}

/// Render spans as one structured JSON array (the payload of the net
/// tier's `TRACE` wire op, parseable by the bench harness's JSON reader).
/// Ids are fixed-width hex **strings** — a u64 does not survive an `f64`
/// JSON number — and every attribute keeps its type.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":{},\"name\":",
            s.trace.hex(),
            s.id.hex(),
            match s.parent {
                Some(p) => format!("\"{}\"", p.hex()),
                None => "null".to_string(),
            },
        ));
        write_json_str(s.name, &mut out);
        out.push_str(&format!(
            ",\"seq\":{},\"start_us\":{},\"duration_us\":{},\"attrs\":{{",
            s.seq, s.start_us, s.duration_us
        ));
        for (j, (k, v)) in s.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_str(k, &mut out);
            out.push(':');
            match v {
                AttrValue::U64(n) => out.push_str(&n.to_string()),
                AttrValue::F64(f) if f.is_finite() => out.push_str(&format!("{f}")),
                AttrValue::F64(_) => out.push_str("null"),
                AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                AttrValue::Str(s) => write_json_str(s, &mut out),
                AttrValue::Sym(s) => write_json_str(s, &mut out),
            }
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

pub(crate) fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn spans_link_into_a_tree_and_drain_in_order() {
        let sink = SpanSink::new(16);
        let trace = TraceId::next();
        let mut root = sink.root(trace, "server.request");
        root.attr("op", AttrValue::Str("topk".into()));
        let mut child = sink.child(trace, root.id(), "engine.query");
        child.attr("k", AttrValue::U64(8));
        sink.emit_at(
            SpanId::next(),
            trace,
            Some(child.id()),
            "shard.probe",
            sink.now_us(),
            250,
            [("shard", AttrValue::U64(0)), ("cache_hit", AttrValue::Bool(false))],
        );
        let (root_id, child_id) = (root.id(), child.id());
        child.finish();
        root.finish();

        let spans = sink.drain();
        assert_eq!(spans.len(), 3);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq), "drain is seq-ordered");
        let shard = spans.iter().find(|s| s.name == "shard.probe").unwrap();
        assert_eq!(shard.parent, Some(child_id));
        assert_eq!(shard.duration_us, 250);
        let engine = spans.iter().find(|s| s.name == "engine.query").unwrap();
        assert_eq!(engine.parent, Some(root_id));
        let server = spans.iter().find(|s| s.name == "server.request").unwrap();
        assert_eq!(server.parent, None);
        assert!(spans.iter().all(|s| s.trace == trace));
        // Take-and-clear: a second drain is empty.
        assert!(sink.drain().is_empty());
        assert_eq!(sink.emitted(), 3);
    }

    #[test]
    fn ring_is_bounded_and_counts_overwrites() {
        let sink = SpanSink::new(4);
        let trace = TraceId::next();
        for _ in 0..10 {
            sink.root(trace, "s").finish();
        }
        assert_eq!(sink.emitted(), 10);
        assert_eq!(sink.dropped(), 6);
        let spans = sink.drain();
        assert_eq!(spans.len(), 4, "only the newest capacity spans remain");
        assert_eq!(spans.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn noop_sink_costs_a_branch_and_keeps_real_ids() {
        let sink = SpanSink::noop();
        let trace = TraceId::next();
        let mut span = sink.root(trace, "s");
        span.attr("k", AttrValue::U64(1));
        assert_ne!(span.id().0, 0, "ids stay real so trace context can still propagate");
        span.finish();
        assert!(sink.drain().is_empty());
        assert_eq!(sink.emitted(), 0);
        assert!(sink.is_noop());
    }

    #[test]
    fn zero_parent_degrades_to_root() {
        let sink = SpanSink::new(4);
        sink.child(TraceId::next(), SpanId(0), "s").finish();
        assert_eq!(sink.drain()[0].parent, None);
    }

    #[test]
    fn unfinished_spans_are_discarded() {
        let sink = SpanSink::new(4);
        let span = sink.root(TraceId::next(), "s");
        drop(span);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn json_escapes_and_types_attributes() {
        let sink = SpanSink::new(4);
        let trace = TraceId::next();
        let mut span = sink.root(trace, "server.request");
        span.attr("route", AttrValue::Str("EXACT\"1\"".into()));
        span.attr("reads", AttrValue::U64(7));
        span.attr("eps", AttrValue::F64(0.25));
        span.attr("hit", AttrValue::Bool(true));
        let mut child = sink.child(trace, span.id(), "probe");
        child.attr("nan", AttrValue::F64(f64::NAN));
        child.finish();
        span.finish();
        let json = spans_json(&sink.drain());
        assert!(json.contains(&format!("\"trace\":\"{}\"", trace.hex())));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"route\":\"EXACT\\\"1\\\"\""));
        assert!(json.contains("\"reads\":7"));
        assert!(json.contains("\"eps\":0.25"));
        assert!(json.contains("\"hit\":true"));
        assert!(json.contains("\"nan\":null"));
        assert_eq!(spans_json(&[]), "[]");
    }
}
