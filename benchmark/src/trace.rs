//! Span bookkeeping for the `--trace 1` run: spans are recorded around
//! each adapter call (and, below it, by the engines and the wire tier
//! into the same sink), kept in memory, and written out when the run
//! ends. A span's self time is its duration minus the part of its
//! interval that its children cover.

use crate::adapter::Json;
use crate::{obj, stats};
use std::collections::{BTreeMap, HashMap};

/// One finished span, in the sink's microsecond clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

impl SpanRec {
    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// Self and blocking time of one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    /// Duration minus the union of the children's intervals (clipped to
    /// the span's own). Overlapping children are subtracted once.
    pub own_us: u64,
    /// `own_us` minus the part of the span that ran in the shadow of an
    /// earlier-starting sibling (parallel shard probes). Blocking times
    /// of one tree sum to its root's duration, so they are what a
    /// latency decomposition adds up.
    pub blocking_us: u64,
}

/// [`SelfTime`] of every span, input order.
pub fn self_times(spans: &[SpanRec]) -> Vec<SelfTime> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Per parent: its children's clipped intervals, tagged with the child.
    let mut children: Vec<Vec<(u64, u64, usize)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us().min(spans[p].end_us());
            if hi > lo {
                children[p].push((lo, hi, i));
            }
        }
    }
    let mut covered = vec![0u64; spans.len()];
    let mut shadowed = vec![0u64; spans.len()];
    for (p, mut kids) in children.into_iter().enumerate() {
        kids.sort_unstable();
        let mut reach = spans[p].start_us;
        for (lo, hi, kid) in kids {
            let fresh = hi.saturating_sub(lo.max(reach));
            covered[p] += fresh;
            shadowed[kid] = (hi - lo) - fresh;
            reach = reach.max(hi);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let own_us = s.dur_us - covered[i];
            SelfTime { own_us, blocking_us: own_us.saturating_sub(shadowed[i]) }
        })
        .collect()
}

/// Per-name totals over a traced slice.
#[derive(Debug, Clone, PartialEq)]
pub struct NameStats {
    pub count: u64,
    /// Self time per root operation.
    pub mean_self_us: f64,
    /// Blocking time per root operation (see [`SelfTime::blocking_us`]).
    pub mean_blocking_us: f64,
    /// Blocking time this name took in a *typical* operation: the mean
    /// over the operations whose root duration lies between the 40th and
    /// the 60th percentile. These add up to the mean root duration of
    /// that band, which is the p50 give or take the band's width — so
    /// they decompose the median latency the way the means decompose the
    /// mean.
    pub typical_blocking_us: f64,
    /// Median duration of one span of this name.
    pub p50_us: f64,
}

/// What a traced slice decomposes into.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Root spans (one per traced operation).
    pub roots: u64,
    /// Median root duration — the traced end-to-end p50.
    pub root_p50_us: f64,
    /// Mean root duration.
    pub root_mean_us: f64,
    /// Per span name: count, self time per root operation, median duration.
    pub by_name: BTreeMap<String, NameStats>,
}

impl Breakdown {
    /// Sum over names of blocking time per root operation; equals
    /// `root_mean_us` when the trees account for all of the latency.
    pub fn blocking_sum_us(&self) -> f64 {
        self.by_name.values().map(|n| n.mean_blocking_us).sum()
    }

    /// Sum over names of the typical operation's blocking times, to be
    /// held against `root_p50_us`.
    pub fn typical_sum_us(&self) -> f64 {
        self.by_name.values().map(|n| n.typical_blocking_us).sum()
    }

    /// Blocking time of one span name in a typical operation (0 if never
    /// seen).
    pub fn typical_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |n| n.typical_blocking_us)
    }
}

/// Decompose a set of span trees. Spans whose parent was lost (ring
/// overwrite) count as roots of their own, so nothing is dropped silently.
pub fn breakdown(spans: &[SpanRec]) -> Breakdown {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let selfs = self_times(spans);
    let mut root_durs = Vec::new();
    // Per operation (= per trace id): its root duration and the blocking
    // time of each name within it.
    let mut per_op: BTreeMap<u64, (u64, BTreeMap<&str, u64>)> = BTreeMap::new();
    let mut per_name: BTreeMap<&str, (u64, u64, u64, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let op = per_op.entry(s.trace).or_default();
        if s.parent.is_none_or(|p| !ids.contains(&p)) {
            root_durs.push(s.dur_us as f64);
            op.0 = op.0.max(s.dur_us);
        }
        *op.1.entry(&s.name).or_default() += own.blocking_us;
        let e = per_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += own.own_us;
        e.2 += own.blocking_us;
        e.3.push(s.dur_us as f64);
    }
    // The typical operations: the middle fifth by root duration.
    let mut ops: Vec<&(u64, BTreeMap<&str, u64>)> = per_op.values().collect();
    ops.sort_by_key(|op| op.0);
    let band = &ops[ops.len() * 2 / 5..(ops.len() * 3).div_ceil(5).max(1).min(ops.len())];
    let typical = |name: &str| {
        let total: u64 = band.iter().map(|op| op.1.get(name).copied().unwrap_or(0)).sum();
        total as f64 / band.len().max(1) as f64
    };
    let roots = root_durs.len().max(1) as f64;
    Breakdown {
        roots: root_durs.len() as u64,
        root_p50_us: if root_durs.is_empty() { 0.0 } else { stats::median(&root_durs) },
        root_mean_us: root_durs.iter().sum::<f64>() / roots,
        by_name: per_name
            .iter()
            .map(|(name, (count, own, blocking, durs))| {
                let stats = NameStats {
                    count: *count,
                    mean_self_us: *own as f64 / roots,
                    mean_blocking_us: *blocking as f64 / roots,
                    typical_blocking_us: typical(name),
                    p50_us: stats::median(durs),
                };
                (name.to_string(), stats)
            })
            .collect(),
    }
}

/// Spans kept verbatim in the trace file; the aggregate covers all of them.
const MAX_SPANS_IN_FILE: usize = 20_000;

/// The `trace-<workload>.json` document: the aggregate table plus the
/// first spans verbatim (ids as hex strings — a u64 does not survive a
/// JSON number).
pub fn trace_json(workload: &str, spans: &[SpanRec]) -> Json {
    let b = breakdown(spans);
    let num = Json::Num;
    let by_name = b
        .by_name
        .iter()
        .map(|(name, s)| {
            let fields = obj([
                ("count", num(s.count as f64)),
                ("self_us_per_op", num(s.mean_self_us)),
                ("blocking_us_per_op", num(s.mean_blocking_us)),
                ("typical_blocking_us", num(s.typical_blocking_us)),
                ("p50_us", num(s.p50_us)),
            ]);
            (name.clone(), fields)
        })
        .collect();
    let hex = |id: u64| Json::Str(format!("{id:016x}"));
    let span_rows = spans
        .iter()
        .take(MAX_SPANS_IN_FILE)
        .map(|s| {
            obj([
                ("trace", hex(s.trace)),
                ("id", hex(s.id)),
                ("parent", s.parent.map_or(Json::Null, hex)),
                ("name", Json::Str(s.name.clone())),
                ("start_us", num(s.start_us as f64)),
                ("dur_us", num(s.dur_us as f64)),
            ])
        })
        .collect();
    obj([
        ("workload", Json::Str(workload.to_string())),
        ("operations", num(b.roots as f64)),
        ("root_p50_us", num(b.root_p50_us)),
        ("root_mean_us", num(b.root_mean_us)),
        ("blocking_sum_us_per_op", num(b.blocking_sum_us())),
        ("typical_sum_us", num(b.typical_sum_us())),
        ("self_time_by_name", Json::Obj(by_name)),
        ("spans_total", num(spans.len() as f64)),
        ("spans", Json::Arr(span_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_operation_decomposes_the_median_not_the_mean() {
        // Nine fast operations (10 us, all in `a`) and one slow one
        // (1000 us, mostly in its child `b`): the mean is skewed, the
        // typical operation is a fast one.
        let mut spans = Vec::new();
        for op in 0..10u64 {
            let slow = op == 9;
            let dur = if slow { 1000 } else { 10 };
            spans.push(SpanRec {
                id: 2 * op + 1,
                parent: None,
                trace: op + 1,
                name: "a".into(),
                start_us: 0,
                dur_us: dur,
            });
            if slow {
                spans.push(SpanRec {
                    id: 2 * op + 2,
                    parent: Some(2 * op + 1),
                    trace: op + 1,
                    name: "b".into(),
                    start_us: 5,
                    dur_us: 900,
                });
            }
        }
        let b = breakdown(&spans);
        assert_eq!(b.root_p50_us, 10.0);
        assert_eq!(b.blocking_sum_us(), b.root_mean_us);
        assert!(b.root_mean_us > 100.0);
        assert_eq!(b.typical_sum_us(), 10.0);
        assert_eq!((b.typical_us("a"), b.typical_us("b")), (10.0, 0.0));
    }

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRec {
        SpanRec { id, parent, trace: 1, name: name.into(), start_us, dur_us }
    }

    /// client 0..100 ▸ server 10..90 ▸ engine 20..80 ▸ two overlapping
    /// probes 30..60 and 40..75.
    fn tree() -> Vec<SpanRec> {
        vec![
            span(1, None, "client.topk", 0, 100),
            span(2, Some(1), "server.request", 10, 80),
            span(3, Some(2), "engine.query", 20, 60),
            span(4, Some(3), "shard.probe", 30, 30),
            span(5, Some(3), "shard.probe", 40, 35),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // engine: 60 − |[30,75)| = 15; probes are leaves, and the second
        // one ran 20 µs in the first one's shadow.
        let got: Vec<(u64, u64)> =
            self_times(&tree()).iter().map(|s| (s.own_us, s.blocking_us)).collect();
        assert_eq!(got, vec![(20, 20), (20, 20), (15, 15), (30, 30), (35, 15)]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A back-dated child starting before its parent and one ending
        // after it only count for the part inside.
        let spans = vec![
            span(1, None, "p", 100, 50),
            span(2, Some(1), "c", 90, 20),
            span(3, Some(1), "c", 140, 30),
            span(4, Some(9), "orphan", 0, 7),
        ];
        let own: Vec<u64> = self_times(&spans).iter().map(|s| s.own_us).collect();
        assert_eq!(own, vec![30, 20, 30, 7]);
    }

    #[test]
    fn breakdown_accounts_for_the_root_latency() {
        let b = breakdown(&tree());
        assert_eq!(b.roots, 1);
        assert_eq!(b.root_p50_us, 100.0);
        // Self times double-count the 20 µs the probes overlap; blocking
        // times add up to the root exactly.
        assert_eq!(b.blocking_sum_us(), 100.0);
        assert_eq!(b.by_name["client.topk"].mean_self_us, 20.0);
        assert_eq!(b.by_name["shard.probe"].mean_self_us, 65.0);
        assert_eq!(b.by_name["shard.probe"].mean_blocking_us, 45.0);
        assert_eq!(b.typical_sum_us(), 100.0);
        assert_eq!(b.by_name["shard.probe"].count, 2);
        assert_eq!(b.typical_us("nope"), 0.0);
    }
}
