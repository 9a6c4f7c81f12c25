//! The metric catalogue: every name the benchmark emits, with its unit,
//! its direction, its regression bound and — for a layer metric — the
//! end-to-end metric and workload it is predicted to move. `BENCHMARK.json`
//! must agree with this file; `tests::schema` holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "exact_cold",
        why: "uniform exact queries, pools 64 frames against 80 MB of index, 1 client: index descent and pool misses do the work; planner, cache and net do none",
    },
    Workload {
        name: "zipf_inproc",
        why: "8 Zipf hot spots, exact and eps=0.2 alternating, default pools and cache, 2 client threads: planner, result cache, scatter channels and merge are the cost",
    },
    Workload {
        name: "zipf_wire",
        why: "the zipf_inproc engine and stream behind NetServer defaults, 2 connections x depth 4: inproc / wire is the wire tax (codec, admission queue, engine hand-off, socket)",
    },
    Workload {
        name: "live_wire",
        why: "one connection appends 32-tick batches to a WAL-backed live server while another queries: writes beside reads, rebuild swaps, then checkpoint and image boot",
    },
    Workload {
        name: "paper_build",
        why: "the paper's experiment: Meme stream never materialised, EXACT1/EXACT3/B2/APPX built out of core under half the dataset's memory, then queried cold",
    },
];

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Workloads that report it; empty = all five.
    pub only: &'static [&'static str],
    /// Declared in `BENCHMARK.json` and gated by its driver. That
    /// contract wants every declared metric from every workload and never
    /// a 0, so the workload-scoped metrics and `failed_ops_share` are
    /// reported, and held to their bounds by `selfcheck.sh`, but not
    /// declared.
    pub declared: bool,
    /// Workloads on which the value is a count that must repeat exactly
    /// when the seed repeats (`selfcheck.sh` demands identity there).
    pub exact_on: &'static [&'static str],
    pub what: &'static str,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.only.is_empty() || self.only.contains(&workload)
    }
}

use Better::{Higher, Lower};

const LIVE: &[&str] = &["live_wire"];
const APPROX: &[&str] = &["zipf_inproc", "zipf_wire", "paper_build"];
const ALL: &[&str] = &[];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    only: &'static [&'static str],
    declared: bool,
    what: &'static str,
) -> EndToEnd {
    // A bound of 0 already demands identity wherever the metric exists.
    EndToEnd { name, unit, better, bound, only, declared, exact_on: &[], what }
}

pub const END_TO_END: [EndToEnd; 16] = [
    e2e("setup_s", "s", Lower, 0.25, ALL, true,
        "dataset generation + index build + server start, mean of the middle half of 5 set-ups (live_wire: 7; paper_build: generator + scan_stats only, 9 spread over the run)"),
    e2e("query_qps", "1/s", Higher, 0.25, ALL, false,
        "queries answered per second, median slice (live_wire: during ingest, pooled; paper_build: cold EXACT3); undeclared because the host's speed drifts (see UNSTEADY)"),
    e2e("query_p50_us", "us", Lower, 0.25, ALL, false,
        "median query latency seen by the caller, median of the slice medians; undeclared (see UNSTEADY)"),
    e2e("query_p95_us", "us", Lower, 0.25, ALL, false,
        "95th percentile query latency, median of the slice percentiles; undeclared (see UNSTEADY)"),
    EndToEnd {
        // One client and cold pools make the count a function of the seed.
        exact_on: &["exact_cold", "paper_build"],
        ..e2e("reads_per_query", "count", Lower, 0.15, ALL, true,
            "index block reads per query (pool misses; cold reads on paper_build)")
    },
    e2e("build_s", "s", Lower, 0.25, ALL, false,
        "seconds building indexes: the engine's bulk build (middle half of 5), live_wire's off-thread rebuilds, paper_build's streamed builds incl. B2 (median of 3 rounds); undeclared (see UNSTEADY)"),
    EndToEnd {
        exact_on: &["exact_cold", "zipf_inproc", "zipf_wire", "paper_build"],
        ..e2e("index_bytes_per_segment", "bytes", Lower, 0.10, ALL, true,
            "bytes of index per data segment (paper_build: EXACT3)")
    },
    e2e("peak_rss_mb", "MiB", Lower, 0.25, ALL, true,
        "VmHWM of the workload's process after one set-up and the measured phase"),
    e2e("query_p99_us", "us", Lower, 0.25, ALL, false,
        "99th percentile query latency; undeclared (see UNSTEADY; on live_wire 0.5-1.2 % of operations also stall ~4 ms behind a rebuild swap or WAL sync, so p99 lands on either side of that cliff)"),
    e2e("appx_precision", "ratio", Higher, 0.0, APPROX, false,
        "mean precision@k of eps-routed (zipf) or APPX2 (paper_build) answers against the exact answer; repeats exactly on one seed, varies 0.1-0.4 across Meme seeds"),
    e2e("ingest_ticks_per_s", "1/s", Higher, 0.25, LIVE, false,
        "acknowledged (durable) ticks per second over the measured ingest"),
    e2e("append_p50_us", "us", Lower, 0.25, LIVE, false,
        "median latency of one acknowledged 32-tick batch"),
    e2e("append_p99_us", "us", Lower, 0.25, LIVE, false,
        "99th percentile batch latency (rebuild swaps and WAL syncs live here; same cliff as query_p99_us)"),
    e2e("wal_bytes_per_tick", "bytes", Lower, 0.0, LIVE, false,
        "size of the WAL file before the checkpoint per acknowledged tick"),
    e2e("recover_s", "s", Lower, 0.25, LIVE, false,
        "image boot from the checkpointed directory to the first correct answer, median of 5"),
    e2e("failed_ops_share", "ratio", Lower, 0.0, ALL, false,
        "failed + refused + wrong answers over attempted (the result line carries it as failed / attempted: a declared metric may never be 0)"),
];

/// End-to-end timings every workload reports but `BENCHMARK.json` does not
/// declare: on the reference host (a small shared VM) the same code runs
/// 10-20 % faster or slower for minutes at a time, so ten runs of one commit
/// spread 15-30 % on them, past any bound the contract allows, and no
/// estimator inside a 25 s run repairs that (`CALIBRATION.md`, "The host
/// drifts"). Gating them would reject innocent changes. They stay in every
/// report, and the `--trace 1` run carries them as `diag.<name>`, measured
/// in an untraced pass of the workload, so that a change can still be held
/// against its parent in alternating pairs.
pub const UNSTEADY: [&str; 5] =
    ["query_qps", "query_p50_us", "query_p95_us", "query_p99_us", "build_s"];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric @ workload this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const MOVES_COLD: &str = "query_p50_us, reads_per_query @ exact_cold";
const MOVES_COLD_PAPER: &str = "reads_per_query, query_p50_us @ exact_cold, paper_build";
const MOVES_BUILD: &str = "build_s @ paper_build; setup_s @ all";
const MOVES_PAPER_READS: &str = "reads_per_query @ paper_build";
const MOVES_PAPER_P50: &str = "query_p50_us @ paper_build";
const MOVES_PAPER_BUILD: &str = "build_s @ paper_build";
const MOVES_PAPER_SIZE: &str = "index_bytes_per_segment @ paper_build";
const MOVES_WARM: &str = "query_p50_us @ zipf_inproc";
const MOVES_INPROC: &str = "query_qps, query_p50_us @ zipf_inproc (none @ exact_cold)";
const MOVES_WIRE: &str = "query_qps, query_p50_us, query_p99_us @ zipf_wire (none @ zipf_inproc)";
const MOVES_LIVE_W: &str = "ingest_ticks_per_s, append_p99_us @ live_wire";
const MOVES_LIVE_R: &str = "query_p99_us, query_qps @ live_wire";
const MOVES_RECOVER: &str = "recover_s @ live_wire";

pub const PER_LAYER: [PerLayer; 92] = [
    // curve
    layer("curve.integral_multi_ns_per_seg", "ns", Lower, "query_p50_us @ live_wire"),
    layer("curve.integral_scalar_ns_per_seg", "ns", Lower, "query_p50_us @ live_wire"),
    layer("curve.tail_append_ns", "ns", Lower, "ingest_ticks_per_s @ live_wire"),
    // storage
    layer("storage.page_read_miss_ns", "ns", Lower, MOVES_COLD),
    layer("storage.page_read_hit_ns", "ns", Lower, MOVES_COLD),
    layer("storage.pool_hit_rate", "ratio", Higher, MOVES_COLD),
    layer("storage.wal_append_sync_us", "us", Lower, "append_p50_us @ live_wire"),
    layer(
        "storage.wal_writes_per_batch",
        "count",
        Lower,
        "append_p50_us, wal_bytes_per_tick @ live_wire",
    ),
    layer("storage.image_write_ms", "ms", Lower, MOVES_RECOVER),
    // index
    layer("index.btree_seek_reads", "count", Lower, MOVES_COLD_PAPER),
    layer("index.btree_seek_ns", "ns", Lower, MOVES_COLD_PAPER),
    layer("index.interval_stab_reads", "count", Lower, MOVES_COLD_PAPER),
    layer("index.interval_stab_ns", "ns", Lower, MOVES_COLD_PAPER),
    layer("index.bulk_load_entries_per_s", "1/s", Higher, MOVES_BUILD),
    layer("index.extsort_records_per_s", "1/s", Higher, MOVES_BUILD),
    layer("index.fence_spilled_entries", "count", Lower, MOVES_BUILD),
    // core, per method
    layer("core.exact1.cold_reads_per_query", "count", Lower, MOVES_PAPER_READS),
    layer("core.exact1.cold_us_per_query", "us", Lower, MOVES_PAPER_P50),
    layer("core.exact1.warm_us_per_query", "us", Lower, MOVES_WARM),
    layer("core.exact1.build_s", "s", Lower, MOVES_PAPER_BUILD),
    layer("core.exact1.size_bytes", "bytes", Lower, MOVES_PAPER_SIZE),
    layer("core.exact3.cold_reads_per_query", "count", Lower, MOVES_PAPER_READS),
    layer("core.exact3.cold_us_per_query", "us", Lower, MOVES_PAPER_P50),
    layer("core.exact3.warm_us_per_query", "us", Lower, MOVES_WARM),
    layer("core.exact3.build_s", "s", Lower, MOVES_PAPER_BUILD),
    layer("core.exact3.size_bytes", "bytes", Lower, MOVES_PAPER_SIZE),
    layer("core.appx1.cold_reads_per_query", "count", Lower, MOVES_PAPER_READS),
    layer("core.appx1.cold_us_per_query", "us", Lower, MOVES_PAPER_P50),
    layer("core.appx1.warm_us_per_query", "us", Lower, MOVES_WARM),
    layer("core.appx1.build_s", "s", Lower, MOVES_PAPER_BUILD),
    layer("core.appx1.size_bytes", "bytes", Lower, MOVES_PAPER_SIZE),
    layer("core.appx2.cold_reads_per_query", "count", Lower, MOVES_PAPER_READS),
    layer("core.appx2.cold_us_per_query", "us", Lower, MOVES_PAPER_P50),
    layer("core.appx2.warm_us_per_query", "us", Lower, MOVES_WARM),
    layer("core.appx2.build_s", "s", Lower, MOVES_PAPER_BUILD),
    layer("core.appx2.size_bytes", "bytes", Lower, MOVES_PAPER_SIZE),
    // APPX2+ has no streaming build: these five come from the in-memory Temp build.
    layer(
        "core.appx2plus.cold_reads_per_query",
        "count",
        Lower,
        "none yet (in-memory build; ROADMAP 3c)",
    ),
    layer(
        "core.appx2plus.cold_us_per_query",
        "us",
        Lower,
        "none yet (in-memory build; ROADMAP 3c)",
    ),
    layer("core.appx2plus.warm_us_per_query", "us", Lower, MOVES_WARM),
    layer("core.appx2plus.build_s", "s", Lower, "setup_s @ exact_cold, zipf_inproc, zipf_wire"),
    layer("core.appx2plus.size_bytes", "bytes", Lower, "index_bytes_per_segment @ exact_cold"),
    layer("core.b2.build_s", "s", Lower, MOVES_PAPER_BUILD),
    layer("core.b2.peak_pending_segments", "count", Lower, "peak_rss_mb @ paper_build"),
    layer("core.b2.breakpoints", "count", Higher, "appx_precision @ paper_build"),
    // Snapping to breakpoints widens the interval, so APPX2 overestimates:
    // the ratio approaches 1 from above.
    layer("core.appx2.ratio", "ratio", Lower, "appx_precision @ paper_build"),
    layer("core.appx1.precision", "ratio", Higher, "appx_precision @ paper_build"),
    layer("core.appx2.precision", "ratio", Higher, "appx_precision @ paper_build"),
    layer("core.scan_stats_s", "s", Lower, "setup_s @ paper_build"),
    // serve
    layer("serve.planner_route_ns", "ns", Lower, MOVES_INPROC),
    layer("serve.merge_ranked_ns", "ns", Lower, MOVES_INPROC),
    layer("serve.cache_hit_rate", "ratio", Higher, MOVES_INPROC),
    layer("serve.route_share.exact1", "ratio", Higher, MOVES_INPROC),
    layer("serve.route_share.exact3", "ratio", Higher, MOVES_INPROC),
    layer("serve.route_share.appx1", "ratio", Higher, MOVES_INPROC),
    layer("serve.route_share.appx2", "ratio", Higher, MOVES_INPROC),
    layer("serve.route_share.appx2plus", "ratio", Higher, MOVES_INPROC),
    layer("ladder.method_us", "us", Lower, MOVES_INPROC),
    layer("ladder.engine_w1_us", "us", Lower, MOVES_INPROC),
    layer("ladder.engine_w2_us", "us", Lower, MOVES_INPROC),
    layer("serve.engine_tax_us", "us", Lower, MOVES_INPROC),
    layer("serve.scatter_tax_us", "us", Lower, MOVES_INPROC),
    // net
    layer("net.frame_encode_ns", "ns", Lower, MOVES_WIRE),
    layer("net.frame_decode_ns", "ns", Lower, MOVES_WIRE),
    layer("net.ping_rtt_us", "us", Lower, MOVES_WIRE),
    layer("ladder.wire_us", "us", Lower, MOVES_WIRE),
    layer("net.wire_tax_us", "us", Lower, MOVES_WIRE),
    layer("net.client_socket_us", "us", Lower, MOVES_WIRE),
    layer("net.server_queue_us", "us", Lower, MOVES_WIRE),
    layer("net.engine_us", "us", Lower, MOVES_WIRE),
    layer("net.shard_probe_us", "us", Lower, MOVES_WIRE),
    layer("net.busy_retries", "count", Lower, MOVES_WIRE),
    layer("net.inflight_p50_us_per_depth", "us", Lower, MOVES_WIRE),
    // live
    layer("live.append_batch_us", "us", Lower, MOVES_LIVE_W),
    layer("live.query_us", "us", Lower, MOVES_LIVE_R),
    layer("live.rebuilds", "count", Lower, MOVES_LIVE_W),
    layer("live.rebuild_build_s", "s", Lower, "build_s @ live_wire"),
    layer("live.swap_pause_max_us", "us", Lower, "append_p99_us, query_p99_us @ live_wire"),
    layer("live.queries_during_rebuild", "count", Higher, MOVES_LIVE_R),
    layer("live.tail_segments_final", "count", Lower, MOVES_LIVE_R),
    layer("live.cache_invalidations", "count", Lower, MOVES_LIVE_R),
    layer("live.checkpoint_ms", "ms", Lower, MOVES_RECOVER),
    layer("live.image_boot_ms", "ms", Lower, MOVES_RECOVER),
    layer("live.replay_boot_ms", "ms", Lower, MOVES_RECOVER),
    layer("live.wire_query_share", "ratio", Higher, "query_qps @ live_wire"),
    // The workload's own end-to-end timings, too unsteady to gate (see
    // `UNSTEADY`): measured in an untraced pass before the traced slice.
    layer("diag.query_qps", "1/s", Higher, "itself: query_qps of this workload, untraced"),
    layer("diag.query_p50_us", "us", Lower, "itself: query_p50_us of this workload, untraced"),
    layer("diag.query_p95_us", "us", Lower, "itself: query_p95_us of this workload, untraced"),
    layer("diag.query_p99_us", "us", Lower, "itself: query_p99_us of this workload, untraced"),
    layer("diag.build_s", "s", Lower, "itself: build_s of this workload, untraced"),
    // The write-beside-read tail of the live probe (the ladder's, at probe
    // scale, whatever the workload).
    layer("diag.append_p99_us", "us", Lower, "append_p99_us @ live_wire"),
    // obs
    layer("obs.trace_overhead_pct", "%", Lower, "query_qps @ zipf_inproc (traced vs untraced)"),
    layer("obs.metrics_scrape_us", "us", Lower, "query_qps @ zipf_wire"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{json, Json};
    use std::collections::BTreeSet;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(v: &Json) -> &[Json] {
        match v {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn text(v: &Json) -> &str {
        match v {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Every unsteady timing is an undeclared metric of all five workloads
    /// with a `diag.` twin in the per-layer list.
    #[test]
    fn unsteady_timings_have_diag_twins() {
        for name in UNSTEADY {
            let m = END_TO_END.iter().find(|m| m.name == name).expect("an end-to-end metric");
            assert!(!m.declared && m.only.is_empty(), "{name}");
            let twin = PER_LAYER.iter().find(|l| l.name == format!("diag.{name}"));
            let twin = twin.unwrap_or_else(|| panic!("no diag.{name}"));
            assert_eq!((twin.unit, twin.better), (m.unit, m.better), "{name}");
        }
    }

    /// `BENCHMARK.json` declares exactly what the runner emits, under the
    /// contract's limits.
    #[test]
    fn schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let declared: Vec<&str> =
            items(field(&doc, "workloads")).iter().map(|w| text(field(w, "name"))).collect();
        let emitted: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, emitted, "workloads");
        assert!((2..=8).contains(&declared.len()));
        for (w, ours) in items(field(&doc, "workloads")).iter().zip(&WORKLOADS) {
            assert_eq!(text(field(w, "why")), ours.why);
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'), "{}", ours.name);
        }

        let e2e = items(field(&doc, "end_to_end"));
        let ours: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.declared).collect();
        assert!((1..=16).contains(&e2e.len()));
        assert_eq!(e2e.len(), ours.len(), "end_to_end count");
        for (theirs, ours) in e2e.iter().zip(ours) {
            assert_eq!(text(field(theirs, "name")), ours.name);
            assert_eq!(text(field(theirs, "unit")), ours.unit, "{}", ours.name);
            assert_eq!(text(field(theirs, "better")), ours.better.as_str(), "{}", ours.name);
            assert_eq!(field(theirs, "bound"), &Json::Num(ours.bound), "{}", ours.name);
            assert!(ours.bound <= 0.25 && ours.only.is_empty(), "{}", ours.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s exists");
        assert!(setup.declared && setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");

        let layers = items(field(&doc, "per_layer"));
        assert!((1..=128).contains(&layers.len()));
        assert_eq!(layers.len(), PER_LAYER.len(), "per_layer count");
        for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(theirs, "name")), ours.name);
            assert_eq!(text(field(theirs, "unit")), ours.unit, "{}", ours.name);
            assert_eq!(text(field(theirs, "better")), ours.better.as_str(), "{}", ours.name);
        }

        let mut names = BTreeSet::new();
        let all = emitted
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(valid_name(name), "{name}");
            assert!(names.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert_eq!(
            items(field(&doc, "paths")).iter().map(text).collect::<Vec<_>>(),
            ["benchmark"],
            "paths"
        );
    }
}
