//! Multi-window SLO burn-rate tracking over latency objectives.
//!
//! An [`SloObjective`] states what "good" means — a latency target
//! (every request over `p99_target_us` burns budget) and an error budget
//! (the fraction of requests allowed to be bad). An [`SloTracker`]
//! watches a live request stream through per-second buckets and reports,
//! for each of three sliding windows (1 s / 10 s / 60 s), the **burn
//! rate**: the observed bad fraction divided by the budget. A burn rate
//! of 1.0 means the budget is being consumed exactly as fast as it
//! accrues; above 1.0 the window is out of compliance. The multi-window
//! shape is the standard alerting trick — the short window catches a
//! cliff within a second, the long window filters one-off blips.
//!
//! [`SloTracker::observe`] is lock-free (a few relaxed atomics on a
//! time-sliced ring) so it can sit on the wire tier's per-request path.

use crate::json::Json;
use crate::registry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The sliding windows a tracker reports, in seconds.
pub const SLO_WINDOWS_S: [u64; 3] = [1, 10, 60];

/// Ring size: must exceed the longest window so a full 60 s of buckets
/// is always resident alongside the bucket being written.
const BUCKETS: usize = 64;

/// What "meeting the objective" means for a request stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloObjective {
    /// A request slower than this burns budget (the "p99 ≤ N µs" target).
    pub p99_target_us: u64,
    /// Allowed bad fraction, in `(0, 1]` — e.g. `0.01` tolerates 1% of
    /// requests slow or errored before the burn rate crosses 1.0.
    pub error_budget: f64,
}

impl Default for SloObjective {
    fn default() -> Self {
        // Generous serving default: p99 ≤ 50 ms with a 1% budget, loose
        // enough that loopback tests never trip it by accident.
        SloObjective { p99_target_us: 50_000, error_budget: 0.01 }
    }
}

/// One second of request outcomes. `sec` tags which wall second the
/// counts belong to; a writer that finds a stale tag re-tags and resets.
struct Bucket {
    sec: AtomicU64,
    total: AtomicU64,
    slow: AtomicU64,
    errors: AtomicU64,
}

struct TrackerInner {
    objective: SloObjective,
    epoch: Instant,
    buckets: [Bucket; BUCKETS],
}

/// Lock-free multi-window burn-rate tracker (see module docs).
#[derive(Clone)]
pub struct SloTracker(Arc<TrackerInner>);

impl std::fmt::Debug for SloTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloTracker").field("objective", &self.0.objective).finish()
    }
}

impl SloTracker {
    /// A tracker enforcing `objective`. A non-positive or non-finite
    /// budget is clamped into `(0, 1]` so burn rates stay meaningful.
    pub fn new(objective: SloObjective) -> Self {
        let budget = if objective.error_budget.is_finite() && objective.error_budget > 0.0 {
            objective.error_budget.min(1.0)
        } else {
            0.01
        };
        SloTracker(Arc::new(TrackerInner {
            objective: SloObjective { error_budget: budget, ..objective },
            epoch: Instant::now(),
            buckets: std::array::from_fn(|_| Bucket {
                // u64::MAX never matches a real second, so untouched
                // buckets are excluded from every window sum.
                sec: AtomicU64::new(u64::MAX),
                total: AtomicU64::new(0),
                slow: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
        }))
    }

    /// Record one finished request. `error` marks a request that failed
    /// outright (decode error, BUSY rejection) — it burns budget
    /// regardless of latency.
    pub fn observe(&self, latency_us: u64, error: bool) {
        let inner = &self.0;
        let sec = inner.epoch.elapsed().as_secs();
        let bucket = &inner.buckets[(sec % BUCKETS as u64) as usize];
        let tagged = bucket.sec.load(Ordering::Acquire);
        if tagged != sec {
            // First writer of this wall second claims the bucket and
            // resets it. A racing observe between the claim and the
            // resets can be under-counted — the windows are a telemetry
            // signal, not an audit log, so best-effort is the right
            // trade for a lock-free hot path.
            if bucket.sec.compare_exchange(tagged, sec, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                bucket.total.store(0, Ordering::Relaxed);
                bucket.slow.store(0, Ordering::Relaxed);
                bucket.errors.store(0, Ordering::Relaxed);
            }
        }
        bucket.total.fetch_add(1, Ordering::Relaxed);
        if error {
            bucket.errors.fetch_add(1, Ordering::Relaxed);
        } else if latency_us > inner.objective.p99_target_us {
            bucket.slow.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot every window's burn rate.
    pub fn status(&self) -> SloStatus {
        let inner = &self.0;
        let now_sec = inner.epoch.elapsed().as_secs();
        let windows = SLO_WINDOWS_S
            .iter()
            .map(|&window_s| {
                let oldest = now_sec.saturating_sub(window_s - 1);
                let (mut total, mut slow, mut errors) = (0u64, 0u64, 0u64);
                for bucket in &inner.buckets {
                    let sec = bucket.sec.load(Ordering::Acquire);
                    if sec >= oldest && sec <= now_sec {
                        total += bucket.total.load(Ordering::Relaxed);
                        slow += bucket.slow.load(Ordering::Relaxed);
                        errors += bucket.errors.load(Ordering::Relaxed);
                    }
                }
                let bad = slow + errors;
                let burn_rate = if total == 0 {
                    0.0
                } else {
                    (bad as f64 / total as f64) / inner.objective.error_budget
                };
                WindowStatus {
                    window_s,
                    total,
                    slow,
                    errors,
                    burn_rate,
                    compliant: burn_rate <= 1.0,
                }
            })
            .collect();
        SloStatus { objective: inner.objective, windows }
    }

    /// Push the current status into `registry` as gauges, one series per
    /// window. [`crate::Gauge`] is integer-valued, so burn rates are
    /// exposed in **milli-units** (`1000` = burning exactly at budget).
    pub fn sync_gauges(&self, registry: &Registry) {
        for w in &self.status().windows {
            let window = format!("{}s", w.window_s);
            let labels: &[(&str, &str)] = &[("window", &window)];
            let burn_milli = (w.burn_rate * 1000.0).min(i64::MAX as f64) as i64;
            registry
                .gauge_with(
                    "chronorank_slo_burn_rate_milli",
                    "SLO burn rate per window, milli-units (1000 = at budget)",
                    labels,
                )
                .set(burn_milli);
            registry
                .gauge_with(
                    "chronorank_slo_compliant",
                    "1 when the window burn rate is within budget, else 0",
                    labels,
                )
                .set(i64::from(w.compliant));
            registry
                .gauge_with(
                    "chronorank_slo_window_requests",
                    "requests observed in the SLO window",
                    labels,
                )
                .set_u64(w.total);
            registry
                .gauge_with(
                    "chronorank_slo_window_bad",
                    "slow + errored requests observed in the SLO window",
                    labels,
                )
                .set_u64(w.slow + w.errors);
        }
    }
}

/// One window's burn-rate summary.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowStatus {
    /// Window length, seconds.
    pub window_s: u64,
    /// Requests observed in the window.
    pub total: u64,
    /// Requests over the latency target.
    pub slow: u64,
    /// Requests that failed outright.
    pub errors: u64,
    /// `((slow + errors) / total) / error_budget`; 0 when empty.
    pub burn_rate: f64,
    /// `burn_rate <= 1.0`.
    pub compliant: bool,
}

/// A tracker snapshot: the objective plus every window's status.
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    /// The objective the windows are measured against.
    pub objective: SloObjective,
    /// One entry per [`SLO_WINDOWS_S`] window.
    pub windows: Vec<WindowStatus>,
}

impl SloStatus {
    /// Whether every window is within budget.
    pub fn healthy(&self) -> bool {
        self.windows.iter().all(|w| w.compliant)
    }

    /// As a structured JSON object (the `slo` half of the wire `TRACE`
    /// op payload; [`crate::json::encode`] writes it).
    pub fn to_json(&self) -> Json {
        let field = |k: &str, v: Json| (k.to_string(), v);
        let window = |w: &WindowStatus| {
            Json::Obj(vec![
                field("window", Json::Str(format!("{}s", w.window_s))),
                field("window_s", Json::Num(w.window_s as f64)),
                field("total", Json::Num(w.total as f64)),
                field("slow", Json::Num(w.slow as f64)),
                field("errors", Json::Num(w.errors as f64)),
                field("burn_rate", Json::Num(w.burn_rate)),
                field("compliant", Json::Bool(w.compliant)),
            ])
        };
        Json::Obj(vec![
            field(
                "objective",
                Json::Obj(vec![
                    field("p99_target_us", Json::Num(self.objective.p99_target_us as f64)),
                    field("error_budget", Json::Num(self.objective.error_budget)),
                ]),
            ),
            field("healthy", Json::Bool(self.healthy())),
            field("windows", Json::Arr(self.windows.iter().map(window).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_compliant() {
        let t = SloTracker::new(SloObjective::default());
        let status = t.status();
        assert!(status.healthy());
        assert_eq!(status.windows.len(), SLO_WINDOWS_S.len());
        assert!(status.windows.iter().all(|w| w.total == 0 && w.burn_rate == 0.0));
    }

    #[test]
    fn fast_traffic_stays_within_budget() {
        let t = SloTracker::new(SloObjective { p99_target_us: 1_000, error_budget: 0.01 });
        for _ in 0..1_000 {
            t.observe(10, false);
        }
        let status = t.status();
        assert!(status.healthy(), "{status:?}");
        assert_eq!(status.windows[0].total, 1_000);
        assert_eq!(status.windows[0].slow, 0);
    }

    #[test]
    fn slow_traffic_burns_through_the_budget() {
        let t = SloTracker::new(SloObjective { p99_target_us: 100, error_budget: 0.01 });
        for _ in 0..90 {
            t.observe(10, false);
        }
        for _ in 0..10 {
            t.observe(5_000, false); // 10% slow against a 1% budget
        }
        let status = t.status();
        assert!(!status.healthy(), "{status:?}");
        let w = &status.windows[0];
        assert_eq!(w.total, 100);
        assert_eq!(w.slow, 10);
        assert!((w.burn_rate - 10.0).abs() < 1e-9, "burn={}", w.burn_rate);
        assert!(!w.compliant);
    }

    #[test]
    fn errors_burn_budget_regardless_of_latency() {
        let t = SloTracker::new(SloObjective { p99_target_us: 1_000_000, error_budget: 0.05 });
        for _ in 0..9 {
            t.observe(10, false);
        }
        t.observe(0, true);
        let w = &t.status().windows[0];
        assert_eq!(w.errors, 1);
        assert!((w.burn_rate - 2.0).abs() < 1e-9, "10% errors / 5% budget = 2.0");
        assert!(!w.compliant);
    }

    #[test]
    fn gauges_land_in_the_registry_and_flip() {
        let r = Registry::new();
        let t = SloTracker::new(SloObjective { p99_target_us: 100, error_budget: 0.01 });
        t.sync_gauges(&r);
        let text = r.render();
        assert!(text.contains("chronorank_slo_burn_rate_milli{window=\"1s\"} 0"), "{text}");
        assert!(text.contains("chronorank_slo_compliant{window=\"60s\"} 1"), "{text}");
        for _ in 0..10 {
            t.observe(50_000, false); // 100% slow
        }
        t.sync_gauges(&r);
        let text = r.render();
        // 100% bad / 1% budget = burn 100.0 → 100000 milli.
        assert!(text.contains("chronorank_slo_burn_rate_milli{window=\"1s\"} 100000"), "{text}");
        assert!(text.contains("chronorank_slo_compliant{window=\"1s\"} 0"), "{text}");
        crate::validate_exposition(&text).expect("slo gauges must render valid exposition");
    }

    #[test]
    fn json_shape_is_stable() {
        let t = SloTracker::new(SloObjective { p99_target_us: 2_500, error_budget: 0.02 });
        t.observe(10, false);
        let json = crate::json::encode(&t.status().to_json());
        assert!(json.starts_with("{\"objective\":{\"p99_target_us\":2500,\"error_budget\":0.02}"));
        assert!(json.contains("\"window\":\"1s\""));
        assert!(json.contains("\"compliant\":true"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn degenerate_budget_is_clamped() {
        let t = SloTracker::new(SloObjective { p99_target_us: 100, error_budget: 0.0 });
        assert_eq!(t.status().objective.error_budget, 0.01);
        let t = SloTracker::new(SloObjective { p99_target_us: 100, error_budget: f64::NAN });
        assert_eq!(t.status().objective.error_budget, 0.01);
        let t = SloTracker::new(SloObjective { p99_target_us: 100, error_budget: 7.0 });
        assert_eq!(t.status().objective.error_budget, 1.0);
    }
}
