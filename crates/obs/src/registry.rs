//! The metric registry and its Prometheus-style text exposition.
//!
//! A [`Registry`] maps family names to typed series (one per label set).
//! Registration takes a mutex — it happens at engine construction or on
//! a cold sync path — but the handles it returns update lock-free
//! atomics. Registering the same `(name, labels)` twice returns a handle
//! to the *same* underlying series, so independent tiers can share one
//! process-wide registry without coordination.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// What a metric family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log-bucketed distribution, exposed as a summary with
    /// p50/p95/p99 quantiles plus `_sum`, `_count` and `_max`.
    Histogram,
}

impl MetricKind {
    fn exposition_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "summary",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    kind: MetricKind,
    help: String,
    /// Rendered label block (`""` or `{k="v",…}`) → series.
    series: BTreeMap<String, Metric>,
}

#[derive(Default)]
struct RegistryInner {
    families: Mutex<BTreeMap<String, Family>>,
}

/// A collection of named metric families (see module docs).
///
/// Cloning is cheap (`Arc`); [`Registry::noop`] yields a registry whose
/// handles never touch memory and whose [`Registry::render`] is empty.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.as_ref().map_or(0, |i| {
            i.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
        });
        f.debug_struct("Registry")
            .field("noop", &self.inner.is_none())
            .field("families", &n)
            .finish()
    }
}

impl Registry {
    /// A fresh, private registry.
    pub fn new() -> Self {
        Registry { inner: Some(Arc::new(RegistryInner::default())) }
    }

    /// A registry whose handles are all no-ops — the uninstrumented side
    /// of `tests/obs_counts.rs`'s allocation comparison.
    pub fn noop() -> Self {
        Registry { inner: None }
    }

    /// The process-wide registry every tier instruments by default, and
    /// the one the wire `METRICS` op renders.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether this is a [`Registry::noop`] handle.
    pub fn is_noop(&self) -> bool {
        self.inner.is_none()
    }

    /// Register (or look up) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labelled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self
            .series(name, help, labels, MetricKind::Counter, || Metric::Counter(Counter::new()))
        {
            Some(Metric::Counter(c)) => c,
            Some(_) => unreachable!("kind checked in series()"),
            None => Counter::noop(),
        }
    }

    /// Register (or look up) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labelled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, MetricKind::Gauge, || Metric::Gauge(Gauge::new())) {
            Some(Metric::Gauge(g)) => g,
            Some(_) => unreachable!("kind checked in series()"),
            None => Gauge::noop(),
        }
    }

    /// Register (or look up) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a labelled histogram series.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, labels, MetricKind::Histogram, || {
            Metric::Histogram(Histogram::new())
        }) {
            Some(Metric::Histogram(h)) => h,
            Some(_) => unreachable!("kind checked in series()"),
            None => Histogram::noop(),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Metric,
    ) -> Option<Metric> {
        let inner = self.inner.as_ref()?;
        let mut families = inner.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric family {name:?} registered twice with different kinds"
        );
        Some(family.series.entry(render_labels(labels)).or_insert_with(make).clone())
    }

    /// Render every family as Prometheus-style text exposition:
    /// `# HELP` / `# TYPE` headers, then one sample line per series
    /// (histograms as summaries with `quantile` labels plus `_sum`,
    /// `_count` and `_max` lines). Deterministic order (sorted names,
    /// sorted label blocks); empty for a no-op registry.
    pub fn render(&self) -> String {
        let Some(inner) = &self.inner else { return String::new() };
        let families = inner.families.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.exposition_type()));
            for (labels, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Metric::Histogram(h) => {
                        let s = h.snapshot();
                        for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                            out.push_str(&format!(
                                "{name}{} {v}\n",
                                with_label(labels, "quantile", q)
                            ));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", s.sum));
                        out.push_str(&format!("{name}_count{labels} {}\n", s.count));
                        out.push_str(&format!("{name}_max{labels} {}\n", s.max));
                    }
                }
            }
        }
        out
    }
}

/// Render a label set as its exposition block (`""` when empty),
/// keys sorted for determinism.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> =
        sorted.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", body.join(","))
}

/// Append one more label to an already-rendered block.
fn with_label(block: &str, key: &str, value: &str) -> String {
    if block.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &block[..block.len() - 1])
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Validate Prometheus-style exposition text and return the set of
/// family names it declares.
///
/// The checks are structural — every non-comment line must parse as
/// `name[{labels}] <number>`, every sample's base family must have a
/// preceding `# TYPE` line, the text must end with a newline, and a
/// family re-declared with **conflicting** `# HELP` or `# TYPE` text is
/// rejected (consistent re-declarations pass — concatenated scrapes are
/// fine, silent meaning changes are not). This is what the CI
/// `obs-smoke` stage runs against a live `METRICS` scrape, so a
/// malformed encoder (or a truncated payload) fails loudly.
pub fn validate_exposition(text: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut families = std::collections::BTreeSet::new();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    if text.is_empty() {
        return Ok(families);
    }
    if !text.ends_with('\n') {
        return Err("exposition does not end with a newline".into());
    }
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or(format!("line {ln}: TYPE without a name"))?;
            let kind = parts.next().ok_or(format!("line {ln}: TYPE without a kind"))?;
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                return Err(format!("line {ln}: unknown TYPE kind {kind:?}"));
            }
            if let Some(prev) = kinds.insert(name.to_string(), kind.to_string()) {
                if prev != kind {
                    return Err(format!(
                        "line {ln}: family {name:?} re-declared as TYPE {kind} \
                         (was {prev}) — conflicting registration"
                    ));
                }
            }
            families.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            if name.is_empty() {
                return Err(format!("line {ln}: HELP without a name"));
            }
            if let Some(prev) = helps.insert(name.to_string(), help.to_string()) {
                if prev != help {
                    return Err(format!(
                        "line {ln}: family {name:?} re-declared with different HELP \
                         ({help:?}, was {prev:?}) — conflicting registration"
                    ));
                }
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: sample line without a value: {line:?}"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: non-numeric sample value {value:?}"));
        }
        let name = series.split('{').next().unwrap_or(series);
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {ln}: unterminated label block: {series:?}"));
        }
        let base = ["_sum", "_count", "_max", "_bucket"]
            .iter()
            .find_map(|suf| name.strip_suffix(suf))
            .unwrap_or(name);
        if !families.contains(base) && !families.contains(name) {
            return Err(format!("line {ln}: sample {name:?} has no preceding # TYPE"));
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("chronorank_test_total", "help");
        let b = r.counter("chronorank_test_total", "help");
        a.add(3);
        assert_eq!(b.get(), 3, "same name must alias the same series");
        let l1 = r.counter_with("chronorank_routed_total", "h", &[("route", "exact1")]);
        let l2 = r.counter_with("chronorank_routed_total", "h", &[("route", "appx2")]);
        l1.inc();
        assert_eq!(l2.get(), 0, "distinct label sets are distinct series");
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("chronorank_x", "h");
        let _ = r.gauge("chronorank_x", "h");
    }

    #[test]
    fn noop_registry_renders_empty() {
        let r = Registry::noop();
        r.counter("chronorank_y", "h").add(5);
        assert!(r.render().is_empty());
        assert!(r.is_noop());
    }

    #[test]
    fn render_is_valid_exposition() {
        let r = Registry::new();
        r.counter("chronorank_queries_total", "queries served").add(7);
        r.gauge_with("chronorank_live_mass", "live mass", &[("shard", "0")]).set(42);
        let h = r.histogram_with("chronorank_latency_us", "query latency", &[("route", "exact3")]);
        h.record(10);
        h.record(1000);
        let text = r.render();
        let families = validate_exposition(&text).expect("render must validate");
        for want in ["chronorank_queries_total", "chronorank_live_mass", "chronorank_latency_us"] {
            assert!(families.contains(want), "missing family {want}: \n{text}");
        }
        assert!(text.contains("chronorank_queries_total 7"));
        assert!(text.contains("chronorank_live_mass{shard=\"0\"} 42"));
        assert!(text.contains("chronorank_latency_us{route=\"exact3\",quantile=\"0.5\"}"));
        assert!(text.contains("chronorank_latency_us_count{route=\"exact3\"} 2"));
        assert!(text.contains("chronorank_latency_us_max{route=\"exact3\"} 1000"));
    }

    #[test]
    fn validate_rejects_malformed_text() {
        assert!(validate_exposition("no_type_header 1\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na notanumber\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na 1").is_err(), "missing newline");
        assert!(validate_exposition("# TYPE a counter\na{open 1\n").is_err());
        assert!(validate_exposition("# TYPE a wat\n").is_err());
    }

    #[test]
    fn validate_accepts_consistent_redeclarations() {
        // Two scrape chunks concatenated: same family, same HELP, same
        // TYPE — benign and accepted.
        let text = "# HELP a counts things\n# TYPE a counter\na 1\n\
                    # HELP a counts things\n# TYPE a counter\na 2\n";
        let families = validate_exposition(text).expect("consistent re-declaration is fine");
        assert!(families.contains("a"));
    }

    #[test]
    fn validate_rejects_conflicting_redeclarations() {
        // Same name, different TYPE: a counter silently becoming a gauge.
        let err = validate_exposition("# TYPE a counter\na 1\n# TYPE a gauge\na 2\n")
            .expect_err("conflicting TYPE must be rejected");
        assert!(err.contains("conflicting registration"), "{err}");
        // Same name, different HELP text.
        let err = validate_exposition(
            "# HELP a counts things\n# TYPE a counter\na 1\n\
             # HELP a counts other things\n# TYPE a counter\na 2\n",
        )
        .expect_err("conflicting HELP must be rejected");
        assert!(err.contains("different HELP"), "{err}");
        // HELP with no name at all is malformed.
        assert!(validate_exposition("# HELP \n").is_err());
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("chronorank_esc", "h", &[("path", "a\"b\\c\nd")]).inc();
        let text = r.render();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""), "escaping failed:\n{text}");
        validate_exposition(&text).expect("escaped labels still validate");
    }

    #[test]
    fn global_registry_is_shared() {
        let c = Registry::global().counter("chronorank_global_probe_total", "probe");
        let before = c.get();
        Registry::global().counter("chronorank_global_probe_total", "probe").inc();
        assert_eq!(c.get(), before + 1);
    }
}
