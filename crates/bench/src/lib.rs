//! # chronorank-bench — the paper's evaluation harness
//!
//! Shared machinery for the `paper-bench` binary, which regenerates every
//! table and figure of the paper's Section 5 (see `REPRODUCTION.md`,
//! "Committed bench series → paper claims", for the experiment index and
//! what each series reproduces):
//!
//! * dataset builders wrapping `chronorank-workloads` at the scaled
//!   defaults,
//! * one-line builders for every method (EXACT1/2/3, APPX1-B/2-B/1/2/2+),
//! * cold-cache query measurement (per-query `drop_caches` + IO counter
//!   reset, exactly how the paper's IO columns are produced),
//! * quality metrics against brute-force ground truth,
//! * fixed-width table printing plus CSV emission under `results/`.

#![forbid(unsafe_code)]

pub mod json;

use chronorank_core::metrics;
use chronorank_core::{
    AggKind, ApproxConfig, ApproxIndex, ApproxVariant, B2Construction, Exact1, Exact2, Exact3,
    IndexConfig, RankMethod, TemporalSet, TopK,
};
use chronorank_workloads::{
    DatasetGenerator, MemeConfig, MemeGenerator, QueryInterval, QueryWorkload, QueryWorkloadConfig,
    TempConfig, TempGenerator,
};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Default Temp-like dataset at harness scale (paper: m = 50,000 and
/// n_avg = 1,000 → N = 5·10⁷; scaled to keep the full suite in CI budget).
pub fn temp_dataset(m: usize, navg: usize, seed: u64) -> TemporalSet {
    TempGenerator::new(TempConfig { objects: m, avg_segments: navg, seed, dropout: 0.02 })
        .generate_set()
}

/// Default Meme-like dataset (paper: m ≈ 1.5M, n_avg = 67, N = 10⁸).
pub fn meme_dataset(m: usize, navg: usize, seed: u64) -> TemporalSet {
    MemeGenerator::new(MemeConfig { objects: m, avg_segments: navg, span: 10_000.0, seed })
        .generate_set()
}

/// The paper's query workload: `count` random intervals spanning
/// `span_frac` of the domain, top-`k` each.
pub fn queries(set: &TemporalSet, count: usize, span_frac: f64, k: usize) -> Vec<QueryInterval> {
    QueryWorkload::new(
        QueryWorkloadConfig { count, span_fraction: span_frac, k, seed: 7, ..Default::default() },
        set.t_min(),
        set.t_max(),
    )
    .generate()
}

/// A built method plus its build-time measurements.
pub struct Built {
    /// The method, behind the common interface.
    pub method: Box<dyn RankMethod>,
    /// Display name ("EXACT3", "APPX2+", …).
    pub name: String,
    /// Wall-clock build seconds.
    pub build_secs: f64,
    /// Index size in bytes.
    pub size_bytes: u64,
}

/// Build one of the three exact methods by name.
pub fn build_exact(which: &str, set: &TemporalSet) -> Built {
    build_exact_with(which, set, IndexConfig::default())
}

/// Build an exact method with explicit storage settings (used by the
/// block-size / pool ablations).
pub fn build_exact_with(which: &str, set: &TemporalSet, config: IndexConfig) -> Built {
    let t0 = Instant::now();
    let (method, name): (Box<dyn RankMethod>, &str) = match which {
        "EXACT1" => (Box::new(Exact1::build(set, config).expect("build")), "EXACT1"),
        "EXACT2" => (Box::new(Exact2::build(set, config).expect("build")), "EXACT2"),
        "EXACT3" => (Box::new(Exact3::build(set, config).expect("build")), "EXACT3"),
        other => panic!("unknown exact method {other}"),
    };
    let build_secs = t0.elapsed().as_secs_f64();
    Built { name: name.to_string(), build_secs, size_bytes: method.size_bytes(), method }
}

/// Build an approximate variant with the given breakpoint budget.
pub fn build_approx(variant: ApproxVariant, set: &TemporalSet, r: usize, kmax: usize) -> Built {
    let t0 = Instant::now();
    let idx = ApproxIndex::build(
        set,
        variant,
        ApproxConfig { r, kmax, eps: None, b2: B2Construction::Efficient, ..Default::default() },
    )
    .expect("build approx");
    let build_secs = t0.elapsed().as_secs_f64();
    Built {
        name: variant.name().to_string(),
        build_secs,
        size_bytes: idx.size_bytes(),
        method: Box::new(idx),
    }
}

/// Per-method query measurements averaged over a workload.
#[derive(Debug, Clone, Copy)]
pub struct QueryStats {
    /// Mean cold-cache block reads per query.
    pub avg_ios: f64,
    /// Mean wall-clock milliseconds per query.
    pub avg_ms: f64,
    /// Mean precision (= recall) vs ground truth, if computed.
    pub precision: f64,
    /// Mean approximation ratio vs ground truth, if computed.
    pub ratio: f64,
}

/// Brute-force ground-truth answers for a workload (shared by all methods).
pub fn ground_truth(set: &TemporalSet, qs: &[QueryInterval]) -> Vec<TopK> {
    qs.iter().map(|q| set.top_k_bruteforce(q.t1, q.t2, q.k)).collect()
}

/// Run the workload cold (paper methodology: every query starts with empty
/// buffer pools and a zeroed IO counter) and average.
pub fn measure_queries(
    built: &Built,
    set: &TemporalSet,
    qs: &[QueryInterval],
    truth: Option<&[TopK]>,
) -> QueryStats {
    let mut ios = 0u64;
    let mut secs = 0.0f64;
    let mut prec = 0.0f64;
    let mut ratio = 0.0f64;
    for (i, q) in qs.iter().enumerate() {
        built.method.drop_caches().expect("drop caches");
        built.method.reset_io();
        let t0 = Instant::now();
        let answer = built.method.top_k(q.t1, q.t2, q.k, AggKind::Sum).expect("query");
        secs += t0.elapsed().as_secs_f64();
        ios += built.method.io_stats().reads;
        if let Some(truth) = truth {
            prec += metrics::precision(&truth[i], &answer);
            ratio += metrics::approximation_ratio(set, &answer, q.t1, q.t2).mean;
        }
    }
    let n = qs.len().max(1) as f64;
    QueryStats {
        avg_ios: ios as f64 / n,
        avg_ms: secs * 1000.0 / n,
        precision: if truth.is_some() { prec / n } else { 1.0 },
        ratio: if truth.is_some() { ratio / n } else { 1.0 },
    }
}

/// A fixed-width result table that prints to stdout and saves as CSV.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render aligned to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        println!("\n== {}", self.title);
        let line: Vec<String> =
            self.header.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
        println!("{}", line.join("  "));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            println!("{}", line.join("  "));
        }
    }

    /// Write as CSV into `dir/<name>.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{name}.csv")))?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Format bytes in binary units for table cells.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1}KiB", b as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_requested_scale() {
        let set = temp_dataset(50, 40, 1);
        assert_eq!(set.num_objects(), 50);
        let set = meme_dataset(60, 20, 1);
        assert_eq!(set.num_objects(), 60);
    }

    #[test]
    fn end_to_end_measurement_smoke() {
        let set = temp_dataset(40, 30, 2);
        let qs = queries(&set, 3, 0.2, 5);
        let truth = ground_truth(&set, &qs);
        let built = build_exact("EXACT3", &set);
        let stats = measure_queries(&built, &set, &qs, Some(&truth));
        assert!(stats.avg_ios > 0.0);
        assert!((stats.precision - 1.0).abs() < 1e-9, "exact method must be perfect");
        assert!((stats.ratio - 1.0).abs() < 1e-9);
        let built = build_approx(ApproxVariant::APPX2, &set, 12, 8);
        let stats = measure_queries(&built, &set, &qs, Some(&truth));
        assert!(stats.precision > 0.2);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let dir = std::env::temp_dir().join(format!("chronorank-bench-{}", std::process::id()));
        t.write_csv(&dir, "demo").unwrap();
        let s = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(s, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
        t.print();
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert_eq!(fmt_bytes(2 << 30), "2.00GiB");
    }
}
