//! # chronorank-bench — the paper's evaluation harness
//!
//! Shared machinery for the `paper_bench` binary, whose one experiment is
//! `paperscale`: the paper's Meme-shaped dataset streamed through
//! out-of-core builds on an `N` ladder, written to
//! `BENCH_PAPERSCALE.json`. The paper's Section 5 figures at `N ≈ 10⁵`
//! are `pinned:` counts in `tests/paper_claims.rs` (see `REPRODUCTION.md`,
//! "Committed bench series → paper claims"). Here:
//!
//! * [`Built`], a built method beside its build-time measurements,
//! * [`Table`], a fixed-width result table, and [`fmt_bytes`] for its
//!   cells,
//! * [`json`], the JSON reader the benchmark and the trace tests use.

#![forbid(unsafe_code)]

pub mod json;

use chronorank_core::RankMethod;
use std::fmt;

/// A built method plus its build-time measurements.
pub struct Built {
    /// The method, behind the common interface.
    pub method: Box<dyn RankMethod>,
    /// Wall-clock build seconds.
    pub build_secs: f64,
    /// Index size in bytes.
    pub size_bytes: u64,
}

/// A fixed-width result table; `Display` renders it right-aligned under
/// its title.
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
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        writeln!(f, "\n== {}", self.title)?;
        for line in std::iter::once(&self.header).chain(&self.rows) {
            let cells: Vec<String> =
                line.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
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
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["100".into(), "2".into()]);
        assert_eq!(t.to_string(), "\n== demo\n  a  bb\n100   2\n");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
        assert_eq!(fmt_bytes(2 << 30), "2.00GiB");
    }
}
