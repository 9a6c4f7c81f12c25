//! The layer ladder of the `--trace 1` run: every layer measured from
//! outside, by timing calls into public functions, at one fixed probe
//! scale (about a quarter of the workloads' datasets, so that a traced
//! run fits its time budget). The probes do not depend on `--workload`;
//! each end-to-end workload names in the catalogue which of these numbers
//! should move with it.

mod core;
mod live;
mod micro;
mod serve;

use crate::stats::{self, Measured};
use crate::workloads::Run;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics by catalogue name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, Measured>);

impl Layers {
    fn set(&mut self, name: &str, m: Measured) {
        self.0.insert(name.to_string(), m);
    }

    fn value(&mut self, name: &str, v: f64) {
        self.set(name, Measured::single(v));
    }

    /// Median of per-operation samples.
    fn median(&mut self, name: &str, samples: &[f64]) {
        self.set(name, Measured::of(samples, samples.len() as u64));
    }
}

/// Run every probe.
pub fn run(run: &Run) -> Result<Layers, String> {
    let mut out = Layers::default();
    micro::run(run, &mut out)?;
    core::run(run, &mut out)?;
    serve::run(run, &mut out)?;
    live::run(run, &mut out)?;
    Ok(out)
}

/// Time every call of `op` over `0..count`, in µs.
fn time_each<T>(
    count: usize,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let t = Instant::now();
        std::hint::black_box(op(i)?);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(samples)
}

/// Mean nanoseconds per call over `iters` back-to-back calls — for
/// operations too short to time one by one. Reported as the median of
/// five such batches.
fn ns_per_call(iters: usize, mut op: impl FnMut(usize)) -> Measured {
    let batches: Vec<f64> = (0..5)
        .map(|b| {
            let t = Instant::now();
            for i in 0..iters {
                op(b * iters + i);
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    Measured::of(&batches, (5 * iters) as u64)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn p50(samples: &[f64]) -> f64 {
    stats::median(samples)
}
