//! The five workloads and what they share: how `--seconds` turns into a
//! fixed operation count, the closed-loop slice driver, the answer
//! checks, and the per-run outcome.

pub mod exact_cold;
pub mod live_wire;
pub mod paper_build;
pub mod zipf;

use crate::adapter::{self, Answer};
use crate::stats::{self, Measured, Slice};
use crate::trace::SpanRec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `--seconds` the frozen operation rates were calibrated for.
pub const NOMINAL_SECONDS: f64 = 10.0;
/// Measured slices per phase; one more runs first as warm-up.
pub const SLICES: usize = 5;
/// Set-ups of the three Temp workloads (≈ 0.85 s each; one build alone
/// strays ±30 % from the next on the reference host).
pub const SETUPS: usize = 5;
/// Answers every workload verifies.
pub const VERIFY_SAMPLE: usize = 64;
/// `k` of every query.
pub const K: usize = 20;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch space inside the checkout (WAL directories, index files,
    /// trace files).
    pub work_dir: PathBuf,
}

impl Run {
    /// A fixed operation count: `per_second` was calibrated once on the
    /// reference host so that the phase lasts about `--seconds` there.
    /// The count never depends on how fast this run goes, so counters
    /// repeat exactly.
    pub fn ops(&self, per_second: f64) -> usize {
        ((per_second * self.seconds) as usize).max(8)
    }

    /// A dataset dimension: nominal at or above the calibrated length,
    /// shrunk in proportion below it (`--quick`).
    pub fn size(&self, nominal: usize) -> usize {
        let share = (self.seconds / NOMINAL_SECONDS).clamp(0.02, 1.0);
        ((nominal as f64 * share) as usize).max(8)
    }

    /// Set-up is repeated `nominal` times and its median reported; a quick
    /// run and a traced pass (whose end-to-end numbers nobody reads) set up
    /// once.
    pub fn setup_repeats(&self, nominal: usize) -> usize {
        if self.traced || self.seconds < NOMINAL_SECONDS / 2.0 {
            1
        } else {
            nominal
        }
    }

    /// Slices a traced phase measures (after its warm-up slice).
    pub fn measured_slices(&self) -> usize {
        if self.traced {
            1
        } else {
            SLICES
        }
    }

    /// A fresh, empty directory under the work dir.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work_dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Everything one workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by catalogue name.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Operations attempted, and how many failed, were refused, or
    /// answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Facts that are not metrics (dataset size, rebuild count, …).
    pub facts: Vec<(String, String)>,
    /// Spans of the traced slice (empty on an untraced run).
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, m: Measured) {
        self.metrics.insert(name, m);
    }

    pub fn fact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// Count one verified answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            eprintln!("WRONG ANSWER: {}", what());
        }
    }
}

/// Repeated timings, each taken by the caller, as the mean of their
/// middle half ([`stats::midmean`]); the quartiles are the plain ones.
pub fn setup_metric(times: &[f64]) -> Measured {
    Measured { value: stats::midmean(times), ..Measured::of(times, times.len() as u64) }
}

/// `setup_s` and `build_s` over [`SETUPS`] set-ups ([`setup_metric`]).
/// `first` is the set-up the run measured on; `again` performs a whole
/// further set-up, tears it down, and returns its two timings. The extra
/// set-ups run after the measured phase and after `peak_rss_mb` was read,
/// so they inflate neither.
pub fn finish_setups(
    run: &Run,
    out: &mut Outcome,
    first: (f64, f64),
    mut again: impl FnMut() -> Result<(f64, f64), String>,
) -> Result<(), String> {
    let (mut setup_s, mut build_s) = (vec![first.0], vec![first.1]);
    for _ in 1..run.setup_repeats(SETUPS) {
        let (s, b) = again()?;
        setup_s.push(s);
        build_s.push(b);
    }
    out.set("setup_s", setup_metric(&setup_s));
    out.set("build_s", setup_metric(&build_s));
    Ok(())
}

/// Run `slices + 1` slices (the first is warm-up and is dropped) of a
/// closed loop: `clients` threads each issue `per_client` operations per
/// slice and wait for every reply. `op(client, index)` gets a running
/// per-client index; an `Err` counts as a failed operation. `warmed`
/// runs once between the warm-up and the first measured slice (counter
/// snapshots go there). Returns the measured slices and the failure count.
pub fn closed_loop<F>(
    slices: usize,
    clients: usize,
    per_client: usize,
    op: F,
    mut warmed: impl FnMut(),
) -> (Vec<Slice>, u64)
where
    F: Fn(usize, usize) -> Result<(), String> + Sync,
{
    let mut out = Vec::with_capacity(slices);
    let mut failed = 0u64;
    for slice in 0..=slices {
        let t0 = Instant::now();
        let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let op = &op;
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(per_client);
                        let mut failed = 0u64;
                        for i in 0..per_client {
                            let t = Instant::now();
                            match op(client, slice * per_client + i) {
                                Ok(()) => lat.push(t.elapsed().as_secs_f64() * 1e6),
                                Err(e) => {
                                    failed += 1;
                                    eprintln!("operation failed: {e}");
                                }
                            }
                        }
                        (lat, failed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let elapsed_s = t0.elapsed().as_secs_f64();
        failed += per_thread.iter().map(|(_, f)| f).sum::<u64>();
        if slice == 0 {
            // Warm-up: pools, caches and lazy set-up settle here.
            warmed();
            continue;
        }
        let latencies_us = per_thread.into_iter().flat_map(|(lat, _)| lat).collect();
        out.push(Slice { elapsed_s, latencies_us });
    }
    (out, failed)
}

/// Evenly spaced sample positions in `0..len`.
pub fn sample_indices(len: usize, want: usize) -> Vec<usize> {
    let want = want.min(len).max(1);
    (0..want).map(|i| i * len / want).collect()
}

/// Exact answers of two independent computations agree: same length,
/// scores within 1e-7 relative, and ids equal unless a tie permuted them
/// (the house standard of `tests/serve_agreement.rs`; index arithmetic
/// and brute force differ in the last bits).
pub fn answers_agree(want: &Answer, got: &Answer) -> bool {
    want.len() == got.len()
        && want.iter().zip(got).all(|(&(wid, ws), &(gid, gs))| {
            let tol = 1e-7 * ws.abs().max(1.0);
            (ws - gs).abs() <= tol
                && (wid == gid || want.iter().any(|&(id, s)| id == gid && (s - ws).abs() <= tol))
        })
}

/// Same ids and bit-identical scores.
pub fn bit_identical(want: &Answer, got: &Answer) -> bool {
    want.len() == got.len()
        && want.iter().zip(got).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// `VmHWM` of this process in MiB — why each workload runs in a process
/// of its own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Drain the span sink into `into` (traced loops call this every few
/// dozen operations; the sink is a ring of 512).
pub fn collect_spans(into: &mut Vec<SpanRec>) {
    into.extend(adapter::drain_spans());
}

/// The spans of a traced phase, shared by its client threads.
#[derive(Default)]
pub struct SpanBuffer(std::sync::Mutex<Vec<SpanRec>>);

impl SpanBuffer {
    /// Move whatever the sink holds into the buffer.
    pub fn collect(&self) {
        collect_spans(&mut self.0.lock().expect("span buffer lock"));
    }

    /// Drop what was collected so far (the warm-up slice's spans).
    pub fn discard(&self) {
        self.collect();
        self.0.lock().expect("span buffer lock").clear();
    }

    pub fn finish(self) -> Vec<SpanRec> {
        self.collect();
        self.0.into_inner().expect("span buffer lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_tolerates_last_bits_and_tie_swaps_only() {
        let want: Answer = vec![(1, 10.0), (2, 5.0), (3, 5.0)];
        assert!(answers_agree(&want, &vec![(1, 10.0 + 1e-9), (3, 5.0), (2, 5.0)]));
        assert!(!answers_agree(&want, &vec![(1, 10.0), (2, 5.0)]));
        assert!(!answers_agree(&want, &vec![(1, 10.1), (2, 5.0), (3, 5.0)]));
        assert!(!answers_agree(&want, &vec![(9, 10.0), (2, 5.0), (3, 5.0)]));
        assert!(bit_identical(&want, &want.clone()));
        assert!(!bit_identical(&want, &vec![(1, 10.0 + 1e-9), (2, 5.0), (3, 5.0)]));
    }

    #[test]
    fn closed_loop_drops_the_warm_up_and_counts_failures() {
        let mut warmed = 0;
        let op = |client, i| {
            if client == 1 && i % 10 == 0 {
                Err("refused".to_string())
            } else {
                Ok(())
            }
        };
        let (slices, failed) = closed_loop(3, 2, 10, op, || warmed += 1);
        assert_eq!((slices.len(), warmed), (3, 1));
        assert!(slices.iter().all(|s| s.latencies_us.len() == 19));
        // One failure per slice on client 1, warm-up included.
        assert_eq!(failed, 4);
    }

    #[test]
    fn sample_indices_spread_over_the_range() {
        assert_eq!(sample_indices(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(sample_indices(3, 64), vec![0, 1, 2]);
    }
}
