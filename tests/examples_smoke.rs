//! Smoke coverage for the `examples/` directory: every example target must
//! compile, and `quickstart`, `live_ticker` and `stock_volumes` must run to
//! completion and print their reports.
//!
//! The child `cargo` processes use a dedicated target directory
//! (`target/examples-smoke`): the parent `cargo test` invocation may hold
//! the main build-directory lock for as long as it runs, and sharing it
//! would deadlock.

use std::process::Command;

fn cargo() -> Command {
    let mut c = Command::new(env!("CARGO"));
    c.current_dir(env!("CARGO_MANIFEST_DIR"));
    c.env("CARGO_TARGET_DIR", concat!(env!("CARGO_MANIFEST_DIR"), "/target/examples-smoke"));
    c
}

#[test]
fn all_examples_build() {
    let out = cargo().args(["build", "--examples"]).output().expect("spawn cargo");
    assert!(
        out.status.success(),
        "cargo build --examples failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Run `example` in debug and check that it exits zero and prints every
/// one of `needles`.
fn runs_to_completion(example: &str, needles: &[&str]) {
    let out = cargo().args(["run", "--example", example]).output().expect("spawn cargo");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{example} exited nonzero:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for needle in needles {
        assert!(stdout.contains(needle), "{example} output missing {needle:?}:\n{stdout}");
    }
}

#[test]
fn live_ticker_runs_to_completion() {
    runs_to_completion("live_ticker", &["ticks/s", "top-10 tickers", "live report"]);
}

#[test]
fn quickstart_runs_to_completion() {
    runs_to_completion("quickstart", &["dataset: m = ", "IO cost", "precision/recall"]);
}

/// The example asserts its live engine's answer over the appended
/// half-day against brute force, so a run to completion is a check.
#[test]
fn stock_volumes_runs_to_completion() {
    runs_to_completion("stock_volumes", &["top-20 tickers", "live tail", "verified against"]);
}
