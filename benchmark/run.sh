#!/usr/bin/env bash
# One command for the whole benchmark: builds the standalone
# chronorank-benchmark package from source, then runs it.
#
#   benchmark/run.sh                       all five workloads, summary JSON last
#   benchmark/run.sh --traced              ... plus the traced slice and layer ladder
#   benchmark/run.sh --quick               everything 20x smaller (smoke, < 15 s)
#   benchmark/run.sh --workload NAME --seed N --seconds T --trace 0|1
#                                          one workload; last line is the result
#                                          object BENCHMARK.json's driver reads
#   benchmark/run.sh --selfcheck [--spread N]
#   benchmark/run.sh --lint                fmt --check + clippy -D warnings + unit tests
#
# Run from the repository root. Build output, scratch directories and
# trace-<workload>.json live under $CARGO_TARGET_DIR (default
# target/benchmark), inside the checkout.
set -euo pipefail

manifest="$(dirname "$0")/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest" -q
    exit 0
fi

# The build's own chatter goes to stderr; stdout is the report.
cargo build --offline --release --quiet --manifest-path "$manifest" 1>&2
exec "$CARGO_TARGET_DIR/release/chronorank-benchmark" "$@"
