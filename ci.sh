#!/usr/bin/env bash
# CI gate for the chronorank workspace. Usage: ./ci.sh
#   ./ci.sh --lines        only the non-test line report printed after the timings
#   ./ci.sh --lines <rev>  that report as `<rev> → now` per crate, the same
#                          rule applied to `git show <rev>:<file>` — the one
#                          command a CHANGES entry quotes
#
# Stages (9):
#   fmt               cargo fmt --check               (style per rustfmt.toml)
#   clippy            cargo clippy -D warnings        (whole workspace, all targets)
#   doc               cargo doc --no-deps             (RUSTDOCFLAGS="-D warnings")
#   tier1             cargo build --release && cargo test -q, then the
#                     counts tests/resident_build_counts.rs pins (blocks
#                     written, blocks read, allocations per shard build,
#                     heap bytes held per index byte and per live point)
#                     and the ones tests/obs_counts.rs pins (spans, heap
#                     allocations and metric updates per query, bytes per
#                     span slot — what telemetry costs, as counts that
#                     repeat rather than a timing) echoed into the summary
#                     below the timings — and below a failure
#   agreement-w8      serve/live/window agreement suites re-run at W=8
#                     with RUST_TEST_THREADS deliberately unpinned, so the
#                     shared-snapshot engines race for real cores
#   obs-smoke         a loopback METRICS scrape (examples/metrics_scrape
#                     fails on malformed exposition or missing families)
#                     and examples/trace_dump against a loopback server
#                     (exits nonzero unless one wire query yields one
#                     joined cross-process span tree over the TRACE op)
#   paperscale-smoke  paper-bench paperscale --quick  (one scaled-down rung
#                     through the streaming out-of-core build pipeline; the
#                     bench itself exits nonzero unless EXACT3 beats EXACT1
#                     in per-query cold IO and the BREAKPOINTS2 sweep held
#                     at most m segments)
#   rescore-smoke     paper-bench rescore --quick     (columnar batch
#                     rescoring vs the scalar row walk, and execute
#                     windows vs solo queries; the bench asserts bit-
#                     identical checksums and exits nonzero unless
#                     columnar >= scalar and batched W=64 >= solo)
#   benchmark-smoke   benchmark/run.sh --quick        (the standalone
#                     BENCHMARK.json package still builds against the
#                     crates' public API and every workload — in-process
#                     serve, the wire, live ingest beside reads, checkpoint
#                     and image boot, out-of-core builds — answers
#                     correctly at 1/20 scale; exit code only, its numbers
#                     are the driver's to gate; artifacts and the report
#                     stay under target/benchmark)
#
# Every smoke artifact goes under target/ so the committed full-scale
# BENCH_*.json and results/ CSVs are never clobbered by quick numbers.
#
# A per-stage wall-clock summary is printed at the end, then non-test
# Rust lines per crate; on failure the offending stage is named. The property suites honour PROPTEST_CASES;
# the fixed default below keeps the whole script comfortably inside the
# CI budget while still running every property at a meaningful case
# count. Raise it locally (e.g. PROPTEST_CASES=1000 ./ci.sh) for a
# deeper soak.
# -E (errtrace): the ERR trap below must fire inside stage functions too.
set -Eeuo pipefail
cd "$(dirname "$0")"

export PROPTEST_CASES="${PROPTEST_CASES:-64}"

STAGE_NAMES=()
STAGE_SECS=()
PINNED_COUNTS=""
CURRENT_STAGE="(startup)"
CI_T0=$SECONDS

print_timings() {
    echo
    echo "== stage timings"
    local i
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-18s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    done
    printf '  %-18s %4ds\n' "total" "$((SECONDS - CI_T0))"
    if [[ -n $PINNED_COUNTS ]]; then
        echo
        echo "== pinned counts (tier1, tests/resident_build_counts.rs and tests/obs_counts.rs)"
        sed 's/^pinned:/ /' <<< "$PINNED_COUNTS"
    fi
}

# Non-test Rust lines per crate: every src/**/*.rs up to its first
# `#[cfg(test)]`. The number a CHANGES entry quotes as "net lines
# deleted": with a revision, each crate prints as `<rev> → now`.
NON_TEST_LINES='/^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }'

# crate_lines <dir> [rev]: the count for one crate, in the working tree or
# as of <rev>.
crate_lines() {
    local dir=$1 rev=${2:-} f n total=0
    while IFS= read -r f; do
        n=$(if [[ -n $rev ]]; then git show "$rev:$f"; else cat "$f"; fi | awk "$NON_TEST_LINES")
        total=$((total + n))
    done < <(if [[ -n $rev ]]; then git ls-tree -r --name-only "$rev" -- "$dir/src"
        else find "$dir/src" -type f 2> /dev/null; fi | grep '\.rs$' || true)
    echo "$total"
}

print_lines() {
    local rev=${1:-} dirs dir now was=0 total=0 total_was=0
    row() {
        if [[ -n $rev ]]; then
            printf '  %-18s %6d → %6d  %+6d\n' "$1" "$3" "$2" "$(($2 - $3))"
        else
            printf '  %-18s %6d\n' "$1" "$2"
        fi
    }
    echo
    echo "== non-test Rust lines per crate${rev:+ ($rev → now)}"
    # Crates of either side: one deleted since <rev> prints `n → 0`.
    dirs=$(ls -d crates/*)
    [[ -z $rev ]] || dirs+=$'\n'$(git ls-tree -d --name-only "$rev" crates/)
    for dir in $(sort -u <<< "$dirs"); do
        now=$(crate_lines "$dir")
        [[ -z $rev ]] || was=$(crate_lines "$dir" "$rev")
        row "$(basename "$dir")" "$now" "$was"
        total=$((total + now))
        total_was=$((total_was + was))
    done
    row total "$total" "$total_was"
}

on_failure() {
    echo
    echo "CI FAILED in stage: $CURRENT_STAGE" >&2
    print_timings
}
trap on_failure ERR

if [[ "${1:-}" == "--lines" ]]; then
    if [[ -n "${2:-}" ]] && ! git rev-parse --verify --quiet "$2^{commit}" > /dev/null; then
        echo "ci.sh --lines: not a revision: $2" >&2
        exit 2
    fi
    print_lines "${2:-}"
    exit 0
fi

stage() {
    CURRENT_STAGE="$1"
    shift
    echo "== [$CURRENT_STAGE] $*"
    local t0=$SECONDS
    "$@"
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECS+=("$((SECONDS - t0))")
}

doc_stage() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
}

# The counts a CHANGES entry quotes from this log instead of re-measuring.
# Collected first and tolerant of failure: the test prints each count before
# asserting it, so one that trips its pin still reaches the failure summary;
# the workspace run below is what fails the stage.
tier1_stage() {
    cargo build --release
    PINNED_COUNTS=$(cargo test -q --test resident_build_counts --test obs_counts -- --nocapture \
        2> /dev/null | grep '^pinned:' || true)
    cargo test -q --workspace
}

# The agreement suites prove bit-identical answers with workers querying
# shared snapshots; this stage widens the sweep to W=8 and leaves
# RUST_TEST_THREADS unpinned so test-level and engine-level parallelism
# collide as hard as the host allows.
agreement_w8() {
    CHRONORANK_AGREEMENT_W=8 \
        cargo test --release -q --test serve_agreement --test live_agreement \
        --test columnar_agreement
}

# The scrape example fails on malformed exposition or a missing family.
# One traced wire query must come back over TRACE as a single joined
# span tree (client.topk -> server.request -> engine.query -> probes);
# the trace example exits nonzero otherwise. What telemetry costs a query
# is tier1's business (tests/obs_counts.rs), not a timing here.
obs_smoke() {
    cargo run --release -q --example metrics_scrape
    cargo run --release -q --example trace_dump
}

# One scaled-down ladder rung through the same streaming generators,
# external sorts and budget-sized pools as the committed ladder; the
# bench self-gates the paper's EXACT3 < EXACT1 cold-IO ordering and the
# streamed BREAKPOINTS2 sweep's peak_pending_segments <= m.
paperscale_smoke() {
    CHRONORANK_PAPERSCALE_JSON=target/BENCH_PAPERSCALE_ci.json \
        cargo run --release -q -p chronorank-bench --bin paper_bench -- paperscale --quick \
        --out target/paper-bench-smoke
}

# The rescore bench enforces its own gates by exit code: the columnar
# kernel must not lose to the scalar row walk, and batched execution at
# W=64 must not lose to solo queries (both after asserting bit-identical
# answers/checksums).
rescore_smoke() {
    CHRONORANK_RESCORE_JSON=target/BENCH_RESCORE_ci.json \
        cargo run --release -q -p chronorank-bench --bin paper_bench -- rescore --quick \
        --out target/paper-bench-smoke
}

# benchmark/ is a workspace of its own that tier1 never compiles; this
# is the only stage that notices when a crate change breaks it.
benchmark_smoke() {
    mkdir -p target/benchmark
    benchmark/run.sh --quick > target/benchmark/ci-smoke.log
}

stage fmt              cargo fmt --check
stage clippy           cargo clippy --workspace --all-targets -- -D warnings
stage doc              doc_stage
stage tier1            tier1_stage
stage agreement-w8     agreement_w8
stage obs-smoke        obs_smoke
stage paperscale-smoke paperscale_smoke
stage rescore-smoke    rescore_smoke
stage benchmark-smoke  benchmark_smoke

print_timings
print_lines
echo "CI OK"
