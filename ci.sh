#!/usr/bin/env bash
# CI gate for the chronorank workspace. Usage: ./ci.sh
#   ./ci.sh --lines        only the reports printed after the timings: non-test
#                          lines per crate, `pub` items per crate (in those
#                          lines), and the settable `pub` fields of each
#                          public config struct (ServeConfig, LiveConfig,
#                          NetConfig, ApproxConfig, StoreConfig, RebuildPolicy,
#                          MethodSet)
#   ./ci.sh --lines <rev>  all three reports as `<rev> → now` per row, the
#                          same rules applied to `git show <rev>:<file>` — the
#                          one command a CHANGES entry quotes for lines, public
#                          surface and knobs
#   ./ci.sh --pairs <rev> <workload> <n> [first-seed]
#                          n pairs of <rev> / working-tree runs of one
#                          benchmark workload (`--seed s --seconds 10
#                          --trace 0`, seeds first-seed.., default 1; the
#                          side that runs first alternates), each
#                          side built once (<rev> from `git archive` under
#                          target/pairs/); then per metric BENCHMARK.json
#                          declares, plus the #detail line's build_s: both
#                          medians, their quartiles and the pairs the
#                          working tree won
#
# Stages (8):
#   fmt               cargo fmt --check               (style per rustfmt.toml)
#   clippy            cargo clippy -D warnings        (whole workspace, all targets)
#   doc               cargo doc --no-deps             (RUSTDOCFLAGS="-D warnings")
#   tier1             cargo build --release && cargo test -q, then the
#                     counts tests/resident_build_counts.rs pins (blocks
#                     written, blocks read, index bytes a default serve
#                     shard holds per segment, allocations per shard
#                     build, heap bytes held per index byte, peak heap of
#                     a shard build beyond what it holds and point bytes
#                     a W = 2 partition copies, both per segment, index
#                     bytes per segment and heap bytes per live point of
#                     a live engine, heap bytes per live point after an
#                     image boot, and peak heap of a live rebuild beyond
#                     what the engine holds after it, per live point),
#                     the ones tests/streaming_build_counts.rs pins (peak
#                     heap beyond the ScaleBudget, heap held and blocks a
#                     drop_caches writes after each out-of-core build),
#                     the ones tests/obs_counts.rs pins (spans, heap
#                     allocations and metric updates per query, bytes per
#                     span slot — what telemetry costs, as counts that
#                     repeat rather than a timing), the ones
#                     crates/net/tests/thread_counts.rs pins (wire-server
#                     threads with 3 connections, 4 = the acceptor + one
#                     per connection, and after shutdown, 0) and the two
#                     tests/stab_reads.rs pins (blocks 2,000 cold Meme stabs
#                     read, at most a third of lo-order packing, and the
#                     row bytes EXACT3's packed leaves spend per entry on
#                     a Temp shard and on Meme), the one tests/leaf_flips.rs
#                     pins (panics over every single-byte flip of a built
#                     EXACT3 leaf, reopened: 0), the ones
#                     tests/malformed_inputs.rs pins (decoders of bytes
#                     read back from a file or a socket swept, the
#                     truncated or flipped blobs they decoded, the panics
#                     over them, 0, the damaged live images whose boot
#                     was refused, 0, and the worst heap a decode held
#                     per byte it was handed), the one
#                     crates/index/src/interval.rs pins (cuts per entry an
#                     EXACT3 load makes, on a Temp shard and on Meme: each
#                     entry goes into a leaf about once), the ones
#                     tests/pool_reads.rs pins (blocks per exact query on
#                     an exact_cold-shaped engine through 64-frame
#                     segmented-LRU pools, and blocks per hot exact query
#                     on a W = 2 live ingest that installs 10 generations,
#                     which the result cache answers across appends and
#                     installs), the ones
#                     tests/paper_claims.rs pins (per generator — Temp,
#                     Meme, Stock at N ≈ 10⁵ — cold reads per query of
#                     EXACT1 / EXACT3 / APPX1 / APPX2 / APPX2+ against the
#                     paper's EXACT3 bound, APPX precision, ratio and
#                     worst error vs EXACT3, and APPX2+'s re-scoring reads
#                     per candidate; then EXACT3 vs APPX2+ cold reads on
#                     an exact_cold-shaped shard, the blocks 64 Zipf
#                     queries read solo against one execute window, and
#                     the paper's Figures 12, 16 and 17 per generator —
#                     precision, ratio and cold reads by r, query span
#                     and k — and Figure 18's APPX1 / APPX2 bytes and
#                     reads by kmax on Temp), the
#                     one tests/shard_workers.rs pins (worker threads that
#                     probed each shard of a W = 4 pool under 4 callers:
#                     1, each shard's own worker), plus the sleeps, yields
#                     and socket read/write timeouts in tests/,
#                     crates/*/tests and the #[cfg(test)] part of every
#                     crates/*/src file (must be 0: tests wait on events,
#                     not time) — echoed, with their count,
#                     into the summary below the timings —
#                     and below a failure
#   agreement-w8      serve/live/window/wire agreement suites re-run at W=8
#                     with RUST_TEST_THREADS deliberately unpinned, so the
#                     shared-snapshot engines race for real cores (and a
#                     wire appender and querier contend for one backend)
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
#   benchmark-smoke   benchmark/run.sh --lint, then --quick  (the
#                     standalone BENCHMARK.json package, which pins the
#                     crates' public API, passes its own fmt --check,
#                     clippy -D warnings and unit tests; then it still
#                     builds against that API and every workload —
#                     in-process serve, the wire, live ingest beside
#                     reads, checkpoint and image boot, out-of-core builds
#                     — answers correctly at 1/20 scale; exit codes only,
#                     its numbers are not gated here; artifacts and
#                     the report stay under target/benchmark)
#
# Every smoke artifact goes under target/ so the committed full-scale
# BENCH_PAPERSCALE.json is never clobbered by quick numbers.
#
# A per-stage wall-clock summary is printed at the end, then non-test
# Rust lines and pub items per crate and settable fields per config
# struct; on failure the offending stage is named. The property suites
# honour PROPTEST_CASES; the fixed default below keeps the whole script
# comfortably inside the CI budget while still running every property at
# a meaningful case count. Raise it locally (e.g. PROPTEST_CASES=1000
# ./ci.sh) for a deeper soak.
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
        echo "== pinned counts (tier1, tests/{resident,streaming}_build_counts.rs, tests/obs_counts.rs, crates/net/tests/thread_counts.rs, tests/stab_reads.rs, tests/leaf_flips.rs, tests/malformed_inputs.rs, crates/index/src/interval.rs, tests/pool_reads.rs, tests/paper_claims.rs, tests/shard_workers.rs, test waits; $(grep -c . <<< "$PINNED_COUNTS") lines)"
        sed 's/^pinned:/ /' <<< "$PINNED_COUNTS"
    fi
}

# A file's test part starts at its first `#[cfg(test)]` line that a `mod`
# line follows; a `#[cfg(test)]` on a statement or any other item is a
# line like the rest (`attrs` counts them). Shared by the three scans below.
TEST_PART='!cut && pend { pend = 0; if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) cut = 1; else attrs++ }
!cut && /^[[:space:]]*#\[cfg\(test\)\]/ { pend = 1; next }'
# Non-test Rust lines per crate: every src/**/*.rs up to its test part. The
# number a CHANGES entry quotes as "net lines deleted": with a revision,
# each crate prints as `<rev> → now`.
NON_TEST_LINES="$TEST_PART"'
!cut { n++ }
END { print n + attrs + pend }'
# Public items per crate, over the same lines: each `pub fn|struct|enum|
# trait|type|const|static|mod|use` declaration (`pub(crate)` and struct
# fields are not items). The count a dead-`pub` sweep quotes.
PUB_ITEMS="$TEST_PART"'
!cut && /^[[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use) / { n++ }
END { print n + 0 }'

# crate_count <awk program> <dir> [rev]: one crate's count, summed over its
# src/**/*.rs, in the working tree or as of <rev>.
crate_count() {
    local prog=$1 dir=$2 rev=${3:-} f n total=0
    while IFS= read -r f; do
        n=$(if [[ -n $rev ]]; then git show "$rev:$f"; else cat "$f"; fi | awk "$prog")
        total=$((total + n))
    done < <(if [[ -n $rev ]]; then git ls-tree -r --name-only "$rev" -- "$dir/src"
        else find "$dir/src" -type f 2> /dev/null; fi | grep '\.rs$' || true)
    echo "$total"
}

# row <rev> <name> <now> <was>: one report line, `was → now` with a rev.
row() {
    if [[ -n $1 ]]; then
        printf '  %-18s %6d → %6d  %+6d\n' "$2" "$4" "$3" "$(($3 - $4))"
    else
        printf '  %-18s %6d\n' "$2" "$3"
    fi
}

# per_crate <title> <awk program> [rev]: one report, a row per crate and a
# total.
per_crate() {
    local title=$1 prog=$2 rev=${3:-} dirs dir now was=0 total=0 total_was=0
    echo
    echo "== $title per crate${rev:+ ($rev → now)}"
    # Crates of either side: one deleted since <rev> prints `n → 0`.
    dirs=$(ls -d crates/*)
    [[ -z $rev ]] || dirs+=$'\n'$(git ls-tree -d --name-only "$rev" crates/)
    for dir in $(sort -u <<< "$dirs"); do
        now=$(crate_count "$prog" "$dir")
        [[ -z $rev ]] || was=$(crate_count "$prog" "$dir" "$rev")
        row "$rev" "$(basename "$dir")" "$now" "$was"
        total=$((total + now))
        total_was=$((total_was + was))
    done
    row "$rev" total "$total" "$total_was"
}

print_lines() {
    per_crate "non-test Rust lines" "$NON_TEST_LINES" "${1:-}"
    per_crate "pub items" "$PUB_ITEMS" "${1:-}"
}

# The knobs a CHANGES entry counts: the settable `pub` fields of each
# public config struct, by one awk pass over `pub struct <Name> {` … `}`
# per file that defines any of them.
CONFIG_STRUCTS=(ServeConfig LiveConfig NetConfig ApproxConfig StoreConfig RebuildPolicy MethodSet)
PUB_FIELDS='/^pub struct [A-Za-z]+ [{]/ { name = index(" " want " ", " " $3 " ") ? $3 : ""; n = 0; next }
name != "" && /^}/ { print name, n; name = "" }
name != "" && /^    pub [a-z_0-9]+:/ { n++ }'

# config_fields [rev]: `<Name> <fields>` per struct, in the working tree or
# as of <rev> (`git grep` names a file `<rev>:<path>`, what `git show` takes).
config_fields() {
    local rev=${1:-} pattern f
    pattern="^pub struct ($(IFS='|' && echo "${CONFIG_STRUCTS[*]}")) [{]"
    while IFS= read -r f; do
        if [[ -n $rev ]]; then git show "$f"; else cat "$f"; fi |
            awk -v want="${CONFIG_STRUCTS[*]}" "$PUB_FIELDS"
    done < <(if [[ -n $rev ]]; then git grep -lE "$pattern" "$rev" -- crates
        else grep -rlE "$pattern" crates --include='*.rs'; fi || true)
}

print_configs() {
    local rev=${1:-} name n
    local -A now=() was=()
    while read -r name n; do now[$name]=$n; done < <(config_fields)
    if [[ -n $rev ]]; then
        while read -r name n; do was[$name]=$n; done < <(config_fields "$rev")
    fi
    echo
    echo "== settable pub fields per config struct${rev:+ ($rev → now)}"
    for name in "${CONFIG_STRUCTS[@]}"; do
        row "$rev" "$name" "${now[$name]:-0}" "${was[$name]:-0}"
    done
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
    print_configs "${2:-}"
    exit 0
fi

# One A/B series: what a perf claim quotes, as one command. Each run's
# stdout goes to target/pairs/<rev>/runs/; the report reads the result
# line (the last) and the `#detail` line of each.
PAIRS_REPORT='
# Quartile q of the sorted v[1..n], interpolated.
function quantile(v, n, q,    pos, lo) {
    pos = 1 + q * (n - 1); lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, key, n, dst,    i, j, x) {
    for (i = 1; i <= n; i++) {
        x = src[key, i]
        for (j = i - 1; j >= 1 && dst[j] > x; j--) dst[j + 1] = dst[j]
        dst[j + 1] = x
    }
}
function value(line, name,    at) {
    at = index(line, "\"" name "\":{\"value\":")
    if (!at) return ""
    return substr(line, at + length(name) + 12) + 0
}
FILENAME ~ /BENCHMARK.json$/ {
    if ($0 ~ /"end_to_end"/) decl = 1
    else if (decl && $0 ~ /^[[:space:]]*\]/) decl = 0
    else if (decl && match($0, /"name":"[^"]+"/)) {
        names[++m] = substr($0, RSTART + 8, RLENGTH - 9)
        lower[m] = $0 ~ /"better":"lower"/
    }
    next
}
FNR == 1 { side = FILENAME ~ /\/parent-[0-9]+\.out$/ ? "parent" : "change"; runs[side]++ }
/^#detail / { build[side, runs[side]] = value($0, "build_s") }
/^\{"correct":/ {
    r = runs[side]
    correct[side] += $0 ~ /"correct":true/
    if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
    for (i = 1; i <= m; i++) got[side, names[i], r] = value($0, names[i])
}
END {
    names[++m] = "build_s"; lower[m] = 1; detail = m
    for (r = 1; r <= runs["change"]; r++) {
        got["parent", "build_s", r] = build["parent", r]
        got["change", "build_s", r] = build["change", r]
    }
    n = runs["change"] < runs["parent"] ? runs["change"] : runs["parent"]
    printf "  %-34s %-32s %-32s %s\n", "metric, better", "parent median [q1, q3]", "change median [q1, q3]", "change won / tied"
    for (i = 1; i <= m; i++) {
        won = tied = 0
        for (r = 1; r <= n; r++) {
            a = got["parent", names[i], r]; b = got["change", names[i], r]
            if (a == b) tied++
            else if ((b < a) == lower[i]) won++
        }
        sorted(got, "parent" SUBSEP names[i], n, ps); sorted(got, "change" SUBSEP names[i], n, cs)
        label = names[i] (i == detail ? " (#detail)" : "") (lower[i] ? ", lower" : ", higher")
        printf "  %-34s %-32s %-32s %d / %d of %d\n", label, \
            sprintf("%.6g [%.6g, %.6g]", quantile(ps, n, 0.5), quantile(ps, n, 0.25), quantile(ps, n, 0.75)), \
            sprintf("%.6g [%.6g, %.6g]", quantile(cs, n, 0.5), quantile(cs, n, 0.25), quantile(cs, n, 0.75)), \
            won, tied, n
    }
    printf "  runs correct: parent %d of %d, change %d of %d; failed ops: parent %d, change %d\n", \
        correct["parent"], runs["parent"], correct["change"], runs["change"], failed["parent"], failed["change"]
}'

run_pairs() {
    local rev=$1 workload=$2 n=$3 seed=${4:-1} sha dir s side root
    if ! sha=$(git rev-parse --verify --quiet "$rev^{commit}"); then
        echo "ci.sh --pairs: not a revision: $rev" >&2
        exit 2
    fi
    if [[ ! $n =~ ^[1-9][0-9]*$ || ! $seed =~ ^[0-9]+$ || -z $workload ]]; then
        echo "usage: ./ci.sh --pairs <rev> <workload> <n> [first-seed]" >&2
        exit 2
    fi
    dir=target/pairs/${sha:0:12}
    if [[ ! -d $dir/benchmark ]]; then
        mkdir -p "$dir"
        git archive "$sha" | tar -x -C "$dir"
    fi
    echo "== building the benchmark at ${sha:0:12} and in the working tree" >&2
    (cd "$dir" && CARGO_TARGET_DIR=target/benchmark cargo build --offline --release --quiet \
        --manifest-path benchmark/Cargo.toml)
    CARGO_TARGET_DIR=target/benchmark cargo build --offline --release --quiet \
        --manifest-path benchmark/Cargo.toml
    rm -rf "$dir/runs" && mkdir -p "$dir/runs"
    local sides=(parent change)
    for ((s = seed; s < seed + n; s++)); do
        # Alternate which side runs first, pair by pair.
        for side in "${sides[@]}"; do
            root=.
            [[ $side == change ]] || root=$dir
            echo "   $workload seed $s: $side" >&2
            (cd "$root" && CARGO_TARGET_DIR=target/benchmark \
                target/benchmark/release/chronorank-benchmark --workload "$workload" \
                --seed "$s" --seconds 10 --trace 0 2> /dev/null) > "$dir/runs/$side-$s.out"
        done
        sides=("${sides[1]}" "${sides[0]}")
    done
    echo
    echo "== $workload, $n pairs, seeds $seed..$((seed + n - 1)): ${sha:0:12} (parent) → working tree (change)"
    local files=()
    for ((s = seed; s < seed + n; s++)); do
        files+=("$dir/runs/parent-$s.out" "$dir/runs/change-$s.out")
    done
    awk "$PAIRS_REPORT" BENCHMARK.json "${files[@]}"
}

if [[ "${1:-}" == "--pairs" ]]; then
    run_pairs "${2:-}" "${3:-}" "${4:-}" "${5:-}"
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
# the workspace run below is what fails the stage. `-o`: under `-q` a line
# can follow another test's progress dot.
tier1_stage() {
    cargo build --release
    PINNED_COUNTS=$(cargo test -q -p chronorank -p chronorank-net --test resident_build_counts \
        --test streaming_build_counts --test obs_counts --test thread_counts --test stab_reads \
        --test leaf_flips --test malformed_inputs --test pool_reads --test paper_claims \
        --test shard_workers -- --nocapture \
        2> /dev/null | grep -o 'pinned:.*' || true)
    PINNED_COUNTS+=$'\n'$(cargo test -q -p chronorank-index --lib a_load_cuts_each_entry_about_once \
        -- --nocapture 2> /dev/null | grep -o 'pinned:.*' || true)
    # Tests wait on events, not time: none may sleep, yield or wait out a
    # socket timeout — in tests/, crates/*/tests, or the unit tests of
    # crates/*/src (each file's test part: the lines NON_TEST_LINES leaves
    # out).
    local waits re='thread::(sleep|yield_now)|set_(read|write)_timeout'
    waits=$(
        grep -rnE "$re" tests crates/*/tests || true
        find crates/*/src -name '*.rs' -print0 | xargs -0 awk -v re="$re" '
            FNR == 1 { cut = 0; pend = 0 }
            '"$TEST_PART"'
            cut && $0 ~ re { print FILENAME ":" FNR ":" $0 }'
    )
    PINNED_COUNTS+="${PINNED_COUNTS:+$'\n'}pinned: sleeps, yields and socket timeouts in tests: $(grep -c . <<< "$waits" || true)"
    if [[ -n $waits ]]; then
        echo "$waits" >&2
        return 1
    fi
    cargo test -q --workspace
}

# The agreement suites prove bit-identical answers with workers querying
# shared snapshots; this stage widens the sweep to W=8 and leaves
# RUST_TEST_THREADS unpinned so test-level and engine-level parallelism
# collide as hard as the host allows.
agreement_w8() {
    CHRONORANK_AGREEMENT_W=8 \
        cargo test --release -q --test serve_agreement --test live_agreement \
        --test columnar_agreement --test net_agreement
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

# benchmark/ is a workspace of its own that tier1 never compiles; this
# is the only stage that notices when a crate change breaks it.
benchmark_smoke() {
    mkdir -p target/benchmark
    benchmark/run.sh --lint
    benchmark/run.sh --quick > target/benchmark/ci-smoke.log
}

stage fmt              cargo fmt --check
stage clippy           cargo clippy --workspace --all-targets -- -D warnings
stage doc              doc_stage
stage tier1            tier1_stage
stage agreement-w8     agreement_w8
stage obs-smoke        obs_smoke
stage paperscale-smoke paperscale_smoke
stage benchmark-smoke  benchmark_smoke

print_timings
print_lines
print_configs
echo "CI OK"
