#!/usr/bin/env bash
# Does the ruler agree with itself? Runs the full benchmark twice on seed
# 42 and once on seed 43, compares every end-to-end metric of the two
# same-seed sets against the bounds in BENCHMARK.json, and exits nonzero
# on disagreement. `--spread N` instead runs N seeds per workload and
# reports each metric's interquartile range over its median.
# The output is markdown; benchmark/CALIBRATION.md is a committed copy.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --selfcheck "$@"
