#!/usr/bin/env bash
# Guard the perf trajectory: re-measure the E14 scale experiment on this
# host and fail if any stage regressed more than the tolerance versus the
# committed baseline.
#
# Wall-clock numbers are host-dependent, so this check measures BOTH sides
# on the same machine when possible: the committed BENCH_pr.json is the
# candidate, and BENCH_baseline.json is the reference the previous PR
# committed. A fresh measurement (--fresh) re-runs the smoke tier locally
# and compares it against the committed baseline instead, which is what CI
# does — same host for measure and compare, so the 20% tolerance is
# meaningful.
#
# `exp_scale --compare` also holds the candidate to E16's own gates
# (`e16_replan::speedup_gates`): the block-edit replan's speedup floors over
# the cold front end, and a first-layer edit replanning within 2x of a
# last-layer one — a ratio of two measurements of one run, so host-independent.
#
# Usage:
#   scripts/check_bench.sh            # committed pr vs committed baseline
#   scripts/check_bench.sh --fresh    # fresh full-tier run vs baseline
set -euo pipefail

baseline=${BENCH_BASELINE:-BENCH_baseline.json}
candidate=${BENCH_PR:-BENCH_pr.json}
tolerance=${BENCH_TOLERANCE:-0.2}

if [[ "${1:-}" == "--fresh" ]]; then
  candidate=/tmp/BENCH_fresh.json
  cargo run --release -p cloudless-bench --bin exp_scale -- \
    --tier full --out "$candidate"
  # E17: state-store vs legacy comparators, folded into the same report
  # (smoke tier — the absolute 10x floors are size-independent; the full
  # 1M-resource tier is the committed BENCH_pr.json's job)
  cargo run --release -p cloudless-bench --bin exp_state -- \
    --tier smoke --attach "$candidate"
  # E18: analyzer wall time vs the plan stage, folded into the same report
  # and gated at 2x immediately (the bound is a same-host ratio)
  cargo run --release -p cloudless-bench --bin exp_concurrency -- \
    --tier smoke --attach "$candidate" --check
fi

cargo run --release -p cloudless-bench --bin exp_scale -- \
  --compare "$baseline" "$candidate" --tolerance "$tolerance"
