#!/usr/bin/env bash
# Build the harness (release, offline) and run it. Arguments pass through:
#   run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#          [--resources N] [--out FILE]
#   run.sh compare A.jsonl B.jsonl
#   run.sh fidelity
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (the driver's) is relative to the caller's
# directory, which this script never leaves.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export CLOUDLESS_BENCH_HOME="$here"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/cloudless-benchmark" "$@"
