#!/usr/bin/env bash
# Compare fresh `exp all` output against the committed snapshot.
#
# Every experiment table is seeded and virtual-clock deterministic EXCEPT
# the E3 lock tables, which time real OS threads and are therefore
# machine-dependent. Mask the numeric cells of the E3 section on both
# sides before diffing; everything else must match byte-for-byte.
set -euo pipefail

snapshot=${1:-.exp_all_snapshot.txt}
fresh=${2:-/tmp/exp_all_fresh.txt}

mask() {
  awk '
    /^## E3/ { e3 = 1 }
    /^## E4/ { e3 = 0 }
    e3 && /^\|/ { gsub(/[0-9]+(\.[0-9]+)?/, "#"); gsub(/[ -]+/, " ") }
    { print }
  ' "$1"
}

if diff -u <(mask "$snapshot") <(mask "$fresh"); then
  echo "exp all output matches $snapshot"
else
  echo "exp all output diverged from $snapshot — regenerate it with:" >&2
  echo "  cargo run --release -p cloudless-bench --bin exp all > $snapshot" >&2
  exit 1
fi
