#!/usr/bin/env bash
# Run `cloudless lint` over the shipped HCL corpus (examples + the paper's
# Figure 2 fixture), and `cloudless validate` over its root programs (the
# module examples need their library, so they are linted only), and compare
# against the committed empty-findings snapshot. Any new finding — or any
# change to the clean output — fails CI.
set -euo pipefail

snapshot=${1:-.lint_clean_snapshot.txt}
fresh=${2:-/tmp/lint_clean_fresh.txt}

corpus=(
  examples/hcl/quickstart.tf
  examples/hcl/web_stack.tf
  examples/hcl/multicloud.tf
  examples/hcl/network_module.tf
  crates/hcl/tests/figure2/figure2.tf
  examples/hcl/fleet.tf
  examples/hcl/fleet_ids.tf
)
roots=(
  examples/hcl/quickstart.tf
  examples/hcl/web_stack.tf
  crates/hcl/tests/figure2/figure2.tf
  examples/hcl/fleet.tf
  examples/hcl/fleet_ids.tf
)

cargo build --quiet --release -p cloudless-cli

: > "$fresh"
for f in "${corpus[@]}"; do
  echo "== $f" >> "$fresh"
  ./target/release/cloudless lint "$f" >> "$fresh"
done
for f in "${roots[@]}"; do
  echo "== validate $f" >> "$fresh"
  ./target/release/cloudless validate "$f" >> "$fresh"
done

if diff -u "$snapshot" "$fresh"; then
  echo "lint corpus is clean and matches $snapshot"
else
  echo "lint output diverged from $snapshot — fix the findings or regenerate with:" >&2
  echo "  ./scripts/check_lint_clean.sh $snapshot $snapshot" >&2
  exit 1
fi
