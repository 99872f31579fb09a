#!/usr/bin/env bash
# End-to-end smoke for `cloudless watch`: spawn the watcher on a tiny
# program, save the file seven times — three attribute edits, a third
# resource block appended, the same block deleted again, a hostile save
# (900 kB of `"${`, which nests a recursive reader to death), the program
# again — and assert every replan of a program took the incremental path
# (the printed ChangeTrace leads with "pipeline: incremental"), the plan
# stage re-planned a dependent exactly when the edit turned its dependency
# into a replacement, the append planned exactly one create, and the hostile
# save got a diagnostic from a watcher that kept polling. The first event is
# the initial read, warm from the memo image the apply wrote beside the
# log: the apply settled its plan, so it re-plans no instance. Every event
# but the hostile save's is incremental.
set -euo pipefail

out=${1:-/tmp/watch_smoke_out.txt}

cargo build --quiet --release -p cloudless-cli
bin=./target/release/cloudless

work=$(mktemp -d)
pid=""
cleanup() {
  [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

"$bin" init "$work/session"
cat > "$work/main.tf" <<'EOF'
resource "aws_s3_bucket" "logs" {
  bucket = "watch-logs"
}

resource "aws_virtual_machine" "web" {
  name = "watch-web"
  depends_on = [aws_s3_bucket.logs]
}
EOF

# the estate is deployed, so each plan below is the edit's alone
"$bin" apply "$work/session" "$work/main.tf" > /dev/null

# event 1: initial read (from the memo image). events 2 to 8: the saves
# below.
"$bin" watch "$work/session" "$work/main.tf" --poll-ms 50 --max-events 8 > "$out" 2>&1 &
pid=$!

sleep 1
sed -i 's/watch-web/watch-web-2/' "$work/main.tf"
sleep 1
# `web` depends on `logs`. A bucket's name forces a new one: `logs` turns
# from kept to replaced, which `web`'s plan reads, so `web` is re-planned
sed -i 's/watch-logs/watch-logs-2/' "$work/main.tf"
sleep 1
# its acl updates in place: `logs` is replaced as before, `web` is not reached
sed -i 's/  bucket = "watch-logs-2"/&\n  acl = "private"/' "$work/main.tf"
sleep 1
# (saved by rename, as `sed -i` does: the watcher never reads half a file)
cp "$work/main.tf" "$work/two-blocks.tf"
cat "$work/main.tf" - > "$work/three-blocks.tf" <<'EOF'

resource "aws_s3_bucket" "assets" {
  bucket = "watch-assets"
}
EOF
mv "$work/three-blocks.tf" "$work/main.tf"
sleep 1
cp "$work/two-blocks.tf" "$work/again.tf"
mv "$work/two-blocks.tf" "$work/main.tf"
sleep 1
# a machine-written save gone wrong: the watcher refuses it and lives
head -c 900000 < <(yes '"${' | tr -d '\n') > "$work/hostile.tf"
mv "$work/hostile.tf" "$work/main.tf"
sleep 1
mv "$work/again.tf" "$work/main.tf"

fail() {
  echo "watch smoke FAILED: $1" >&2
  cat "$out" >&2
  exit 1
}

# the watcher exits on its own after 8 events; bound the wait at ~20s
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$pid" 2>/dev/null; then
  fail "watcher did not exit after 8 events"
fi
wait "$pid" || { pid=""; fail "the watcher died"; }
pid=""

events=$(grep -c -- "--- event" "$out" || true)
incremental=$(grep -c "pipeline: incremental" "$out" || true)
if [[ "$events" -ne 8 || "$incremental" -ne 7 ]]; then
  fail "$events events, $incremental incremental replans (want 8 events, 7 incremental)"
fi
event() { awk -v from="--- event $1" -v to="--- event $(($1 + 1))" '$0 ~ from{on=1} $0 ~ to{on=0} on' "$out"; }
event 1 | grep -q "re-planned 0/2 instance" || fail "the first read re-planned what the apply wrote"
# events 3 and 4 are the two sides of the plan stage's cutoff
event 3 | grep -q "re-planned 2/2 instance" || fail "the replaced bucket's dependent was not re-planned"
event 4 | grep -q "re-planned 1/2 instance" || fail "an in-place edit re-planned more than its block"
# event 5 is the append: one block spliced in, one resource to create
append=$(event 5)
grep -q "+1 inserted, −0 removed" <<<"$append" || fail "the append did not splice one block in"
creates=$(grep -E '^ +\+ ' <<<"$append" || true)
[[ "$creates" == "  + aws_s3_bucket.assets" ]] || fail "the append did not plan one create"
event 6 | grep -q "+0 inserted, −1 removed" || fail "the delete did not splice one block out"
# event 7 is the hostile save: refused with a position, and a short excerpt
hostile=$(event 7)
grep -q "error\[HCL001\] main.tf:1:1: " <<<"$hostile" || fail "the hostile save got no diagnostic"
[[ ${#hostile} -lt 4000 ]] || fail "the hostile save's diagnostic is ${#hostile} bytes"
echo "watch smoke ok: $events events, $incremental incremental replans, one block in and out, one hostile save refused"
