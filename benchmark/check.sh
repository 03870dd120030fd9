#!/usr/bin/env bash
# The one script a CI job can call: offline build, `list`, a smoke pass of
# every workload (2 s windows, at least 2 passes) in both the end-to-end and
# the traced form with the correctness gate on, and the unit tests, which
# include the cross-check of the printed names against BENCHMARK.json.
# Any failed delivery check, missing metric or failing test exits non-zero.
set -euo pipefail
cd "$(dirname "$0")"

run() { cargo run --release --offline --quiet -- "$@"; }

cargo build --release --offline
run list

workloads=$(run list | awk '/^workloads:/{w=1;next} /^[a-z]/{w=0} w{print $1}')
[ -n "$workloads" ] || { echo "check.sh: list printed no workloads" >&2; exit 1; }
for w in $workloads; do
  for trace in 0 1; do
    echo "== smoke: $w --trace $trace" >&2
    run --workload "$w" --seed 1 --seconds 2 --trace "$trace" | tail -n 1
  done
done

cargo test --release --offline
echo "check.sh: ok" >&2
