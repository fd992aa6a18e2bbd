#!/bin/sh
# Every committed BENCH_*.json baseline must be a real record: each one is
# diffed against itself with datastage_benchdiff, and the check fails on any
# nonzero exit (2 = missing, empty or malformed file) or when a file holds no
# numeric metric at all. The four benches CI diffs must all have a baseline.
# Invoked by CTest with the build's tools directory as $1 and the directory
# holding the baselines (the repository root) as $2.
set -eu

TOOLS_DIR="$1"
BASELINE_DIR="$2"
failures=0

for name in engine faults scale serve; do
  if [ ! -f "$BASELINE_DIR/BENCH_$name.json" ]; then
    echo "FAILED: missing baseline BENCH_$name.json" >&2
    failures=$((failures + 1))
  fi
done

for file in "$BASELINE_DIR"/BENCH_*.json; do
  [ -f "$file" ] || continue
  status=0
  out="$("$TOOLS_DIR/datastage_benchdiff" "$file" "$file" 2>&1)" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAILED (benchdiff exit $status): $file" >&2
    echo "$out" >&2
    failures=$((failures + 1))
  elif echo "$out" | grep -q '^benchdiff: 0 shared metrics'; then
    echo "FAILED (no metrics): $file" >&2
    failures=$((failures + 1))
  fi
done

[ "$failures" -eq 0 ] && echo "bench baselines check passed"
exit "$failures"
