#!/bin/sh
# Smoke test: every figure/table bench binary must run to completion with a
# tiny case count and produce a table. Invoked by CTest with the build's
# bench directory as $1.
set -eu

BENCH_DIR="$1"
failures=0

for bench in "$BENCH_DIR"/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  case "$name" in
    tbl_exec_time)
      # google-benchmark binary: run one quick repetition.
      if ! "$bench" --benchmark_min_time=0.01 --benchmark_filter='bounds' \
          > /dev/null 2>&1; then
        echo "FAILED: $name" >&2
        failures=$((failures + 1))
      fi
      continue
      ;;
    # All three grid sizes with more than one engine job, so the parallel
    # ablation checks parallel schedules against serial ones.
    perf_engine) args="--cases=1 --engine-jobs=8 --out=/dev/null" ;;
    # perf_scale's default tiers are the ones that finish (well under a
    # second); xlarge and huge run only when named.
    perf_scale) args="--out=/dev/null" ;;
    *) args="--cases=1" ;;
  esac
  # shellcheck disable=SC2086  # args is a word list
  out="$("$bench" $args 2>&1)" || {
    echo "FAILED: $name" >&2
    echo "$out" >&2
    failures=$((failures + 1))
    continue
  }
  # Every table bench prints at least one pipe-framed row.
  echo "$out" | grep -q '|' || {
    echo "FAILED (no table): $name" >&2
    failures=$((failures + 1))
  }
done

[ "$failures" -eq 0 ] && echo "bench smoke test passed"
exit "$failures"
