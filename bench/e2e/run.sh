#!/usr/bin/env bash
# End-to-end benchmark for JanusEDA (README.md in this directory).
#
# Builds the benchmark and the janus library from this checkout into
# build-bench/ at the repository root, then:
#
#   run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#          [--trace-out FILE] [--smoke]
#       One run of one workload, or of all five without --workload.
#   run.sh --sets 2 --runs 5 [--seconds S] [--workload W]... [--trace 0|1]
#          [--seed-base N] [--out FILE] [--append]
#       Repeated runs: median and quartiles per set, spread and drift
#       against the bounds in BENCHMARK.json.
#   run.sh compare PARENT.json CHANGE.json
#       Verdict per workload and end-to-end metric: improved, unchanged,
#       worse or unresolved.
#
# Build output goes to stderr; stdout carries only results.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"

if [[ "${1:-}" == compare ]]; then
  shift
  exec python3 "$here/stats.py" compare "$@"
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j4 >&2

for arg in "$@"; do
  if [[ "$arg" == --sets || "$arg" == --runs ]]; then
    exec python3 "$here/stats.py" sets --bin "$build/janus_bench" "$@"
  fi
done
exec "$build/janus_bench" "$@"
