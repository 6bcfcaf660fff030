#!/usr/bin/env bash
# run.sh — build gs_bench (Release) and run the wall-clock benchmark.
#
#   bench/e2e/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       One run of one workload. The last stdout line is the JSON result
#       {"correct", "attempted", "failed", "metrics"}; exit 1 on any failed
#       check, solve or job.
#   bench/e2e/run.sh [--sets K] [--runs R] [--seconds S] [--out FILE]
#       Every workload, each run in its own process, R seeds per workload
#       (default 10), untraced then one traced run; prints
#       `workload metric value unit` lines and writes/extends FILE (default
#       .bench_build/e2e-results.json). --sets 2 repeats the whole benchmark
#       and reports per metric and workload whether the sets agree within the
#       BENCHMARK.json bounds.
#   bench/e2e/run.sh --compare <parent.json> <change.json>
#       Gain/regression verdicts from two result files (see README.md).
#   bench/e2e/run.sh --probe | --smoke
#       The layer probe pass alone, or every workload at toy sizes.
#
# Build and scratch files stay under .bench_build/ at the repository root.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
WORK="$ROOT/.bench_build"
BUILD="$WORK/e2e"

die() {
  echo "run.sh: $*" >&2
  exit 2
}

if [[ "${1:-}" == "--compare" ]]; then
  [[ $# -eq 3 ]] || die "usage: run.sh --compare <parent.json> <change.json>"
  exec python3 "$HERE/report.py" compare "$ROOT/BENCHMARK.json" "$2" "$3"
fi

[[ -f "$ROOT/src/obs/span.hpp" ]] ||
  die "library sources not found under $ROOT/src; run from a full checkout"

# Refuse to time a tree configured as anything but Release; gs_bench itself
# refuses sanitizer builds.
if [[ -f "$BUILD/CMakeCache.txt" ]] &&
   ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "$BUILD/CMakeCache.txt"; then
  die "$BUILD is not a Release tree; remove it"
fi

mkdir -p "$WORK/tmp" "$WORK/out"
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4
{
  cmake -S "$HERE" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" --target gs_bench -j "$jobs"
} >"$WORK/build.log" 2>&1 || {
  tail -n 40 "$WORK/build.log" >&2
  die "build failed (log: $WORK/build.log)"
}

export TMPDIR="$WORK/tmp"  # spill files of the solves and probes
BENCH="$BUILD/gs_bench"

for arg in "$@"; do
  if [[ "$arg" == "--workload" || "$arg" == "--probe" || "$arg" == "--smoke" ]]; then
    exec "$BENCH" --out "$WORK/out" "$@"
  fi
done

commit=$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)
exec python3 "$HERE/report.py" suite --bench "$BENCH" --commit "$commit" \
  --benchmark-json "$ROOT/BENCHMARK.json" --trace-dir "$WORK/out" \
  --default-out "$WORK/e2e-results.json" "$@"
