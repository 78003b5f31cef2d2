#!/usr/bin/env bash
# The repository benchmark in one command (see benchmark/README.md).
#
#   benchmark/run.sh [--reps N] [--seed N] [--out FILE]
#       Full set: N (default 5) untraced reps of every workload, interleaved,
#       plus one traced rep each -> FILE (default
#       benchmark/out/<commit>/results.json).
#   benchmark/run.sh --smoke       trimmed self-test, well under a minute
#   benchmark/run.sh --list        workloads and metrics
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One workload for about S seconds; the last line of stdout is its
#       JSON result.
#
# Builds benchmark/build (RelWithDebInfo) first; build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ ! -f CMakeLists.txt || ! -d src/scenario ]]; then
  echo "run.sh: the repository sources are not next to benchmark/" >&2
  exit 2
fi

build="$here/build"
jobs=$(nproc 2>/dev/null || echo 2)
if (( jobs > 4 )); then jobs=4; fi
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" --target dcc_benchmark -j "$jobs"
} >&2
bench="$build/dcc_benchmark"

commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
dirty=0
if [[ $commit != unknown && -n $(git status --porcelain --untracked-files=no 2>/dev/null) ]]; then
  dirty=1
fi

case "${1:-}" in
  --workload) exec "$bench" run "$@" ;;
  --list) exec "$bench" list ;;
  compare) shift; exec "$bench" compare "$@" ;;
  --smoke)
    "$bench" check-specs
    out="$here/out/smoke/results.json"
    mkdir -p "$(dirname "$out")"
    "$bench" set --smoke --out "$out" --commit "$commit" --dirty "$dirty"
    exec "$bench" compare "$out" "$out" ;;
esac

out="$here/out/$commit/results.json"
mkdir -p "$(dirname "$out")"
exec "$bench" set --out "$out" --commit "$commit" --dirty "$dirty" "$@"
