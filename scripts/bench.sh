#!/usr/bin/env bash
# Runs the performance-tracking benchmark suite and writes BENCH_results.json
# at the repository root. Override the selection or duration via BENCH /
# BENCHTIME, and attach a free-text note (e.g. a before/after comparison) via
# NOTE:
#
#   scripts/bench.sh
#   BENCHTIME=3s NOTE="after heap scheduler" scripts/bench.sh
#
# The benchmark text output is echoed to stderr so it stays visible while
# stdout feeds the JSON converter. Fails loudly: pipefail propagates a
# benchmark failure instead of silently writing a truncated JSON file, the
# result goes through a temp file so BENCH_results.json is never partial, and
# the Go toolchain must match the version pinned in go.mod so numbers stay
# comparable across runs.
#
# Earlier versions clobbered the previous snapshot on every run, losing the
# performance trajectory. Now the outgoing BENCH_results.json is archived
# under BENCH_history/ (named by its own recorded date) before the new file
# lands, and the new numbers are diffed against it: benchjson -prev warns on
# stderr about any benchmark whose ns/op regressed by more than 20%, without
# failing the run.
set -euo pipefail
cd "$(dirname "$0")/.."

want_go=$(sed -n 's/^go \([0-9][0-9.]*\).*/\1/p' go.mod)
have_go=$(go env GOVERSION)
case "$have_go" in
go"$want_go" | go"$want_go".*) ;;
*)
  echo "bench.sh: toolchain $have_go does not match go.mod (go $want_go); refusing to record benchmarks" >&2
  exit 1
  ;;
esac

BENCH="${BENCH:-BenchmarkTable1Figure1|BenchmarkFig6MergeTime|BenchmarkScheduleRunParallel|BenchmarkScheduleParallelPaths|BenchmarkListSchedule120|BenchmarkListschedInner|BenchmarkValidate|BenchmarkFig5Sweep|BenchmarkStrategies|BenchmarkTabuInner|BenchmarkScheduleUninstrumented|BenchmarkScheduleInstrumented|BenchmarkMiddlewareOnly|BenchmarkMetricsScrape|BenchmarkCubeOps|BenchmarkSolutionCodec|BenchmarkScheduleMiss|BenchmarkGenerate|BenchmarkDecodeProblem|BenchmarkReadProblem}"
BENCHTIME="${BENCHTIME:-1s}"
NOTE="${NOTE:-}"

prev_args=()
if [ -f BENCH_results.json ]; then
  prev_args=(-prev BENCH_results.json)
fi

tmp=$(mktemp BENCH_results.json.XXXXXX)
trap 'rm -f "$tmp"' EXIT

go test -run=NONE -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . ./internal/httpserver \
  | tee /dev/stderr \
  | go run ./cmd/benchjson -note "$NOTE" ${prev_args[@]+"${prev_args[@]}"} >"$tmp"

# Archive the outgoing snapshot before replacing it, keyed by the date it
# records (falling back to mtime if the date field is unreadable), so the
# trajectory of committed runs survives in BENCH_history/.
if [ -f BENCH_results.json ]; then
  stamp=$(sed -n 's/^  "date": "\([^"]*\)".*/\1/p' BENCH_results.json | head -n1 | tr -d ':')
  if [ -z "$stamp" ]; then
    stamp=$(date -u -r BENCH_results.json +%Y-%m-%dT%H%M%SZ)
  fi
  mkdir -p BENCH_history
  cp BENCH_results.json "BENCH_history/BENCH_${stamp}.json"
  echo "archived previous snapshot to BENCH_history/BENCH_${stamp}.json" >&2
fi

mv "$tmp" BENCH_results.json
trap - EXIT
echo "wrote BENCH_results.json" >&2
