#!/usr/bin/env bash
# Measure which serving code real traffic reaches: build coverage-instrumented
# binaries, drive them with the three perfbench workloads (seed 3) and the
# three smoke scripts, merge the profiles and print every function of the
# serving packages (distrib, service, httpserver, obs, textio, memo) that no
# run reached. It measures and gates nothing, so it stays out of CI.
#
#   scripts/traffic_coverage.sh [SECONDS]   # seconds per workload, default 5
#
# Builds, profiles and logs stay under .bench_build/coverage.
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-5}"
OUT="$PWD/.bench_build/coverage"
rm -rf "$OUT"
mkdir -p "$OUT/bin" "$OUT/profiles"
export GOCOVERDIR="$OUT/profiles"
COVER=(-cover -coverpkg=./...)

go build "${COVER[@]}" -o "$OUT/bin/cpgserve" ./cmd/cpgserve
# perfbench is its own module: its coordinator (the sweep workload) runs the
# repro packages in its own process, so they are instrumented there too.
GOFLAGS= GOWORK=off go -C perfbench build -cover -coverpkg=repro/... -o "$OUT/bin/perfbench" .
for W in schedule-cold schedule-edit sweep; do
  "$OUT/bin/perfbench" -root "$PWD" -out "$OUT" -workload "$W" -seed 3 \
    -seconds "$DURATION" > "$OUT/perfbench-$W.log"
done
# The smoke scripts build their own binaries; GOFLAGS instruments them, and
# each script waits for its servers to exit, so every profile is written.
for S in serve_smoke sweep_smoke sweep_chaos; do
  GOFLAGS="${COVER[*]}" "scripts/$S.sh" > "$OUT/$S.log" 2>&1
done

PKGS='^repro/internal/(distrib|service|httpserver|obs|textio|memo)/'
go tool covdata textfmt -i="$GOCOVERDIR" -o "$OUT/profile.txt"
grep -E "^mode:|$PKGS" "$OUT/profile.txt" > "$OUT/serving.txt"
go tool cover -func="$OUT/serving.txt" | grep -E "$PKGS" > "$OUT/func.txt"
echo "serving functions no run reached (of $(wc -l < "$OUT/func.txt")):"
awk '$NF == "0.0%" { sub(/^repro\/internal\//, "", $1); print "  " $1 " " $2 }' "$OUT/func.txt"
