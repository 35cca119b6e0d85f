#!/usr/bin/env bash
# Builds the benchmark (perfbench) and cpgserve from the checkout this is run in,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload schedule-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache and
# the per-run logs and span files stay under $CARGO_TARGET_DIR (default
# .bench_build), so the benchmark reads and writes only inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
  XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go -C perfbench build -o "$out/bin/perfbench" .
go build -o "$out/bin/cpgserve" ./cmd/cpgserve

exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
