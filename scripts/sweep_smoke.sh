#!/usr/bin/env bash
# Smoke-test the distributed sweep end to end: build cpgserve and cpgexper,
# start TWO local cpgserve instances, and produce the golden mini-sweep by
# three independent routes: (1) in a single process, (2) sharded 3 ways
# across both servers, streamed graph by graph, and (3) offline, each of the
# 3 shards written to its own NDJSON file with -shard i/3 and recombined with
# -merge. All three CSVs must be byte-identical to the golden file
# testdata/sweep_golden.csv.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR_A="127.0.0.1:${CPGSWEEP_PORT_A:-8378}"
ADDR_B="127.0.0.1:${CPGSWEEP_PORT_B:-8379}"
# One temp root holds the binaries and every output; the EXIT trap stops
# the servers, waits until they have exited and removes the root.
TMP="$(mktemp -d)"
PID_A="" PID_B=""
trap 'kill "$PID_A" "$PID_B" 2>/dev/null || true; wait "$PID_A" "$PID_B" 2>/dev/null || true; rm -rf "$TMP"' EXIT
BIN="$TMP/bin"
OUT="$TMP/out"
mkdir "$BIN" "$OUT"
go build -o "$BIN/cpgserve" ./cmd/cpgserve
go build -o "$BIN/cpgexper" ./cmd/cpgexper

"$BIN/cpgserve" -addr "$ADDR_A" -workers 2 &
PID_A=$!
"$BIN/cpgserve" -addr "$ADDR_B" -workers 2 &
PID_B=$!

for ADDR in "$ADDR_A" "$ADDR_B"; do
  for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  curl -fsS "http://$ADDR/healthz" |
    python3 -c 'import json,sys; sys.exit(0 if json.load(sys.stdin)["status"] == "ok" else "healthz status is not ok")'
done

SWEEP_FLAGS=(-exp sweep -nodes 60,80 -paths 10,12 -graphs 3 -seed 7 -zero-times -progress=false)

"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" > "$OUT/single.csv"
"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shards 3 \
  -remote "http://$ADDR_A,http://$ADDR_B" > "$OUT/sharded.csv"
for I in 0 1 2; do
  "$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shard "$I/3" > "$OUT/shard$I.ndjson"
done
"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" \
  -merge "$OUT/shard0.ndjson,$OUT/shard1.ndjson,$OUT/shard2.ndjson" > "$OUT/offline.csv"

for LEG in single sharded offline; do
  diff -u testdata/sweep_golden.csv "$OUT/$LEG.csv" || {
    echo "sweep smoke FAILED: $LEG CSV differs from testdata/sweep_golden.csv" >&2
    exit 1
  }
done
echo "sweep smoke OK: single-process, 3-shard 2-server and offline -shard/-merge sweep CSVs are byte-identical to the golden file"
