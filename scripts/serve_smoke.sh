#!/usr/bin/env bash
# Smoke-test the cpgserve HTTP server end to end, in two phases.
#
# Phase 1 (correctness): build and start cpgserve, wait for /healthz, POST the
# Figure 1 problem document twice, and verify that (1) the served schedule
# table is byte-identical to the golden table of testdata/figure1_golden.txt
# and (2) the second identical request is answered from the memo cache
# (observable in the response's cache counters).
#
# Phase 2 (observability + overload): start a second instance with a single
# worker and -limit-heavy 1, launch a large sweep to occupy the one heavy
# slot, and while it runs:
#   - scrape /metrics mid-sweep and require the core metric families plus a
#     well-formed Prometheus text exposition;
#   - POST a second sweep and require it to be shed with 429 (never a 5xx),
#     a Retry-After header and the JSON error envelope;
#   - POST the Figure 1 document and require the golden table byte-identical
#     even while the server is shedding heavy load.
# After the sweep completes, the final scrape must show the shed counted and
# the in-flight gauges and the lent worker tokens back at zero.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${CPGSERVE_PORT:-8377}"
# One temp root holds the binary and every output; the EXIT trap stops the
# running server, waits until it has exited and removes the root.
TMP="$(mktemp -d)"
PID=""
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT
BIN="$TMP/cpgserve"
OUT="$TMP/out"
mkdir "$OUT"
go build -o "$BIN" ./cmd/cpgserve
"$BIN" -addr "$ADDR" &
PID=$!

for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
curl -fsS "http://$ADDR/healthz" |
  python3 -c 'import json,sys; sys.exit(0 if json.load(sys.stdin)["status"] == "ok" else "healthz status is not ok")'

curl -fsS -X POST --data-binary @testdata/figure1_v1.json \
  "http://$ADDR/v1/schedule" > "$OUT/sol1.json"
curl -fsS -X POST --data-binary @testdata/figure1_v1.json \
  "http://$ADDR/v1/schedule" > "$OUT/sol2.json"

OUT="$OUT" python3 - <<'PY'
import json, os, sys

out = os.environ["OUT"]
sol1 = json.load(open(out + "/sol1.json"))
sol2 = json.load(open(out + "/sol2.json"))

# The golden fingerprint is the rendered table followed by the delay
# summary; everything before the "deltaM=" line is the table itself.
golden = open("testdata/figure1_golden.txt").read()
table = golden.split("deltaM=")[0]

if sol1["tableText"] != table:
    sys.exit("served table differs from testdata/figure1_golden.txt")
if sol1["cache"]["hit"]:
    sys.exit("first request must miss the cache")
if not sol2["cache"]["hit"]:
    sys.exit("second identical request must hit the cache")
if sol2["tableText"] != sol1["tableText"]:
    sys.exit("cached solution differs from the computed one")
print("serve smoke OK: table matches golden, second request served from cache")
PY

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

# ---------------------------------------------------------------------------
# Phase 2: /metrics mid-sweep + deterministic overload shedding.
# One worker makes the big sweep slow enough to scrape mid-flight, and
# -limit-heavy 1 means the second concurrent sweep MUST be shed.
ADDR2="127.0.0.1:${CPGSERVE_OVERLOAD_PORT:-8380}"
"$BIN" -addr "$ADDR2" -workers 1 -limit-heavy 1 &
PID="$!"

for _ in $(seq 1 50); do
  if curl -fsS "http://$ADDR2/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

# A single 500-node/16-path cell with 20 graphs runs for roughly a second on
# one worker: a wide, reliable window to observe it in flight.
cat > "$OUT/sweep_big.json" <<'JSON'
{
  "version": "v1",
  "nodes": [500],
  "paths": [16],
  "graphsPerCell": 20,
  "seed": 7,
  "shardIndex": 0,
  "shardCount": 1
}
JSON

curl -fsS -X POST --data-binary @"$OUT/sweep_big.json" \
  "http://$ADDR2/v1/sweep" > "$OUT/sweep_big_out.ndjson" &
SWEEP_PID=$!

# Scrape /metrics until the sweep is visibly in flight.
IN_FLIGHT=0
for _ in $(seq 1 100); do
  curl -fsS "http://$ADDR2/metrics" > "$OUT/metrics_mid.txt" || true
  if grep -q 'cpg_http_in_flight{class="heavy"} 1' "$OUT/metrics_mid.txt"; then
    IN_FLIGHT=1
    break
  fi
  sleep 0.02
done
if [ "$IN_FLIGHT" != 1 ]; then
  echo "serve smoke FAILED: never observed the sweep in flight on /metrics" >&2
  exit 1
fi

# Mid-sweep exposition: core families present and the text format well-formed.
OUT="$OUT" python3 - <<'PY'
import os, re, sys

text = open(os.environ["OUT"] + "/metrics_mid.txt").read()
for family in [
    "cpg_http_requests_total",
    "cpg_http_request_duration_seconds",
    "cpg_http_in_flight",
    "cpg_http_shed_total",
    "cpg_http_uptime_seconds",
    "cpg_service_requests_total",
    "cpg_service_memo_hits_total",
    "cpg_service_worker_budget",
    "cpg_service_workers_busy",
]:
    if f"# TYPE {family} " not in text:
        sys.exit(f"mid-sweep /metrics is missing family {family}")

sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE+.-]*$')
for line in text.splitlines():
    if not line or line.startswith("#"):
        continue
    if not sample.match(line):
        sys.exit(f"malformed exposition line: {line!r}")
print("serve smoke OK: /metrics answered mid-sweep with all core families")
PY

# The heavy slot is occupied: a second sweep must be shed with 429 — never a
# 5xx — carrying Retry-After and the JSON error envelope.
SHED_CODE=$(curl -sS -o "$OUT/shed_body.json" -D "$OUT/shed_headers.txt" \
  -w '%{http_code}' -X POST --data-binary @"$OUT/sweep_big.json" \
  "http://$ADDR2/v1/sweep")
if [ "$SHED_CODE" != 429 ]; then
  echo "serve smoke FAILED: overloaded sweep returned $SHED_CODE, want 429" >&2
  exit 1
fi
grep -qi '^Retry-After: [0-9]' "$OUT/shed_headers.txt" || {
  echo "serve smoke FAILED: 429 response has no Retry-After header" >&2
  exit 1
}
python3 -c 'import json,sys; d=json.load(open(sys.argv[1])); sys.exit(0 if d["error"]["status"]==429 and d["error"]["message"] else "bad envelope")' \
  "$OUT/shed_body.json"

# Light endpoints are untouched by heavy-class shedding: the golden table is
# still byte-identical while the sweep runs and sheds.
curl -fsS -X POST --data-binary @testdata/figure1_v1.json \
  "http://$ADDR2/v1/schedule" > "$OUT/sol_overload.json"
OUT="$OUT" python3 - <<'PY'
import json, os, sys

sol = json.load(open(os.environ["OUT"] + "/sol_overload.json"))
table = open("testdata/figure1_golden.txt").read().split("deltaM=")[0]
if sol["tableText"] != table:
    sys.exit("table served under overload differs from testdata/figure1_golden.txt")
print("serve smoke OK: golden table byte-identical while shedding heavy load")
PY

# The occupying sweep itself must complete cleanly.
wait "$SWEEP_PID" || {
  echo "serve smoke FAILED: the in-flight sweep did not complete with 200" >&2
  exit 1
}
# Its response is the NDJSON frame stream: a header, 20 graph frames and a
# summary, both announcing 20 graphs.
python3 - "$OUT/sweep_big_out.ndjson" <<'PY'
import json, sys
frames = [json.loads(line) for line in open(sys.argv[1])]
kinds = [f["frame"] for f in frames]
if kinds != ["header"] + ["graph"] * 20 + ["summary"]:
    sys.exit(f"occupying sweep streamed frames {kinds}, want a header, 20 graphs and a summary")
if frames[0]["header"]["graphs"] != 20 or frames[-1]["summary"]["graphs"] != 20:
    sys.exit("occupying sweep stream does not announce and summarize 20 graphs")
PY

# Settled state: the shed was counted and every in-flight gauge is back to 0.
curl -fsS "http://$ADDR2/metrics" > "$OUT/metrics_after.txt"
grep -q 'cpg_http_shed_total{class="heavy",reason="overload"} 1' "$OUT/metrics_after.txt" || {
  echo "serve smoke FAILED: shed not counted in cpg_http_shed_total" >&2
  exit 1
}
grep -q 'cpg_http_in_flight{class="heavy"} 0' "$OUT/metrics_after.txt" || {
  echo "serve smoke FAILED: heavy in-flight gauge did not return to 0" >&2
  exit 1
}
grep -q 'cpg_http_in_flight{class="light"} 0' "$OUT/metrics_after.txt" || {
  echo "serve smoke FAILED: light in-flight gauge did not return to 0" >&2
  exit 1
}
# Every response is sent after its tokens are back, so none may be lent out.
grep -qx 'cpg_service_workers_busy 0' "$OUT/metrics_after.txt" || {
  echo "serve smoke FAILED: worker tokens still lent out after the requests finished" >&2
  exit 1
}
echo "serve smoke OK: sheds were 429 (never 5xx), gauges settled, sweep completed"
