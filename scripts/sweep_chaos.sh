#!/usr/bin/env bash
# Chaos smoke for the fault-tolerant sweep fleet, end to end over real
# processes. A fault may cost whole shards, never a byte of the CSV:
#
#   1. Backend churn: hard-kill one of two cpgserve backends, launch the
#      golden mini-sweep against both once its port refuses, and restart it
#      after the launch. The coordinator must log the failed attempts on the
#      dead backend and their retries, and the merged CSV must still be
#      byte-identical to testdata/sweep_golden.csv. The mini-sweep takes tens
#      of milliseconds, so the backend is killed before the launch: a kill
#      after it would land once the sweep is over and test nothing.
#   2. Coordinator restart: run the sweep with a journal, then replay a
#      coordinator that was killed mid-sweep by deleting two shard files
#      and rerunning the same command — the restart must report reusing the
#      journaled shards, re-dispatch only the missing ones, and reproduce
#      the golden CSV.
#   3. Torn journal file: replay a coordinator killed while writing a shard's
#      journal file — the file holds only the header and the first graph
#      frames (the first lines of a real POST /v1/sweep response, so the
#      journal format is pinned to the wire format). The restart must reuse
#      the 3 complete shards, re-run the torn one whole, rewrite its file
#      complete, and reproduce the golden CSV.
#   4. Stalled backend: SIGSTOP one backend, so it accepts connections but
#      never answers, and run the sweep with -shard-timeout 2s. The attempt
#      on the stopped backend must time out and its shard be retried, and
#      the CSV must be golden.
#
# The deterministic versions of these scenarios live in
# internal/distrib/distribtest; this script checks that the same guarantees
# hold over real sockets and processes.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR_A="127.0.0.1:${CPGCHAOS_PORT_A:-8380}"
ADDR_B="127.0.0.1:${CPGCHAOS_PORT_B:-8381}"
# One temp root holds the binaries, the outputs and the journal; the EXIT
# trap stops the servers (continuing a stopped one, which would otherwise
# never act on the signal), waits until they have exited and removes the root.
TMP="$(mktemp -d)"
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; kill -CONT "${PIDS[@]}" 2>/dev/null || true; wait "${PIDS[@]}" 2>/dev/null || true; rm -rf "$TMP"' EXIT
BIN="$TMP/bin"
OUT="$TMP/out"
JDIR="$TMP/journal"
mkdir "$BIN" "$OUT" "$JDIR"
go build -o "$BIN/cpgserve" ./cmd/cpgserve
go build -o "$BIN/cpgexper" ./cmd/cpgexper

start_backend() { # addr -> the server's pid in PID (a child of this shell)
  "$BIN/cpgserve" -addr "$1" -workers 2 >/dev/null 2>&1 &
  PID=$!
  PIDS+=("$PID")
}

wait_healthy() { # addr
  for _ in $(seq 1 50); do
    if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "chaos smoke FAILED: backend $1 never became healthy" >&2
  exit 1
}

wait_refused() { # addr
  for _ in $(seq 1 50); do
    if ! curl -fsS "http://$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "chaos smoke FAILED: backend $1 still answers after a kill" >&2
  exit 1
}

SWEEP_FLAGS=(-exp sweep -nodes 60,80 -paths 10,12 -graphs 3 -seed 7 -zero-times)

# --- Phase 1: a backend crashes before the sweep and comes back. --------
start_backend "$ADDR_A"
start_backend "$ADDR_B"
wait_healthy "$ADDR_A"
wait_healthy "$ADDR_B"
kill -9 "$PID" # B, with no drain: simulate a crashed process
{ wait "$PID" || true; } 2>/dev/null
wait_refused "$ADDR_B"

"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shards 6 \
  -remote "http://$ADDR_A,http://$ADDR_B" \
  > "$OUT/churn.csv" 2> "$OUT/churn.log" &
EXPER=$!
# B comes back once an attempt on it has failed: restarted any sooner, it
# could be up again before the coordinator first dispatches to it.
for _ in $(seq 1 100); do
  grep -qsF "failed on http://$ADDR_B" "$OUT/churn.log" && break
  sleep 0.05
done
start_backend "$ADDR_B"
PID_B=$PID
if ! wait "$EXPER"; then
  echo "chaos smoke FAILED: sweep did not survive a backend kill+restart" >&2
  sed 's/^/  coordinator: /' "$OUT/churn.log" >&2
  exit 1
fi
diff -u testdata/sweep_golden.csv "$OUT/churn.csv" || {
  echo "chaos smoke FAILED: CSV after backend churn differs from golden" >&2
  exit 1
}
for WANT in "failed on http://$ADDR_B" "retrying in"; do
  grep -qF "$WANT" "$OUT/churn.log" || {
    echo "chaos smoke FAILED: coordinator log lacks \"$WANT\": no attempt failed on the dead backend" >&2
    sed 's/^/  coordinator: /' "$OUT/churn.log" >&2
    exit 1
  }
done

# --- Phase 2: restart the coordinator from its journal. -------------------
"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shards 4 -remote "http://$ADDR_A" \
  -journal "$JDIR" > "$OUT/full.csv" 2> /dev/null
diff -u testdata/sweep_golden.csv "$OUT/full.csv" || {
  echo "chaos smoke FAILED: journaled sweep CSV differs from golden" >&2
  exit 1
}
# Replay a coordinator killed mid-sweep: two shards never made it into the
# journal. The rerun must reuse the other two and re-dispatch only these.
rm "$JDIR"/*/shard-00002-of-00004.ndjson "$JDIR"/*/shard-00003-of-00004.ndjson
"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shards 4 -remote "http://$ADDR_A" \
  -journal "$JDIR" > "$OUT/resumed.csv" 2> "$OUT/resume.log"
grep -q "journal: reusing 2/4" "$OUT/resume.log" || {
  echo "chaos smoke FAILED: restarted coordinator did not resume from the journal" >&2
  sed 's/^/  coordinator: /' "$OUT/resume.log" >&2
  exit 1
}
diff -u testdata/sweep_golden.csv "$OUT/resumed.csv" || {
  echo "chaos smoke FAILED: CSV after coordinator restart differs from golden" >&2
  exit 1
}

# --- Phase 3: coordinator killed mid-write; a torn file is re-run whole. ---
# After phase 2 the journal again holds all 4 shard files. Fabricate a
# coordinator that died while writing shard 1's file: it keeps only the
# header and the first 2 graph frames. Those lines are the first 3 lines of
# the backend's real POST /v1/sweep response, so this also pins that the
# journal format and the wire format stay identical.
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"version":"v1","nodes":[60,80],"paths":[10,12],"graphsPerCell":3,"seed":7,"shardIndex":1,"shardCount":4}' \
  "http://$ADDR_A/v1/sweep" > "$OUT/shard1.ndjson"
GRAPHS="$(head -1 "$OUT/shard1.ndjson" | grep -o '"graphs":[0-9]*' | cut -d: -f2)"
[ "${GRAPHS:-0}" -gt 2 ] || {
  echo "chaos smoke FAILED: shard 1/4 stream too short to tear meaningfully" >&2
  cat "$OUT/shard1.ndjson" >&2
  exit 1
}
HASHDIRS=("$JDIR"/*/)
SHARD1="${HASHDIRS[0]}shard-00001-of-00004.ndjson"
head -3 "$OUT/shard1.ndjson" > "$SHARD1"
"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shards 4 -remote "http://$ADDR_A" \
  -journal "$JDIR" > "$OUT/torn.csv" 2> "$OUT/torn.log"
for WANT in "journal: reusing 3/4" "shard 1/4 done on http://$ADDR_A ($GRAPHS graphs)"; do
  grep -qF "$WANT" "$OUT/torn.log" || {
    echo "chaos smoke FAILED: coordinator log lacks \"$WANT\": the torn shard was not re-run whole" >&2
    sed 's/^/  coordinator: /' "$OUT/torn.log" >&2
    exit 1
  }
done
if grep -q "partial" "$OUT/torn.log"; then
  echo "chaos smoke FAILED: coordinator reused graphs of a torn journal file" >&2
  sed 's/^/  coordinator: /' "$OUT/torn.log" >&2
  exit 1
fi
tail -1 "$SHARD1" | grep -qF '"frame":"summary"' || {
  echo "chaos smoke FAILED: the torn journal file was not rewritten complete" >&2
  exit 1
}
diff -u testdata/sweep_golden.csv "$OUT/torn.csv" || {
  echo "chaos smoke FAILED: CSV after a torn journal file differs from golden" >&2
  exit 1
}

# --- Phase 4: a stalled backend costs one attempt time limit. --------------
kill -STOP "$PID_B"
"$BIN/cpgexper" "${SWEEP_FLAGS[@]}" -shards 6 -shard-timeout 2s \
  -remote "http://$ADDR_A,http://$ADDR_B" > "$OUT/stall.csv" 2> "$OUT/stall.log" || {
  echo "chaos smoke FAILED: sweep did not survive a stalled backend" >&2
  sed 's/^/  coordinator: /' "$OUT/stall.log" >&2
  exit 1
}
kill -CONT "$PID_B"
for WANT in "failed on http://$ADDR_B" "attempt timed out after 2s" "retrying in"; do
  grep -qF "$WANT" "$OUT/stall.log" || {
    echo "chaos smoke FAILED: coordinator log lacks \"$WANT\": no attempt timed out on the stalled backend" >&2
    sed 's/^/  coordinator: /' "$OUT/stall.log" >&2
    exit 1
  }
done
diff -u testdata/sweep_golden.csv "$OUT/stall.csv" || {
  echo "chaos smoke FAILED: CSV after a stalled backend differs from golden" >&2
  exit 1
}

echo "chaos smoke OK: golden CSV survives a backend kill+restart mid-sweep, a coordinator restart from the journal, a torn journal file re-run whole, and a stalled backend timed out"
