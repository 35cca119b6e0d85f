package httpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/textio"
)

func sweepRequestBody(t *testing.T, cfg expr.SweepConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := textio.WriteSweepRequest(&buf, textio.EncodeSweepRequest(cfg)); err != nil {
		t.Fatalf("WriteSweepRequest: %v", err)
	}
	return buf.Bytes()
}

// TestSweepEndpointMatchesInProcess pins the acceptance property of the
// sweep endpoint: the NDJSON frames of a served shard read back, through
// textio.ReadShard, as exactly the per-graph results of an in-process
// expr.RunSweepShardContext (wall-clock timing aside).
func TestSweepEndpointMatchesInProcess(t *testing.T) {
	ts := testServer(t)
	cfg := expr.GoldenSweep()
	cfg.ShardIndex, cfg.ShardCount = 1, 2
	body := sweepRequestBody(t, cfg)
	want, err := expr.RunSweepShardContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunSweepShardContext: %v", err)
	}

	resp, out := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		t.Fatalf("SweepHash: %v", err)
	}
	got, err := textio.ReadShard(bytes.NewReader(out), hash, cfg, nil)
	if err != nil {
		t.Fatalf("ReadShard: %v", err)
	}
	if got.ShardIndex != cfg.ShardIndex || got.ShardCount != cfg.ShardCount {
		t.Fatalf("stream header coords %d/%d, want %d/%d",
			got.ShardIndex, got.ShardCount, cfg.ShardIndex, cfg.ShardCount)
	}
	zero := func(sh *expr.ShardResult) *expr.ShardResult {
		c := *sh
		c.Results = append([]expr.GraphResult(nil), sh.Results...)
		for i := range c.Results {
			c.Results[i].MergeNs = 0
			c.Results[i].PathSchedNs = 0
		}
		return &c
	}
	if !reflect.DeepEqual(zero(got), zero(want)) {
		t.Fatalf("served shard differs from in-process shard:\n%+v\nvs\n%+v", got, want)
	}
}

// TestSweepEndpointRejects covers the error envelope conventions of the
// sweep endpoint.
func TestSweepEndpointRejects(t *testing.T) {
	ts := testServer(t)
	for name, body := range map[string]string{
		"not json":      "{",
		"wrong version": `{"version":"v2","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1}`,
		"bad shard":     `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":9,"shardCount":2}`,
		"unknown field": `{"version":"v1","bogus":1}`,
		"neg workers":   `{"version":"v1","nodes":[40],"paths":[10],"graphsPerCell":1,"seed":1,"shardIndex":0,"shardCount":1,"workers":-2}`,
	} {
		resp, out := postJSON(t, ts.URL+"/v1/sweep", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, out)
		}
		if !bytes.Contains(out, []byte(`"error"`)) {
			t.Fatalf("%s: missing error envelope: %s", name, out)
		}
	}
}

// TestHealthzSweepCounters checks that shard requests surface in the
// /healthz sweep counters.
func TestHealthzSweepCounters(t *testing.T) {
	ts := testServer(t)
	cfg := expr.GoldenSweep()
	cfg.ShardCount = 2
	if resp, out := postJSON(t, ts.URL+"/v1/sweep", sweepRequestBody(t, cfg)); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, out)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var doc healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Sweeps.Requests != 1 {
		t.Fatalf("sweep counters unexpected: %+v", doc.Sweeps)
	}
}
