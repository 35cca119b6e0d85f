package httpserver

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/textio"
)

// gridBodies returns the request bodies of the grid's problems of one cell,
// one for each seed in 1..n: for seed s, one rand source draws the cells 60,
// 80 and 120 nodes by 10, 12, 18, 24 and 32 paths in turn.
func gridBodies(t testing.TB, nodes, paths, n int) [][]byte {
	t.Helper()
	var bodies [][]byte
	for s := int64(1); s <= int64(n); s++ {
		r := rand.New(rand.NewSource(s))
		var cfg gen.Config
		for _, cn := range []int{60, 80, 120} {
			for _, cp := range []int{10, 12, 18, 24, 32} {
				if c := gen.RandomConfig(r, cn, cp); cn == nodes && cp == paths {
					cfg = c
				}
			}
		}
		inst, err := gen.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(seed %d, %d nodes, %d paths): %v", s, nodes, paths, err)
		}
		body, err := json.Marshal(textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{}))
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// TestScheduleMissAllocs pins the bytes a /v1/schedule miss of a 120-node,
// 32-path grid problem allocates through the handler, middleware included:
// reading, decoding and hashing the document, scheduling it in a pooled
// workspace, detaching the result and writing the body. It serves the
// grid's problems of seeds 1 to 10 twice on a one-worker server without a
// memo, so every request is a miss, and measures the second round: by then
// the pooled workspace and body buffer have grown to the largest problem,
// as they do on a server that has run for a while. It runs on one P and
// with the collector off, so the pools hand back what they were given.
// 414 KB measured; the same measurement read 514 KB before the body was
// parsed by the byte parser and the problem hashed without encoding/json,
// and 1,705 KB before the response was written straight from the result
// and misses scheduled in pooled workspaces.
func TestScheduleMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates where a normal build does not")
	}
	const ceilingKB = 430
	bodies := gridBodies(t, 120, 32, 10)
	srv, err := NewServer(Options{Service: service.Config{Workers: 1, CacheSize: -1}})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	routes := srv.Routes(nil)
	reqs := make([]*http.Request, 2*len(bodies))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i%len(bodies)]))
	}
	w := &nopRecorder{}
	serve := func(r *http.Request) {
		w.code = 0
		routes.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	oneProc(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, r := range reqs[:len(bodies)] {
		serve(r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs[len(bodies):] {
		serve(r)
	}
	runtime.ReadMemStats(&after)
	if st := srv.Stats(); st.CacheMisses != int64(len(reqs)) {
		t.Fatalf("%d misses, want %d", st.CacheMisses, len(reqs))
	}
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(bodies))
	t.Logf("a /v1/schedule miss of a 120-node, 32-path grid problem allocates %.0f KB (mean of %d)", kb, len(bodies))
	if kb > ceilingKB {
		t.Errorf("a /v1/schedule miss allocates %.0f KB, ceiling %d KB", kb, ceilingKB)
	}
}
