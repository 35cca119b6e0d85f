package httpserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/textio"
)

// reuseProblems returns the request bodies of six grid problems of rising
// and falling sizes, drawn from the seeds from seed on, so the pooled
// workspaces are recycled for larger and for smaller graphs.
func reuseProblems(t testing.TB, seed int64) [][]byte {
	t.Helper()
	var bodies [][]byte
	for i, c := range []struct{ nodes, paths int }{{120, 32}, {60, 10}, {80, 24}, {60, 12}, {120, 18}, {80, 10}} {
		r := rand.New(rand.NewSource(seed + int64(i)))
		inst, err := gen.Generate(gen.RandomConfig(r, c.nodes, c.paths))
		if err != nil {
			t.Fatalf("Generate(%d nodes, %d paths): %v", c.nodes, c.paths, err)
		}
		body, err := json.Marshal(textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{}))
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// newRoutes returns the routes of a fresh server with the given service
// config.
func newRoutes(t testing.TB, cfg service.Config) http.Handler {
	t.Helper()
	srv, err := NewServer(Options{Service: cfg})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv.Routes(nil)
}

// timings matches the wall-clock fields of a solution's stats block.
var timings = regexp.MustCompile(`"(pathSchedulingNs|mergeNs|validationNs)":[0-9]+`)

// untimed returns a solution body without its cache block and with its
// wall-clock timings zeroed: what two servers answer alike for a problem.
func untimed(body []byte) []byte {
	if i := bytes.LastIndex(body, []byte(`,"cache":{`)); i >= 0 {
		body = body[:i]
	}
	return timings.ReplaceAll(body, []byte(`"$1":0`))
}

// freshBodies answers every problem on a server of its own.
func freshBodies(t *testing.T, bodies [][]byte) [][]byte {
	t.Helper()
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		want[i] = untimed(serveGrid(t, newRoutes(t, service.Config{Workers: 1}), "/v1/schedule", body))
	}
	return want
}

// oneProc runs the rest of the test at GOMAXPROCS 1. A sync.Pool hands a
// value only to a Get on the P that put it back, so on one P every miss of
// a one-worker server takes the workspace the miss before it handed back.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on. core checks Err before every path of the path phase and at
// every step of the merge, so n fixes where the run stops.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestScheduleAfterCancelledMiss cancels a miss of a 120-node, 32-path
// problem in its path phase and in its merge on a one-worker server, whose
// misses share a pooled workspace, and then has the server answer other
// problems: each body must equal the one a fresh server gives.
func TestScheduleAfterCancelledMiss(t *testing.T) {
	bodies := reuseProblems(t, 7000)
	want := freshBodies(t, bodies[1:])
	oneProc(t)
	for _, n := range []int64{3, 40} {
		t.Run(fmt.Sprintf("cancelled at check %d", n), func(t *testing.T) {
			routes := newRoutes(t, service.Config{Workers: 1})
			ctx := &cancelAfter{Context: context.Background()}
			ctx.n.Store(n)
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[0])).WithContext(ctx)
			routes.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestTimeout {
				t.Fatalf("cancelled request: status %d, want %d: %s", rec.Code, http.StatusRequestTimeout, rec.Body.Bytes())
			}
			for i, body := range bodies[1:] {
				if got := untimed(serveGrid(t, routes, "/v1/schedule", body)); !bytes.Equal(got, want[i]) {
					t.Fatalf("problem %d after the cancelled miss differs from a fresh server's answer", i+1)
				}
			}
		})
	}
}

// TestMemoizedBodyUnchangedByReuse serves a problem, runs eleven other
// problems through the one-worker server's pooled workspace, and serves the
// first again from the memo: the body must be byte-identical up to the cache
// block, since the memo keeps a detached copy of the result and the decoded
// problem copies its names out of the pooled body buffer. It runs on one P
// with the collector off, so the pools hand back what they were given: the
// next request reads its body into the buffer the first was read into, and
// schedules in the workspace the first was scheduled in. The repeat spells
// the problem indented, so reading it does not restore the first body's
// bytes in that buffer.
func TestMemoizedBodyUnchangedByReuse(t *testing.T) {
	bodies := append(reuseProblems(t, 7000), reuseProblems(t, 8000)...)
	var indented bytes.Buffer
	if err := json.Indent(&indented, bodies[0], "", "  "); err != nil {
		t.Fatalf("Indent: %v", err)
	}
	oneProc(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	routes := newRoutes(t, service.Config{Workers: 1})
	first := serveGrid(t, routes, "/v1/schedule", bodies[0])
	for _, body := range bodies[1:] {
		serveGrid(t, routes, "/v1/schedule", body)
	}
	again := serveGrid(t, routes, "/v1/schedule", indented.Bytes())
	if !bytes.Contains(again, []byte(`"cache":{"hit":true`)) {
		t.Fatalf("the repeated request was not a memo hit: %.80q", again[bytes.LastIndex(again, []byte(`"cache"`)):])
	}
	cut := func(b []byte) []byte { return b[:bytes.LastIndex(b, []byte(`,"cache":{`))] }
	if !bytes.Equal(cut(again), cut(first)) {
		t.Fatalf("the memoized body changed after other problems ran through the pooled workspace and body buffer")
	}
}

// TestConcurrentMisses sends problems from several goroutines at once to a
// two-worker server without a memo, so every request is a miss and misses
// take workspaces from the pool and hand them back concurrently (run it
// under -race), and compares every body with a fresh server's.
func TestConcurrentMisses(t *testing.T) {
	bodies := reuseProblems(t, 7000)
	want := freshBodies(t, bodies)
	routes := newRoutes(t, service.Config{Workers: 2, CacheSize: -1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range bodies {
				i := (g + k) % len(bodies)
				rec := httptest.NewRecorder()
				routes.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(bodies[i])))
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d, problem %d: status %d: %s", g, i, rec.Code, rec.Body.Bytes())
					return
				}
				if got := untimed(rec.Body.Bytes()); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d, problem %d: the body differs from a fresh server's answer", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
