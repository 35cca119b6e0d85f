package httpserver

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/textio"
)

// Golden sha256 over the responses of the paper's grid (see
// TestGridResponsesGolden). A change here means a /v1/schedule solution, a
// /v1/simulate trace or a per-path schedule of some grid problem changed.
const (
	gridGoldenShort = "964c668edc75efa4c5fdffaa11d04faaa58ffe438b96c603f703eef202bc43f5" // 3 problems (-short)
	gridGolden      = "9293ae7d940b95f3b5d552eaa1194324abf43e98589a379642a035ab02f221bc" // 45 problems
)

// TestGridResponsesGolden pins, byte for byte, what the server answers for
// problems of the benchmark's sizes: nodes 60, 80 and 120 × paths 10, 12,
// 18, 24 and 32, three seeds per cell (one seed of three cells under -short),
// under the critical-path and tabu strategies at workers 1 and 2.
// It hashes the /v1/schedule solution document (wall-clock timings zeroed,
// cache block dropped), the /v1/simulate response and the optimal per-path
// schedules, entries and condition timings, of the served result. Served
// bodies must be compact JSON; the simulate response is hashed re-indented
// (json.Encoder with SetIndent), the rendering the constants were taken on.
func TestGridResponsesGolden(t *testing.T) {
	type cell struct{ nodes, paths int }
	var cells []cell
	for _, n := range []int{60, 80, 120} {
		for _, p := range []int{10, 12, 18, 24, 32} {
			cells = append(cells, cell{n, p})
		}
	}
	seeds, want := []int64{1, 2, 3}, gridGolden
	if testing.Short() {
		cells = []cell{{60, 10}, {80, 24}, {120, 32}}
		seeds, want = seeds[:1], gridGoldenShort
	}
	type problem struct {
		name string
		doc  *textio.ProblemDoc
		body []byte
	}
	var problems []problem
	for _, c := range cells {
		for _, seed := range seeds {
			r := rand.New(rand.NewSource(seed*1000 + int64(c.nodes+c.paths)))
			inst, err := gen.Generate(gen.RandomConfig(r, c.nodes, c.paths))
			if err != nil {
				t.Fatalf("Generate(%d nodes, %d paths, seed %d): %v", c.nodes, c.paths, seed, err)
			}
			doc := textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{})
			body, err := json.Marshal(doc)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			problems = append(problems, problem{fmt.Sprintf("n%d-p%d-s%d", c.nodes, c.paths, seed), doc, body})
		}
	}

	h := sha256.New()
	for _, workers := range []int{1, 2} {
		// One server per worker count: the memo ignores ?workers=, so a
		// shared server would answer the second count from its cache.
		srv, err := NewServer(Options{Service: service.Config{Workers: 2, WarmMaxDirty: -1}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		routes := srv.Routes(nil)
		for _, strategy := range []string{"critical-path", "tabu"} {
			for _, p := range problems {
				query := fmt.Sprintf("?strategy=%s&workers=%d", strategy, workers)
				fmt.Fprintf(h, "%s %s\n", p.name, query)
				sol := serveGrid(t, routes, "/v1/schedule"+query, p.body)
				requireCompact(t, p.name, sol)
				var doc textio.SolutionDoc
				if err := json.Unmarshal(sol, &doc); err != nil {
					t.Fatalf("%s: unmarshal solution: %v", p.name, err)
				}
				doc.Stats.PathSchedulingNs, doc.Stats.MergeNs, doc.Stats.ValidationNs = 0, 0, 0
				doc.Cache = nil
				norm, err := json.Marshal(&doc)
				if err != nil {
					t.Fatalf("%s: marshal solution: %v", p.name, err)
				}
				h.Write(norm)
				h.Write(indentSimulate(t, p.name, serveGrid(t, routes, "/v1/simulate"+query, p.body)))
				hashSchedules(t, h, srv, p.doc, strategy, workers)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("grid response hash over %d problems = %s, want %s", len(problems), got, want)
	}
}

// serveGrid POSTs body to the handler and returns the 200 response body.
func serveGrid(t *testing.T, routes http.Handler, target string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	routes.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", target, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// requireCompact fails the test unless body is compact JSON: no whitespace
// outside strings but the encoder's trailing newline.
func requireCompact(t *testing.T, name string, body []byte) {
	t.Helper()
	var c bytes.Buffer
	if err := json.Compact(&c, body); err != nil {
		t.Fatalf("%s: compact: %v", name, err)
	}
	c.WriteByte('\n')
	if !bytes.Equal(c.Bytes(), body) {
		t.Fatalf("%s: the served body is not compact JSON: %.80q", name, body)
	}
}

// indentSimulate decodes a /v1/simulate body and renders it the way a
// json.Encoder with SetIndent("", "  ") does.
func indentSimulate(t *testing.T, name string, body []byte) []byte {
	t.Helper()
	requireCompact(t, name, body)
	var doc simulateDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: unmarshal simulate: %v", name, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		t.Fatalf("%s: encode simulate: %v", name, err)
	}
	return buf.Bytes()
}

// hashSchedules writes the optimal per-path schedules of the served result,
// which the server answers from its memo, into h.
func hashSchedules(t *testing.T, h hash.Hash, srv *Server, doc *textio.ProblemDoc, strategy string, workers int) {
	t.Helper()
	prob, err := service.FromDoc(doc)
	if err != nil {
		t.Fatalf("FromDoc: %v", err)
	}
	prob.Options.Strategy, prob.Options.Workers = strategy, workers
	sol, err := srv.svc.Schedule(context.Background(), prob)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !sol.CacheHit {
		t.Fatalf("%s under %s: the per-path schedules were not the served ones (memo miss)", doc.Name, strategy)
	}
	for _, ps := range sol.Schedules {
		fmt.Fprintf(h, "path %s delay %d\n", ps.Label, ps.Delay)
		for _, e := range ps.Entries() {
			fmt.Fprintf(h, "%s %d %d %d\n", e.Key, e.Start, e.End, e.PE)
		}
		for _, c := range ps.Conds() {
			fmt.Fprintf(h, "%+v\n", c)
		}
	}
}
