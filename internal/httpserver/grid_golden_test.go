package httpserver

import (
	"bytes"
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
// TestGridResponsesGolden). A change here means a /v1/schedule solution or a
// per-path schedule of some grid problem changed.
const (
	gridGoldenShort = "a786bef791f26ea3bccbc1fc9ee1ea72c703fba587a78bac2ad50c0b6dee98fa" // 3 problems (-short)
	gridGolden      = "43350e6ec10c7d67ab6e07b8efb82e633974264f434f10591d9709ebe39be9e5" // 45 problems
)

// TestGridResponsesGolden pins, byte for byte, what the server answers for
// problems of the benchmark's sizes: nodes 60, 80 and 120 × paths 10, 12,
// 18, 24 and 32, three seeds per cell (one seed of three cells under -short),
// under the critical-path and tabu strategies, each set in the problem
// document's options. It hashes the /v1/schedule solution
// document (wall-clock timings zeroed, cache block dropped) and the optimal
// per-path schedules, entries and condition timings, of a core.Schedule run
// of the same document, since the served result keeps no schedules. Served
// bodies must be compact JSON.
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
		inst *gen.Instance
	}
	var problems []problem
	for _, c := range cells {
		for _, seed := range seeds {
			r := rand.New(rand.NewSource(seed*1000 + int64(c.nodes+c.paths)))
			inst, err := gen.Generate(gen.RandomConfig(r, c.nodes, c.paths))
			if err != nil {
				t.Fatalf("Generate(%d nodes, %d paths, seed %d): %v", c.nodes, c.paths, seed, err)
			}
			problems = append(problems, problem{fmt.Sprintf("n%d-p%d-s%d", c.nodes, c.paths, seed), inst})
		}
	}

	h := sha256.New()
	srv, err := NewServer(Options{Service: service.Config{Workers: 2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	routes := srv.Routes(nil)
	for _, strategy := range []string{"critical-path", "tabu"} {
		for _, p := range problems {
			doc := textio.EncodeProblem(p.inst.Graph, p.inst.Arch, core.Options{Strategy: strategy})
			body, err := json.Marshal(doc)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			fmt.Fprintf(h, "%s strategy=%s\n", p.name, strategy)
			sol := serveGrid(t, routes, "/v1/schedule", body)
			requireCompact(t, p.name, sol)
			var out textio.SolutionDoc
			if err := json.Unmarshal(sol, &out); err != nil {
				t.Fatalf("%s: unmarshal solution: %v", p.name, err)
			}
			out.Stats.PathSchedulingNs, out.Stats.MergeNs, out.Stats.ValidationNs = 0, 0, 0
			out.Cache = nil
			norm, err := json.Marshal(&out)
			if err != nil {
				t.Fatalf("%s: marshal solution: %v", p.name, err)
			}
			h.Write(norm)
			hashSchedules(t, h, doc)
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

// hashSchedules writes the optimal per-path schedules of a fresh
// core.Schedule run of doc into h.
func hashSchedules(t *testing.T, h hash.Hash, doc *textio.ProblemDoc) {
	t.Helper()
	g, a, opts, err := textio.DecodeProblem(doc)
	if err != nil {
		t.Fatalf("DecodeProblem: %v", err)
	}
	res, err := core.Schedule(g, a, opts)
	if err != nil {
		t.Fatalf("%s under %s: Schedule: %v", doc.Name, doc.Options.Strategy, err)
	}
	for _, ps := range res.Schedules {
		fmt.Fprintf(h, "path %s delay %d\n", ps.Label, ps.Delay)
		for _, e := range ps.Entries() {
			fmt.Fprintf(h, "%s %d %d %d\n", e.Key, e.Start, e.End, e.PE)
		}
		for _, c := range ps.Conds() {
			fmt.Fprintf(h, "%+v\n", c)
		}
	}
}
