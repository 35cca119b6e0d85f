package httpserver

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/table"
	"repro/internal/textio"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := NewServer(Options{Service: service.Config{Workers: 2}})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)
	return ts
}

func TestNewServerNegativeBudget(t *testing.T) {
	if _, err := NewServer(Options{Service: service.Config{Workers: -4}}); err == nil {
		t.Fatalf("negative -workers budget must be rejected")
	}
}

func figure1Doc(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		t.Fatalf("reading figure1 problem document: %v", err)
	}
	return data
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, buf.Bytes()
}

// TestScheduleEndpointMatchesInProcess pins the acceptance property: the
// table served for the Figure 1 problem is byte-identical to the in-process
// core.Schedule rendering, and the second identical request is answered from
// the memo cache, observable through the cache counters of the response.
func TestScheduleEndpointMatchesInProcess(t *testing.T) {
	ts := testServer(t)
	doc := figure1Doc(t)

	resp, body := postJSON(t, ts.URL+"/v1/schedule", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got, want := resp.Header.Get("Content-Length"), strconv.Itoa(len(body)); got != want {
		t.Fatalf("Content-Length = %q for a %s-byte body", got, want)
	}
	var sol textio.SolutionDoc
	if err := json.Unmarshal(body, &sol); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}

	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	want, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	wantText := want.Table.Render(table.RenderOptions{Namer: g.CondName, RowName: want.RowName})
	if sol.TableText != wantText {
		t.Fatalf("served table differs from in-process table:\n%s\nvs\n%s", sol.TableText, wantText)
	}
	if sol.DeltaM != want.DeltaM || sol.DeltaMax != want.DeltaMax {
		t.Fatalf("delays differ: %d/%d vs %d/%d", sol.DeltaM, sol.DeltaMax, want.DeltaM, want.DeltaMax)
	}
	if sol.Cache == nil || sol.Cache.Hit {
		t.Fatalf("first request must report a cache miss: %+v", sol.Cache)
	}

	resp, body = postJSON(t, ts.URL+"/v1/schedule", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var again textio.SolutionDoc
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if again.Cache == nil || !again.Cache.Hit || again.Cache.Hits < 1 {
		t.Fatalf("second identical request must hit the cache: %+v", again.Cache)
	}
	if again.TableText != sol.TableText {
		t.Fatalf("cached table differs from computed table")
	}
	if again.Cache.ProblemHash != sol.Cache.ProblemHash {
		t.Fatalf("problem hash changed between identical requests")
	}
}

// TestWriteJSONRenderFailure pins writeJSON's error path: a value
// encoding/json rejects is answered with a 500 error envelope under a
// matching Content-Length, never an empty body under the intended status.
func TestWriteJSONRenderFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body)
	}
	var env errorDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error envelope not JSON: %v in %s", err, rec.Body)
	}
	if env.Error.Status != http.StatusInternalServerError || !strings.Contains(env.Error.Message, "NaN") {
		t.Fatalf("error envelope unexpected: %+v", env.Error)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("Content-Length = %q for a %s-byte body", got, want)
	}
}

// withOptions returns the Figure 1 problem document with the given options.
func withOptions(t *testing.T, opts textio.OptionsDoc) []byte {
	t.Helper()
	var doc textio.ProblemDoc
	if err := json.Unmarshal(figure1Doc(t), &doc); err != nil {
		t.Fatalf("unmarshal problem: %v", err)
	}
	doc.Options = &opts
	body, err := json.Marshal(&doc)
	if err != nil {
		t.Fatalf("marshal problem: %v", err)
	}
	return body
}

// TestWorkersOptionRefused pins that a problem document has no worker count:
// a /v1/schedule body whose options carry "workers" gets a 400 envelope
// naming the field, compact and indented alike (the byte parser declines
// both, and encoding/json refuses both), and so does a /v1/sweep request
// whose options carry it.
func TestWorkersOptionRefused(t *testing.T) {
	ts := testServer(t)
	withWorkers := func(compact []byte) []byte {
		t.Helper()
		out := bytes.Replace(compact, []byte(`"options":{`), []byte(`"options":{"workers":2,`), 1)
		if bytes.Equal(out, compact) {
			t.Fatalf("no options object in %.80q", compact)
		}
		return out
	}
	problem := withWorkers(withOptions(t, textio.OptionsDoc{Selection: "largest"}))
	var indented, sweep bytes.Buffer
	if err := json.Indent(&indented, problem, "", "  "); err != nil {
		t.Fatalf("Indent: %v", err)
	}
	if err := json.Compact(&sweep, sweepRequestBody(t, expr.GoldenSweep())); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for _, tc := range []struct {
		name, target string
		body         []byte
	}{
		{"compact problem", "/v1/schedule", problem},
		{"indented problem", "/v1/schedule", indented.Bytes()},
		{"sweep request", "/v1/sweep", withWorkers(sweep.Bytes())},
	} {
		resp, body := postJSON(t, ts.URL+tc.target, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
		var env errorDoc
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: error envelope not JSON: %v in %s", tc.name, err, body)
		}
		if env.Error.Status != http.StatusBadRequest || !strings.Contains(env.Error.Message, `"workers"`) {
			t.Fatalf("%s: the error envelope does not name the field: %+v", tc.name, env.Error)
		}
	}
}

func TestScheduleEndpointRejectsBadDocuments(t *testing.T) {
	ts := testServer(t)
	longName := strings.Replace(string(figure1Doc(t)), `"name": "figure1"`,
		`"name": "`+strings.Repeat("n", textio.MaxNameBytes+1)+`"`, 1)
	for name, body := range map[string]string{
		"not json":        "{",
		"wrong version":   `{"version":"v9"}`,
		"unknown field":   `{"version":"v1","bogus":1}`,
		"missing version": `{"name":"x"}`,
		"name too long":   longName,
	} {
		resp, out := postJSON(t, ts.URL+"/v1/schedule", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, out)
		}
		if !bytes.Contains(out, []byte(`"error"`)) {
			t.Fatalf("%s: missing error envelope: %s", name, out)
		}
	}
	// Wrong method gets a plain 405 from the router.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Status != "ok" || doc.Workers < 1 {
		t.Fatalf("health unexpected: %+v", doc)
	}
}

// TestScheduleEndpointStrategyParam pins the per-request strategy, which
// travels in the document's options.strategy: an unknown strategy is
// rejected with a 400 JSON error envelope listing the known strategies
// before any scheduling work, and two requests for the same problem under
// two different strategies are two independent memo entries (two misses,
// two hashes — cached solutions never cross strategies).
func TestScheduleEndpointStrategyParam(t *testing.T) {
	ts := testServer(t)
	for _, bad := range []string{"simulated-annealing", "urgency"} {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", withOptions(t, textio.OptionsDoc{Strategy: bad}))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: unknown strategy must yield 400, got %d: %s", bad, resp.StatusCode, body)
		}
		var envelope errorDoc
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("%s: unknown strategy error is not a JSON envelope: %v: %s", bad, err, body)
		}
		if envelope.Error.Status != http.StatusBadRequest || !strings.Contains(envelope.Error.Message, "unknown scheduling strategy") ||
			!strings.Contains(envelope.Error.Message, "critical-path, tabu") {
			t.Fatalf("%s: unexpected error envelope: %+v", bad, envelope)
		}
	}

	schedule := func(strategy string) *textio.CacheDoc {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/schedule", withOptions(t, textio.OptionsDoc{Strategy: strategy}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy %s: status %d: %s", strategy, resp.StatusCode, body)
		}
		var sol textio.SolutionDoc
		if err := json.Unmarshal(body, &sol); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if sol.Cache == nil {
			t.Fatalf("strategy %s: the solution has no cache block", strategy)
		}
		return sol.Cache
	}
	cp := schedule("critical-path")
	if cp.Hit {
		t.Fatalf("first critical-path request must miss the cache: %+v", cp)
	}
	tabu := schedule("tabu")
	if tabu.Hit {
		t.Fatalf("same problem under another strategy must be a fresh memo miss: %+v", tabu)
	}
	if tabu.Misses != 2 {
		t.Fatalf("two strategies must be two memo misses, got %d", tabu.Misses)
	}
	if tabu.ProblemHash == cp.ProblemHash {
		t.Fatalf("strategy must be part of the problem hash")
	}
	// Each strategy hits its own entry on repeat.
	if again := schedule("critical-path"); !again.Hit {
		t.Fatalf("repeated critical-path request must hit its memo entry: %+v", again)
	}
}

// TestDocumentIsTheWholeRequest pins the one way in: /v1/simulate is gone
// (404), and a /v1/schedule or /v1/sweep request that carries a query string
// gets a 400 envelope naming the document field that carries the option,
// before its body is read.
func TestDocumentIsTheWholeRequest(t *testing.T) {
	ts := testServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/simulate", figure1Doc(t))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/simulate: status %d, want 404: %s", resp.StatusCode, body)
	}
	for _, tc := range []struct {
		target string
		body   []byte
		field  string
	}{
		{"/v1/schedule?strategy=tabu", figure1Doc(t), "set options.strategy in the problem document"},
		{"/v1/schedule?workers=1", figure1Doc(t), "set options.strategy in the problem document"},
		{"/v1/sweep?workers=2", sweepRequestBody(t, expr.GoldenSweep()), "set workers"},
	} {
		resp, body := postJSON(t, ts.URL+tc.target, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.target, resp.StatusCode, body)
		}
		var env errorDoc
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: error envelope not JSON: %v in %s", tc.target, err, body)
		}
		if env.Error.Status != http.StatusBadRequest || !strings.Contains(env.Error.Message, tc.field) {
			t.Fatalf("%s: the error envelope does not name %q: %+v", tc.target, tc.field, env.Error)
		}
	}
}

// TestScheduleNotConvergedIs422 pins the status of a merge that runs to its
// safety bound (grid seed 159, 80 nodes and 10 paths, under conflicts
// "delay"): the problem, not the server, is at fault.
func TestScheduleNotConvergedIs422(t *testing.T) {
	// The grid draws each seed's configs from one source: 60 nodes under
	// paths 10, 12, 18, 24 and 32, then 80 nodes under 10 paths.
	r := rand.New(rand.NewSource(159))
	for _, p := range []int{10, 12, 18, 24, 32} {
		gen.RandomConfig(r, 60, p)
	}
	inst, err := gen.Generate(gen.RandomConfig(r, 80, 10))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	body, err := json.Marshal(textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{ConflictPolicy: core.ConflictDelayToLatest}))
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	resp, out := postJSON(t, testServer(t).URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, out)
	}
	var env errorDoc
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("error envelope not JSON: %v in %s", err, out)
	}
	if env.Error.Status != http.StatusUnprocessableEntity || !strings.Contains(env.Error.Message, "did not converge") {
		t.Fatalf("error envelope unexpected: %+v", env.Error)
	}
}

// TestScheduleTooManyPathsIs422 pins the status of a problem with more
// alternative paths than its options.maxPaths: Figure 1 has six, and a bound
// of one is the problem's fault, not the server's.
func TestScheduleTooManyPathsIs422(t *testing.T) {
	resp, out := postJSON(t, testServer(t).URL+"/v1/schedule", withOptions(t, textio.OptionsDoc{MaxPaths: 1}))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, out)
	}
	var env errorDoc
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("error envelope not JSON: %v in %s", err, out)
	}
	if env.Error.Status != http.StatusUnprocessableEntity || !strings.Contains(env.Error.Message, "alternative paths") {
		t.Fatalf("error envelope unexpected: %+v", env.Error)
	}
}

// TestOversizedBodyGets413 posts bodies over a 64-byte limit: each gets a
// 413, wherever in the body the document ends or fails to parse, since the
// body is read to its end before it is parsed.
func TestOversizedBodyGets413(t *testing.T) {
	srv, err := NewServer(Options{Service: service.Config{Workers: 1}, MaxBody: 64})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"a document whose excess falls inside it", figure1Doc(t)},
		{"200 bytes of invalid JSON", bytes.Repeat([]byte("x"), 200)},
		{"a short document, then padding", append([]byte(`{"version": "v1"}`), bytes.Repeat([]byte(" "), 200)...)},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/schedule", tc.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", tc.name, resp.StatusCode, body)
		}
	}
}
