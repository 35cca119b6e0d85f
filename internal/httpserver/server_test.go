package httpserver

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
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

func TestScheduleEndpointWorkersParam(t *testing.T) {
	ts := testServer(t)
	doc := figure1Doc(t)
	resp, body := postJSON(t, ts.URL+"/v1/schedule?workers=1", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/schedule?workers=-1", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative workers must yield 400, got %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope not JSON: %v in %s", err, body)
	}
	if env.Error.Status != http.StatusBadRequest || !strings.Contains(env.Error.Message, "workers") {
		t.Fatalf("error envelope unexpected: %+v", env.Error)
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

func TestSimulateEndpoint(t *testing.T) {
	ts := testServer(t)
	doc := figure1Doc(t)
	resp, body := postJSON(t, ts.URL+"/v1/simulate", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sim simulateDoc
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(sim.Traces) != 6 {
		t.Fatalf("figure 1 has 6 alternative paths, got %d traces", len(sim.Traces))
	}
	for _, tr := range sim.Traces {
		if len(tr.Violations) != 0 {
			t.Fatalf("unexpected violations on %s: %v", tr.Label, tr.Violations)
		}
		if len(tr.Activations) == 0 {
			t.Fatalf("trace %s has no activations", tr.Label)
		}
	}

	resp, body = postJSON(t, ts.URL+"/v1/simulate?cond=C%3D1%2CD%3D0", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(sim.Traces) != 1 {
		t.Fatalf("C=1,D=0 selects one path, got %d", len(sim.Traces))
	}

	resp, body = postJSON(t, ts.URL+"/v1/simulate?cond=Z%3D1", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown condition must yield 400, got %d: %s", resp.StatusCode, body)
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

// TestDrainEndpoint: POST /v1/drain flips /healthz to "draining" (what the
// sweep registry's prober watches), and ?resume=1 flips it back.
func TestDrainEndpoint(t *testing.T) {
	ts := testServer(t)
	health := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var doc healthDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		return doc.Status
	}
	if got := health(); got != "ok" {
		t.Fatalf("initial health = %q", got)
	}
	resp, body := postJSON(t, ts.URL+"/v1/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d: %s", resp.StatusCode, body)
	}
	var dd struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &dd); err != nil || dd.Status != "draining" {
		t.Fatalf("drain response = %s (%v), want status draining", body, err)
	}
	if got := health(); got != "draining" {
		t.Fatalf("health after drain = %q, want draining", got)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/drain?resume=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d: %s", resp.StatusCode, body)
	}
	if got := health(); got != "ok" {
		t.Fatalf("health after resume = %q, want ok", got)
	}
}

// TestScheduleEndpointStrategyParam pins the per-request strategy override:
// an unknown strategy, in ?strategy= or in the document's options, is
// rejected with a 400 JSON error envelope listing the known strategies
// before any scheduling work, and two requests for the same problem under
// two different strategies are two independent memo entries (two misses,
// two hashes — cached solutions never cross strategies).
func TestScheduleEndpointStrategyParam(t *testing.T) {
	ts := testServer(t)
	doc := figure1Doc(t)

	var withStrategy textio.ProblemDoc
	if err := json.Unmarshal(doc, &withStrategy); err != nil {
		t.Fatalf("unmarshal problem: %v", err)
	}
	withStrategy.Options = &textio.OptionsDoc{Strategy: "urgency"}
	urgencyDoc, err := json.Marshal(&withStrategy)
	if err != nil {
		t.Fatalf("marshal problem: %v", err)
	}
	for _, bad := range []struct {
		target string
		body   []byte
	}{
		{"/v1/schedule?strategy=simulated-annealing", doc},
		{"/v1/schedule?strategy=urgency", doc},
		{"/v1/schedule", urgencyDoc},
	} {
		resp, body := postJSON(t, ts.URL+bad.target, bad.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: unknown strategy must yield 400, got %d: %s", bad.target, resp.StatusCode, body)
		}
		var envelope errorDoc
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("%s: unknown strategy error is not a JSON envelope: %v: %s", bad.target, err, body)
		}
		if envelope.Error.Status != http.StatusBadRequest || !strings.Contains(envelope.Error.Message, "unknown scheduling strategy") ||
			!strings.Contains(envelope.Error.Message, "critical-path, tabu") {
			t.Fatalf("%s: unexpected error envelope: %+v", bad.target, envelope)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/schedule?strategy=critical-path", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strategy=critical-path: status %d: %s", resp.StatusCode, body)
	}
	var cp textio.SolutionDoc
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if cp.Cache == nil || cp.Cache.Hit {
		t.Fatalf("first critical-path request must miss the cache: %+v", cp.Cache)
	}

	resp, body = postJSON(t, ts.URL+"/v1/schedule?strategy=tabu", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("strategy=tabu: status %d: %s", resp.StatusCode, body)
	}
	var tabu textio.SolutionDoc
	if err := json.Unmarshal(body, &tabu); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if tabu.Cache == nil || tabu.Cache.Hit {
		t.Fatalf("same problem under another strategy must be a fresh memo miss: %+v", tabu.Cache)
	}
	if tabu.Cache.Misses != 2 {
		t.Fatalf("two strategies must be two memo misses, got %d", tabu.Cache.Misses)
	}
	if tabu.Cache.ProblemHash == cp.Cache.ProblemHash {
		t.Fatalf("strategy must be part of the problem hash")
	}
	// Each strategy hits its own entry on repeat.
	resp, body = postJSON(t, ts.URL+"/v1/schedule?strategy=critical-path", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat critical-path: status %d: %s", resp.StatusCode, body)
	}
	var again textio.SolutionDoc
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if again.Cache == nil || !again.Cache.Hit {
		t.Fatalf("repeated critical-path request must hit its memo entry: %+v", again.Cache)
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	srv, err := NewServer(Options{Service: service.Config{Workers: 1}, MaxBody: 64})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv.Routes(nil))
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/schedule", figure1Doc(t))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body must yield 413, got %d: %s", resp.StatusCode, body)
	}
}
