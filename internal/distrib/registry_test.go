package distrib

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

func TestRegistryRegisterValidation(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(nil); err == nil {
		t.Errorf("Register(nil) must fail")
	}
	if err := reg.Register(HTTP{}); err == nil {
		t.Errorf("Register of a backend with an empty name must fail")
	}
	if err := reg.Register(HTTP{BaseURL: "http://a:1"}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Two backends with the same URL share a name: the second is a
	// duplicate, not extra capacity.
	if err := reg.Register(HTTP{BaseURL: "http://a:1"}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate URL Register = %v, want 'already registered'", err)
	}
	if err := reg.Register(InProcess{}); err != nil {
		t.Fatalf("Register in-process: %v", err)
	}
	if err := reg.Register(InProcess{}); err == nil {
		t.Errorf("duplicate in-process Register must fail")
	}
	if got := len(reg.Members()); got != 2 {
		t.Errorf("fleet size %d after duplicate rejections, want 2", got)
	}
}

// TestRegistryDrainResume drives a drain the way an operator does: POST
// /v1/drain on a real backend parks it in the registry at the next probe
// (no new shards, and draining is not a failure), and POST
// /v1/drain?resume=1 returns it to dispatch at the probe after.
func TestRegistryDrainResume(t *testing.T) {
	ts := testBackendServer(t, 2)
	reg := NewRegistry()
	reg.Metrics = NewMetrics(obs.NewRegistry())
	if err := reg.Register(HTTP{BaseURL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	probe := func(path string, want MemberState) {
		t.Helper()
		if path != "" {
			resp, err := http.Post(ts.URL+path, "application/json", nil)
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s: status %d", path, resp.StatusCode)
			}
		}
		reg.ProbeOnce(context.Background())
		m := reg.Members()[0]
		if m.State != want || m.Failures != 0 {
			t.Fatalf("after %q and a probe: %+v, want %s with no failures", path, m, want)
		}
		if got := len(reg.eligible()); (got == 1) != (want == StateActive) {
			t.Fatalf("after %q: %d eligible members in state %s", path, got, want)
		}
	}
	probe("", StateActive)
	probe("/v1/drain", StateDraining)
	probe("", StateDraining) // the drain holds until the backend lifts it
	probe("/v1/drain?resume=1", StateActive)
	if got := reg.Metrics.drains.Value(); got != 1 {
		t.Fatalf("drains counted %d, want 1", got)
	}
}

// TestCoordinatorZeroBackends: an explicitly empty registry has no fleet to
// dispatch to; the sweep must fail loudly instead of hanging waiting for a
// backend that will never join.
func TestCoordinatorZeroBackends(t *testing.T) {
	co := &Coordinator{Shards: 2, Registry: NewRegistry()}
	_, err := co.Run(context.Background(), expr.GoldenSweep())
	if err == nil || !strings.Contains(err.Error(), "no live backends") {
		t.Fatalf("Run with zero backends = %v, want 'no live backends'", err)
	}
}

// TestCoordinatorDuplicateBackends: a static backend list with a repeated
// name (two entries for the same URL) is a configuration error, not a
// bigger fleet.
func TestCoordinatorDuplicateBackends(t *testing.T) {
	co := &Coordinator{Backends: []Backend{
		HTTP{BaseURL: "http://a:1"},
		HTTP{BaseURL: "http://a:1"},
	}}
	if _, err := co.Run(context.Background(), expr.GoldenSweep()); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("Run with duplicate backends = %v, want 'already registered'", err)
	}
	// Registry and Backends are mutually exclusive wiring.
	co = &Coordinator{Backends: []Backend{InProcess{}}, Registry: NewRegistry()}
	if _, err := co.Run(context.Background(), expr.GoldenSweep()); err == nil {
		t.Fatalf("Run with both Backends and Registry must fail")
	}
}

// TestCoordinatorRejectsForeignSweepHash: a confused or stale server whose
// response carries a different sweep hash must be rejected before its cells
// can reach the merge.
func TestCoordinatorRejectsForeignSweepHash(t *testing.T) {
	inner := testBackendServer(t, 1)
	// A mangling proxy: forwards to the real handler, then rewrites the
	// stream header's sweepHash — exactly what a server answering for some
	// other sweep would look like.
	sweepHash := regexp.MustCompile(`"sweepHash":"[0-9a-f]+"`)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, inner.URL+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		w.Write(sweepHash.ReplaceAll(data, []byte(`"sweepHash":"`+strings.Repeat("0", 16)+`"`)))
	}))
	t.Cleanup(proxy.Close)

	co := &Coordinator{
		Shards:         2,
		Backends:       []Backend{HTTP{BaseURL: proxy.URL}},
		MaxAttempts:    2,
		RetryBaseDelay: time.Millisecond,
	}
	_, err := co.Run(context.Background(), expr.GoldenSweep())
	if err == nil || !strings.Contains(err.Error(), "response rejected") {
		t.Fatalf("Run against hash-mangling server = %v, want 'response rejected'", err)
	}
}

// TestHTTPProbe: the HTTP prober against the production handler — healthy,
// draining via POST /v1/drain, and resumed.
func TestHTTPProbe(t *testing.T) {
	ts := testBackendServer(t, 3)
	ctx := context.Background()
	b := HTTP{BaseURL: ts.URL}

	info, err := b.Probe(ctx)
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	if info.Capacity != 3 || info.Draining {
		t.Fatalf("Probe = %+v, want capacity 3, not draining", info)
	}

	post := func(path string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	post("/v1/drain")
	info, err = b.Probe(ctx)
	if err != nil {
		t.Fatalf("Probe of draining server: %v", err)
	}
	if !info.Draining {
		t.Fatalf("Probe after drain = %+v, want draining", info)
	}
	post("/v1/drain?resume=1")
	info, err = b.Probe(ctx)
	if err != nil || info.Draining {
		t.Fatalf("Probe after resume = %+v, %v; want active", info, err)
	}

	// Probing a dead server is an error, not a silent zero.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := (HTTP{BaseURL: dead.URL}).Probe(ctx); err == nil {
		t.Fatalf("Probe of dead server must fail")
	}
}

// TestRegistryRunProbes: the periodic prober loop applies probe outcomes
// until its context is cancelled.
func TestRegistryRunProbes(t *testing.T) {
	ts := testBackendServer(t, 2)
	reg := NewRegistry()
	reg.ProbeInterval = time.Millisecond // the loop must tick several times
	if err := reg.Register(HTTP{BaseURL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.RunProbes(ctx)
	}()
	// Wait until a probe has applied the advertised capacity.
	for reg.Members()[0].Capacity != 2 {
		select {
		case <-done:
			t.Fatal("RunProbes returned before cancellation")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	<-done
}
