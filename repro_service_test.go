package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/service"
	"repro/internal/textio"
)

// TestPublicServiceAPI exercises the Go surface of the versioned document
// model and the scheduling service end to end: encode the worked example as
// a v1 document, schedule it through a service, compare against the direct
// core.Schedule call, and confirm the memo hit on the second request.
func TestPublicServiceAPI(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	doc := textio.EncodeProblem(g, a, core.Options{})
	if doc.Version != textio.ProblemVersion {
		t.Fatalf("document version %q", doc.Version)
	}
	hash, err := textio.ProblemHash(doc)
	if err != nil || hash == "" {
		t.Fatalf("ProblemHash: %q, %v", hash, err)
	}
	prob, err := service.FromDoc(doc)
	if err != nil {
		t.Fatalf("FromDoc: %v", err)
	}

	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	sol, err := svc.Schedule(context.Background(), prob)
	if err != nil {
		t.Fatalf("Service.Schedule: %v", err)
	}
	want, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if textio.EncodeSolution(sol.Result).TableText != textio.EncodeSolution(want).TableText {
		t.Fatalf("service and direct schedules differ")
	}
	if sol.ProblemHash != hash {
		t.Fatalf("solution hash %q != document hash %q", sol.ProblemHash, hash)
	}
	again, err := svc.Schedule(context.Background(), prob)
	if err != nil {
		t.Fatalf("Service.Schedule: %v", err)
	}
	if !again.CacheHit {
		t.Fatalf("second request must be served from the memo")
	}
}
