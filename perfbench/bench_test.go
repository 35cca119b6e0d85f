package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"slices"
	"testing"

	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/textio"
)

// served returns the solution of a generated problem as the reference run
// writes it, the shape every served response is checked against.
func served(t *testing.T) *textio.SolutionDoc {
	t.Helper()
	unit, err := coldUnit(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := referenceSolution(unit[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if r := checkSolution(d); r != "" {
		t.Fatalf("untampered solution fails the per-op checks: %s", r)
	}
	return d
}

func TestCheckerRejectsTamperedSolutions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tamper  func(d *textio.SolutionDoc)
		perOp   string // the per-op failure reason, "" when only the reference comparison sees it
		differs string
	}{
		{"delta max changed", func(d *textio.SolutionDoc) { d.DeltaMax++ }, "delta_max_not_max_table", "DeltaMax"},
		{"table cell moved", func(d *textio.SolutionDoc) { d.Table.Entries[len(d.Table.Entries)/2].Start++ }, "", "Table"},
		{"violation added", func(d *textio.SolutionDoc) { d.Violations = append(d.Violations, "requirement 2 violated") }, "deterministic_flag_mismatch", "Violations"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := served(t)
			got := served(t)
			tc.tamper(got)
			if r := checkSolution(got); r != tc.perOp {
				t.Errorf("per-op check = %q, want %q", r, tc.perOp)
			}
			if f := diffSolutions(got, want); f != tc.differs {
				t.Errorf("reference comparison reports field %q, want %q", f, tc.differs)
			}
		})
	}
}

func TestCheckerAcceptsMaskedDifferences(t *testing.T) {
	want := served(t)
	got := served(t)
	got.Stats.PathSchedulingNs += 17
	got.Stats.MergeNs += 5
	got.Stats.ValidationNs += 3
	got.Cache = &textio.CacheDoc{Hit: true, Hits: 9, Misses: 2, ProblemHash: "x"}
	if f := diffSolutions(got, want); f != "" {
		t.Fatalf("masked fields reported as a difference in %s", f)
	}
	// Anything else in the stats block is compared.
	got.Stats.BackSteps++
	if f := diffSolutions(got, want); f != "Stats" {
		t.Fatalf("back-step change reported as %q, want Stats", f)
	}
}

// tamperedReply is a 200 reply carrying the reference solution of body with
// one table cell moved, reporting a memo hit when hit is set: what a stale
// or colliding memo entry would serve.
func tamperedReply(t *testing.T, body []byte, hit bool) opResult {
	t.Helper()
	d, err := referenceSolution(body)
	if err != nil {
		t.Fatal(err)
	}
	d.Table.Entries[len(d.Table.Entries)/2].Start++
	if hit {
		d.Cache = &textio.CacheDoc{Hit: true, Hits: 1}
	}
	var buf bytes.Buffer
	if err := textio.WriteSolution(&buf, d); err != nil {
		t.Fatal(err)
	}
	return opResult{status: http.StatusOK, body: buf.Bytes()}
}

// unsent fills a run's results with transport errors, which are failed ops
// that nothing is compared for.
func unsent(units [][]request) [][]opResult {
	results := make([][]opResult, len(units))
	for u := range units {
		results[u] = make([]opResult, len(units[u]))
		for i := range results[u] {
			results[u][i] = opResult{err: errors.New("not sent")}
		}
	}
	return results
}

func TestHitResponsesAreCompared(t *testing.T) {
	// More cold ops than the seeded sample, so some are compared only
	// because their response reports a hit.
	const n = coldSample + 6
	units, err := scheduleUnits(5, "cold", n)
	if err != nil {
		t.Fatal(err)
	}
	for target := range units {
		results := unsent(units)
		results[target][0] = tamperedReply(t, units[target][0].Body, true)
		o := newOutcome()
		v := verifySchedule(&env{seed: 5}, units, results, o)
		if v.compared != 1 || len(o.Mismatches) != 1 || v.cacheHits != 1 {
			t.Errorf("cold op %d reporting a hit: compared %d, mismatches %q", target, v.compared, o.Mismatches)
		}
	}
}

func TestEveryEditIsCompared(t *testing.T) {
	// Three sessions hold more cold and edit ops than the seeded sample.
	units, err := scheduleUnits(5, "edit", 3)
	if err != nil {
		t.Fatal(err)
	}
	edits := 0
	for u := range units {
		for i, q := range units[u] {
			if q.Kind != "edit" {
				continue
			}
			edits++
			results := unsent(units)
			results[u][i] = tamperedReply(t, q.Body, false)
			o := newOutcome()
			v := verifySchedule(&env{seed: 5}, units, results, o)
			if v.compared != 1 || len(o.Mismatches) != 1 {
				t.Errorf("session %d edit op %d: compared %d, mismatches %q", u, i, v.compared, o.Mismatches)
			}
		}
	}
	if edits <= coldSample {
		t.Fatalf("only %d edits, not more than the cold sample", edits)
	}
}

func TestParseSolutionIsStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := textio.WriteSolution(&buf, served(t)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := parseSolution(good); err != nil {
		t.Fatalf("well-formed solution rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"unknown field": bytes.Replace(good, []byte(`"deltaM"`), []byte(`"extra": 1, "deltaM"`), 1),
		"trailing data": append(slices.Clone(good), []byte("{}")...),
		"other version": bytes.Replace(good, []byte(`"version": "v1"`), []byte(`"version": "v2"`), 1),
	} {
		if _, err := parseSolution(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The program flags exactly one table of each of these mini-sweeps as not
// deterministic; the benchmark must count it as one failed op and go on.
func TestFlaggedTablesAreFailedOps(t *testing.T) {
	for _, cfg := range []expr.SweepConfig{
		{Nodes: []int{120}, Paths: []int{24}, GraphsPerCell: 4, Seed: 31337},
		{Nodes: []int{120}, Paths: []int{18}, GraphsPerCell: 4, Seed: 5},
	} {
		co := &distrib.Coordinator{Shards: 2, Backends: []distrib.Backend{distrib.InProcess{}}}
		shards, err := co.RunShards(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		lat, inc := sweepOps(o, shards)
		if o.Attempted != 4 || o.Failed != 1 || o.Reasons["nondeterministic_table"] != 1 || len(lat) != 4 || len(inc) != 3 {
			t.Errorf("seed %d: attempted %d failed %d reasons %v", cfg.Seed, o.Attempted, o.Failed, o.Reasons)
		}
		if err := checkSweep(cfg, shards); err != nil {
			t.Errorf("seed %d: %v", cfg.Seed, err)
		}
	}
}

func TestEditSessionsAreDeterministicTauEdits(t *testing.T) {
	const sessions = 20
	a, err := scheduleUnits(11, "edit", sessions)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scheduleUnits(11, "edit", sessions)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]int{}
	for s, sess := range a {
		if len(sess) != sessionOps || len(b[s]) != sessionOps {
			t.Fatalf("session %d has %d ops", s, len(sess))
		}
		var variants []*textio.ProblemDoc // the session's new problems, in order
		var bodies [][]byte
		var shape string
		for i, q := range sess {
			if !bytes.Equal(q.Body, b[s][i].Body) || q.Kind != b[s][i].Kind || !slices.Equal(q.Dirty, b[s][i].Dirty) {
				t.Fatalf("session %d op %d differs between two generations with one seed", s, i)
			}
			doc, err := textio.ReadProblem(bytes.NewReader(q.Body))
			if err != nil {
				t.Fatal(err)
			}
			h, err := textio.ProblemShapeHash(doc)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				shape = h
				if prev, dup := shapes[h]; dup {
					t.Fatalf("sessions %d and %d share a problem shape", prev, s)
				}
				shapes[h] = s
			} else if h != shape {
				t.Fatalf("session %d op %d leaves the session's shape", s, i)
			}
			switch q.Kind {
			case "cold":
				if i != 0 {
					t.Fatalf("session %d op %d: cold op after the base", s, i)
				}
			case "revisit":
				recent := bodies[max(0, len(bodies)-revisitWindow):]
				if !slices.ContainsFunc(recent, func(b []byte) bool { return bytes.Equal(b, q.Body) }) {
					t.Fatalf("session %d op %d revisits no variant among the last %d", s, i, revisitWindow)
				}
				continue
			case "edit":
				changed := tauDiff(t, variants[len(variants)-1], doc)
				if len(changed) < 1 || len(changed) > maxDirty || !slices.Equal(changed, q.Dirty) {
					t.Fatalf("session %d op %d changes %v, declared %v", s, i, changed, q.Dirty)
				}
				if slices.ContainsFunc(bodies, func(b []byte) bool { return bytes.Equal(b, q.Body) }) {
					t.Fatalf("session %d op %d: an edit recreates an earlier variant", s, i)
				}
			default:
				t.Fatalf("session %d op %d has kind %q", s, i, q.Kind)
			}
			variants = append(variants, doc)
			bodies = append(bodies, q.Body)
		}
	}
}

// tauDiff requires b to differ from a only in ordinary processes' execution
// times and returns those processes' names, sorted.
func tauDiff(t *testing.T, a, b *textio.ProblemDoc) []string {
	t.Helper()
	ca, cb := *a, *b
	ca.Processes, cb.Processes = nil, nil
	ha, _ := textio.ProblemHash(&ca)
	hb, _ := textio.ProblemHash(&cb)
	if ha != hb || len(a.Processes) != len(b.Processes) {
		t.Fatal("edit changes more than execution times")
	}
	var names []string
	for i, p := range b.Processes {
		q := a.Processes[i]
		if p.Name != q.Name || p.Kind != q.Kind || p.PE != q.PE {
			t.Fatalf("edit changes process %s beyond its execution time", p.Name)
		}
		if p.Exec != q.Exec {
			if p.Kind != "ordinary" {
				t.Fatalf("edit changes %s process %s", p.Kind, p.Name)
			}
			names = append(names, p.Name)
		}
	}
	slices.Sort(names)
	return names
}

func TestColdProblemsAreDistinct(t *testing.T) {
	units, err := scheduleUnits(3, "cold", 2*gridCells)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, u := range units {
		doc, err := textio.ReadProblem(bytes.NewReader(u[0].Body))
		if err != nil {
			t.Fatal(err)
		}
		h, err := textio.ProblemShapeHash(doc)
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			t.Fatal("two cold problems share a shape, so one could hit the memo or warm-start")
		}
		seen[h] = true
	}
}
