package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
	"repro/internal/table"
)

// fixture builds a two-processor conditional graph and a hand-written,
// correct schedule table for it.
//
//	D (pe1, 3) decides C
//	  --C-->  comm(bus,2) --> T (pe2, 4)
//	  --!C--> F (pe1, 2)
//	  T/F --> J (pe1, 1)   (conjunction; F local, T via comm(bus,2))
func fixture(t *testing.T) (*cpg.Graph, *arch.Architecture, map[string]cpg.ProcID, cond.Cond, []*cpg.Path) {
	t.Helper()
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	pe2 := a.AddProcessor("pe2", 1)
	bus := a.AddBus("bus", true)
	a.SetCondTime(1)

	g := cpg.New("sim-fixture")
	d := g.AddProcess("D", 3, pe1)
	tr := g.AddProcess("T", 4, pe2)
	f := g.AddProcess("F", 2, pe1)
	j := g.AddProcess("J", 1, pe1)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, tr, c, true)
	g.AddCondEdge(d, f, c, false)
	g.AddEdge(tr, j)
	g.AddEdge(f, j)
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(2, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("expected 2 paths, got %d", len(paths))
	}
	ids := map[string]cpg.ProcID{"D": d, "T": tr, "F": f, "J": j}
	// Name the comm processes by their neighbours: each has one edge in and
	// one edge out.
	pred, succ := map[cpg.ProcID]cpg.ProcID{}, map[cpg.ProcID]cpg.ProcID{}
	for _, e := range g.Edges() {
		pred[e.To], succ[e.From] = e.From, e.To
	}
	for _, p := range g.Procs() {
		if p.Kind == cpg.KindComm {
			if pred[p.ID] == d && succ[p.ID] == tr {
				ids["cDT"] = p.ID
			}
			if pred[p.ID] == tr && succ[p.ID] == j {
				ids["cTJ"] = p.ID
			}
		}
	}
	return g, a, ids, c, paths
}

// goodTable builds a correct table for the fixture:
//
//	D: 0 (true)
//	broadcast C: 3 (true)
//	comm D->T: 4 under C (after the broadcast occupies the bus during [3,4))
//	T: 6 under C ; F: 3 under !C
//	comm T->J: 10 under C
//	J: 12 under C, 5 under !C
func goodTable(g *cpg.Graph, ids map[string]cpg.ProcID, c cond.Cond) *table.Table {
	tbl := table.New(g.NumProcs())
	cT := cond.MustCube(cond.Lit{Cond: c, Val: true})
	cF := cond.MustCube(cond.Lit{Cond: c, Val: false})
	_ = tbl.Place(sched.ProcKey(ids["D"]), cond.True(), 0)
	_ = tbl.Place(sched.CondKey(c), cond.True(), 3)
	_ = tbl.Place(sched.ProcKey(ids["cDT"]), cT, 4)
	_ = tbl.Place(sched.ProcKey(ids["T"]), cT, 6)
	_ = tbl.Place(sched.ProcKey(ids["F"]), cF, 3)
	_ = tbl.Place(sched.ProcKey(ids["cTJ"]), cT, 10)
	_ = tbl.Place(sched.ProcKey(ids["J"]), cT, 12)
	_ = tbl.Place(sched.ProcKey(ids["J"]), cF, 5)
	return tbl
}

func pathWith(t *testing.T, paths []*cpg.Path, c cond.Cond, val bool) *cpg.Path {
	t.Helper()
	for _, p := range paths {
		if v, ok := p.Label.Value(c); ok && v == val {
			return p
		}
	}
	t.Fatalf("path with condition %v=%v not found", c, val)
	return nil
}

// activation returns the activation of k in the trace.
func activation(tr *Trace, k sched.Key) (Activation, bool) {
	for _, act := range tr.Activations {
		if act.Key == k {
			return act, true
		}
	}
	return Activation{}, false
}

func TestRunCleanExecution(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)

	trTrue, err := Run(g, a, tbl, pathWith(t, paths, c, true))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(trTrue.Violations) != 0 {
		t.Fatalf("unexpected violations on path C: %v", trTrue.Violations)
	}
	if trTrue.Delay != 13 {
		t.Fatalf("delay on path C = %d, want 13", trTrue.Delay)
	}
	if act, ok := activation(trTrue, sched.ProcKey(ids["T"])); !ok || act.Start != 6 || act.End != 10 {
		t.Fatalf("T timing wrong: %+v, %v", act, ok)
	}

	trFalse, err := Run(g, a, tbl, pathWith(t, paths, c, false))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(trFalse.Violations) != 0 {
		t.Fatalf("unexpected violations on path !C: %v", trFalse.Violations)
	}
	if trFalse.Delay != 6 {
		t.Fatalf("delay on path !C = %d, want 6", trFalse.Delay)
	}
	// F and the comm processes for the true branch must not be activated.
	if _, ok := activation(trFalse, sched.ProcKey(ids["T"])); ok {
		t.Fatalf("inactive process T must not be activated on path !C")
	}
	// The broadcast row has one unconditional time, which applies on both
	// paths.
	for _, tr := range []*Trace{trTrue, trFalse} {
		if act, ok := activation(tr, sched.CondKey(c)); !ok || act.Start != 3 || act.End != 4 {
			t.Fatalf("path %v: broadcast activation %+v, %v, want [3, 4)", tr.Label, act, ok)
		}
	}
}

func TestWorstCase(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)
	subs := make([]*cpg.Subgraph, len(paths))
	for i, p := range paths {
		subs[i] = g.Subgraph(p)
	}
	res, err := WorstCaseSubgraphs(a, tbl, subs, 1)
	if err != nil {
		t.Fatalf("WorstCaseSubgraphs: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.DeltaMax != 13 {
		t.Fatalf("δmax = %d, want 13", res.DeltaMax)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(res.Traces))
	}
}

// TestMissingCoverageDetected leaves F, active only on path !C, without an
// activation time there in two ways: without a row, and with its only entry
// in column C, which never applies on !C. Either way path !C has exactly one
// requirement-3 finding, and path C none.
func TestMissingCoverageDetected(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)
	for _, dropRow := range []bool{true, false} {
		bad := table.New(g.NumProcs())
		for _, k := range tbl.KeysView() {
			for _, e := range tbl.RowView(k) {
				if k == sched.ProcKey(ids["F"]) {
					if dropRow {
						continue
					}
					e.Expr = cond.MustCube(cond.Lit{Cond: c, Val: true})
				}
				_ = bad.Place(k, e.Expr, e.Start)
			}
		}
		for _, val := range []bool{true, false} {
			tr, err := Run(g, a, bad, pathWith(t, paths, c, val))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			var want []table.Violation
			if !val {
				want = []table.Violation{{Kind: table.Requirement3, Path: tr.Label, Key: sched.ProcKey(ids["F"]),
					Text: "path !C, F: requirement 3: no applicable activation time"}}
			}
			if !slices.Equal(tr.Violations, want) {
				t.Fatalf("row dropped %v, path %v: violations %v, want %v", dropRow, tr.Label, tr.Violations, want)
			}
		}
	}
}

func TestDependencyViolationDetected(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)
	bad := table.New(g.NumProcs())
	for _, k := range tbl.Keys() {
		for _, e := range tbl.Row(k) {
			start := e.Start
			if k == sched.ProcKey(ids["J"]) && !e.Expr.IsTrue() {
				if v, _ := e.Expr.Value(c); !v {
					start = 1 // before F terminates
				}
			}
			_ = bad.Place(k, e.Expr, start)
		}
	}
	tr, err := Run(g, a, bad, pathWith(t, paths, c, false))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, v := range tr.Violations {
		if v.Key == sched.ProcKey(ids["J"]) && v.Kind == table.Dependency {
			found = true
		}
	}
	if !found {
		t.Fatalf("dependency violation not detected: %v", tr.Violations)
	}
}

func TestRequirement4ViolationDetected(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)
	bad := table.New(g.NumProcs())
	for _, k := range tbl.Keys() {
		for _, e := range tbl.Row(k) {
			start := e.Start
			// T activated under column C at t=3: the broadcast only ends at
			// 4, so pe2 cannot know C at 3 (and the data has not arrived).
			if k == sched.ProcKey(ids["T"]) {
				start = 3
			}
			_ = bad.Place(k, e.Expr, start)
		}
	}
	tr, err := Run(g, a, bad, pathWith(t, paths, c, true))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	req4 := false
	for _, v := range tr.Violations {
		if v.Key == sched.ProcKey(ids["T"]) && v.Kind == table.Requirement4 {
			req4 = true
		}
	}
	if !req4 {
		t.Fatalf("requirement 4 violation not detected: %v", tr.Violations)
	}
}

func TestResourceOverlapDetected(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)
	bad := table.New(g.NumProcs())
	for _, k := range tbl.Keys() {
		for _, e := range tbl.Row(k) {
			start := e.Start
			// Move F on top of D on the same processor.
			if k == sched.ProcKey(ids["F"]) {
				start = 1
			}
			_ = bad.Place(k, e.Expr, start)
		}
	}
	tr, err := Run(g, a, bad, pathWith(t, paths, c, false))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	overlap := false
	for _, v := range tr.Violations {
		if v.Key == sched.ProcKey(ids["F"]) && v.Kind == table.Overlap {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("resource overlap not detected: %v", tr.Violations)
	}
}

func TestAmbiguousActivationDetected(t *testing.T) {
	g, a, ids, c, paths := fixture(t)
	tbl := goodTable(g, ids, c)
	// Add a second, different activation time for D that also applies.
	_ = tbl.Place(sched.ProcKey(ids["D"]), cond.MustCube(cond.Lit{Cond: c, Val: true}), 2)
	tr, err := Run(g, a, tbl, pathWith(t, paths, c, true))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ambiguous := false
	for _, v := range tr.Violations {
		if v.Key == sched.ProcKey(ids["D"]) && v.Kind == table.Requirement3 {
			ambiguous = true
		}
	}
	if !ambiguous {
		t.Fatalf("ambiguous activation not detected: %v", tr.Violations)
	}
}

func TestRunNilArguments(t *testing.T) {
	if _, err := Run(nil, nil, nil, nil); err == nil {
		t.Fatalf("nil arguments must be rejected")
	}
}

// TestOverlapViolationsInPEOrder places two independent processes on each of
// three processors, all at time 0, so every processor reports one overlap.
// The violations must come out in processing-element order, identically on
// every run.
func TestOverlapViolationsInPEOrder(t *testing.T) {
	a := arch.New()
	pes := []arch.PEID{a.AddProcessor("pe0", 1), a.AddProcessor("pe1", 1), a.AddProcessor("pe2", 1)}
	g := cpg.New("overlap-order")
	var procs []cpg.ProcID
	for i := 0; i < 6; i++ {
		procs = append(procs, g.AddProcess(fmt.Sprintf("P%d", i), 2, pes[i%len(pes)]))
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	tbl := table.New(g.NumProcs())
	for _, p := range procs {
		if err := tbl.Place(sched.ProcKey(p), cond.True(), 0); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	var want []string
	for run := 0; run < 200; run++ {
		tr, err := Run(g, a, tbl, paths[0])
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var got []string
		for _, v := range tr.Violations {
			got = append(got, v.String())
		}
		if want == nil {
			want = got
			if len(want) != len(pes) {
				t.Fatalf("got %d violations, want one per processor: %q", len(want), want)
			}
			for i, v := range want {
				if pe := fmt.Sprintf("pe%d", i); !strings.HasSuffix(v, "element "+pe) {
					t.Fatalf("violation %d = %q, want the overlap on %s", i, v, pe)
				}
			}
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d reports violations in a different order:\n got %q\nwant %q", run, got, want)
		}
	}
}
