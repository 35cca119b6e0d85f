package sim_test

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

// pathKey is one (path, activity) pair of a re-enactment.
type pathKey struct {
	path cond.Cube
	key  sched.Key
}

// requirement3Oracle finds, by brute force over every alternative path and
// every activity active on it, the pairs that fail requirement 3: no
// applicable activation time ("no applicable"), or applicable times that
// disagree ("ambiguous"). A broadcast is active where its disjunction
// process is, on an architecture that broadcasts.
func requirement3Oracle(g *cpg.Graph, a *arch.Architecture, tbl *table.Table, paths []*cpg.Path) map[pathKey]string {
	out := map[pathKey]string{}
	for _, p := range paths {
		var keys []sched.Key
		for _, proc := range g.Procs() {
			if p.IsActive(proc.ID) && !proc.IsDummy() {
				keys = append(keys, sched.ProcKey(proc.ID))
			}
		}
		for _, cd := range g.Conditions() {
			if p.IsActive(cd.Decider) && a.Broadcasts() {
				keys = append(keys, sched.CondKey(cd.ID))
			}
		}
		for _, k := range keys {
			starts := map[int64]bool{}
			for _, e := range tbl.RowView(k) {
				if p.Label.Implies(e.Expr) {
					starts[e.Start] = true
				}
			}
			switch {
			case len(starts) == 0:
				out[pathKey{p.Label, k}] = "no applicable"
			case len(starts) > 1:
				out[pathKey{p.Label, k}] = "ambiguous"
			}
		}
	}
	return out
}

// TestEachFindingOnce corrupts the Figure-1 table three ways and compares the
// one violation list, made as core makes it (the row checks, then the
// re-enactment of every path), with requirement3Oracle: every uncovered or
// ambiguous pair appears exactly once, typed requirement 3 and named with the
// graph's names, and no requirement-3 finding appears that the oracle lacks.
func TestEachFindingOnce(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	res, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	proc := func(name string) sched.Key {
		for _, p := range g.Procs() {
			if p.Name == name {
				return sched.ProcKey(p.ID)
			}
		}
		t.Fatalf("no process %s", name)
		return sched.Key{}
	}
	cC := cond.MustCube(cond.Lit{Cond: condNamed(t, g, "C"), Val: true})
	notC := cond.MustCube(cond.Lit{Cond: condNamed(t, g, "C"), Val: false})
	// Each case edits every entry of the table through edit (dropping the
	// entry when it returns false) and then places extra.
	type placement struct {
		key   sched.Key
		entry table.Entry
	}
	cases := []struct {
		name  string
		edit  func(sched.Key, table.Entry) (table.Entry, bool)
		extra []placement
	}{
		{name: "clean", edit: func(_ sched.Key, e table.Entry) (table.Entry, bool) { return e, true }},
		{
			// P9 keeps its row, with its time under C only: it is
			// uncovered on every !C path.
			name: "drop an entry",
			edit: func(k sched.Key, e table.Entry) (table.Entry, bool) {
				return e, k != proc("P9") || e.Expr != notC
			},
		},
		{
			// P3 is activated at 4 under true and at 5 under C: both
			// apply on every C path.
			name:  "add a second applicable time",
			edit:  func(_ sched.Key, e table.Entry) (table.Entry, bool) { return e, true },
			extra: []placement{{proc("P3"), table.Entry{Expr: cC, Start: 5}}},
		},
		{
			// P2's only time moves from true to C, which never applies
			// on a !C path.
			name: "move an entry to a column that does not always apply",
			edit: func(k sched.Key, e table.Entry) (table.Entry, bool) {
				if k == proc("P2") {
					e.Expr = cC
				}
				return e, true
			},
		},
	}
	for _, tc := range cases {
		tbl := table.New(g.NumProcs())
		for _, k := range res.Table.KeysView() {
			for _, e := range res.Table.RowView(k) {
				if e, keep := tc.edit(k, e); keep {
					if err := tbl.Place(k, e.Expr, e.Start); err != nil {
						t.Fatalf("%s: Place: %v", tc.name, err)
					}
				}
			}
		}
		for _, x := range tc.extra {
			if err := tbl.Place(x.key, x.entry.Expr, x.entry.Start); err != nil {
				t.Fatalf("%s: Place: %v", tc.name, err)
			}
		}
		want := requirement3Oracle(g, a, tbl, paths)
		if (len(want) == 0) != (tc.name == "clean") {
			t.Fatalf("%s: the oracle finds %d pairs", tc.name, len(want))
		}
		simRes, err := sim.WorstCaseSubgraphs(a, tbl, res.Subgraphs, 1)
		if err != nil {
			t.Fatalf("%s: WorstCaseSubgraphs: %v", tc.name, err)
		}
		got := map[pathKey]int{}
		for _, v := range append(tbl.Validate(g), simRes.Violations...) {
			if v.Kind != table.Requirement3 {
				continue
			}
			pk := pathKey{v.Path, v.Key}
			got[pk]++
			what, ok := want[pk]
			if !ok {
				t.Errorf("%s: %q is not a requirement-3 pair of the oracle", tc.name, v)
				continue
			}
			name := res.RowName(v.Key)
			if v.Key.IsCond {
				name = "broadcast " + name
			}
			if prefix := "path " + v.Path.Format(g.CondName) + ", " + name + ": requirement 3: " + what; !strings.HasPrefix(v.String(), prefix) {
				t.Errorf("%s: finding %q, want it to begin with %q", tc.name, v, prefix)
			}
		}
		for pk, what := range want {
			if got[pk] != 1 {
				t.Errorf("%s: %s pair (%s, %s) reported %d times, want once",
					tc.name, what, pk.path.Format(g.CondName), res.RowName(pk.key), got[pk])
			}
		}
	}
}

// TestMissingBroadcastRows strips the broadcast rows from the Figure-1 table.
// Its architecture broadcasts (two processors and an ASIC on a broadcast
// bus), so each path then misses one activation per condition it decides:
// exactly requirement3Oracle's 16 pairs, each reported once as requirement
// 3. On a single processor nothing is broadcast, and the table the
// scheduler makes there, which has no broadcast rows, re-enacts cleanly.
func TestMissingBroadcastRows(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	res, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	tbl := table.New(g.NumProcs())
	for _, k := range res.Table.KeysView() {
		for _, e := range res.Table.RowView(k) {
			if !k.IsCond {
				if err := tbl.Place(k, e.Expr, e.Start); err != nil {
					t.Fatalf("Place: %v", err)
				}
			}
		}
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	want := requirement3Oracle(g, a, tbl, paths)
	if len(want) != 16 {
		t.Fatalf("the oracle finds %d pairs, want 16", len(want))
	}
	simRes, err := sim.WorstCaseSubgraphs(a, tbl, res.Subgraphs, 1)
	if err != nil {
		t.Fatalf("WorstCaseSubgraphs: %v", err)
	}
	if len(simRes.Violations) != len(want) {
		t.Errorf("%d findings, want %d: %v", len(simRes.Violations), len(want), simRes.Violations)
	}
	for _, v := range simRes.Violations {
		pk := pathKey{v.Path, v.Key}
		if v.Kind != table.Requirement3 || !v.Key.IsCond || want[pk] != "no applicable" {
			t.Errorf("finding %q is not a missing broadcast", v)
		}
		delete(want, pk)
	}

	single := arch.New()
	cpu := single.AddProcessor("cpu", 1)
	single.AddBus("bus", true)
	g1 := cpg.New("single")
	d := g1.AddProcess("D", 2, cpu)
	x := g1.AddProcess("X", 3, cpu)
	y := g1.AddProcess("Y", 4, cpu)
	c := g1.AddCondition("C", d)
	g1.AddCondEdge(d, x, c, true)
	g1.AddCondEdge(d, y, c, false)
	res1, err := core.Schedule(g1, single, core.Options{})
	if err != nil {
		t.Fatalf("Schedule (one processor): %v", err)
	}
	if rows := res1.Table.RowView(sched.CondKey(c)); len(rows) != 0 {
		t.Fatalf("one processor: broadcast row %v, want none", rows)
	}
	simRes1, err := sim.WorstCaseSubgraphs(single, res1.Table, res1.Subgraphs, 1)
	if err != nil {
		t.Fatalf("WorstCaseSubgraphs (one processor): %v", err)
	}
	if len(simRes1.Violations) != 0 || simRes1.DeltaMax != res1.DeltaMax {
		t.Errorf("one processor: findings %v, δmax %d, want none and %d", simRes1.Violations, simRes1.DeltaMax, res1.DeltaMax)
	}
}

// condNamed returns the condition of g with the given name.
func condNamed(t *testing.T, g *cpg.Graph, name string) cond.Cond {
	t.Helper()
	for _, cd := range g.Conditions() {
		if g.CondName(cd.ID) == name {
			return cd.ID
		}
	}
	t.Fatalf("no condition %s", name)
	return 0
}
