package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/listsched"
	"repro/internal/sched"
	"repro/internal/table"
)

func archN(procs int, withHW bool) *arch.Architecture {
	a := arch.New()
	for i := 0; i < procs; i++ {
		a.AddProcessor("", 1)
	}
	if withHW {
		a.AddHardware("hw")
	}
	a.AddBus("bus", true)
	a.SetCondTime(1)
	return a
}

// diamondProblem builds the single-processor diamond used across packages.
func diamondProblem(t *testing.T) (*cpg.Graph, *arch.Architecture, cond.Cond) {
	t.Helper()
	a := archN(1, false)
	pe := a.ComputePEs()[0]
	g := cpg.New("diamond")
	p1 := g.AddProcess("P1", 2, pe)
	p2 := g.AddProcess("P2", 3, pe)
	p3 := g.AddProcess("P3", 5, pe)
	p4 := g.AddProcess("P4", 1, pe)
	c := g.AddCondition("C", p1)
	g.AddCondEdge(p1, p2, c, true)
	g.AddCondEdge(p1, p3, c, false)
	g.AddEdge(p2, p4)
	g.AddEdge(p3, p4)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, a, c
}

// crossProblem builds a two-processor graph with two nested conditions and
// communication processes, giving three alternative paths.
func crossProblem(t *testing.T) (*cpg.Graph, *arch.Architecture) {
	t.Helper()
	a := archN(2, true)
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	hw, _ := a.FindByName("hw")
	bus := a.BroadcastBuses()[0]
	g := cpg.New("cross")
	d1 := g.AddProcess("D1", 3, pe1) // decides C
	t1 := g.AddProcess("T1", 4, pe2) // C
	f1 := g.AddProcess("F1", 6, pe1) // !C
	d2 := g.AddProcess("D2", 2, pe2) // decides K, only on C
	t2 := g.AddProcess("T2", 5, hw)  // C & K
	f2 := g.AddProcess("F2", 3, pe2) // C & !K
	j2 := g.AddProcess("J2", 2, pe2) // joins K branches
	j1 := g.AddProcess("J1", 1, pe1) // joins C branches
	x := g.AddProcess("X", 4, pe1)   // independent work on pe1
	c := g.AddCondition("C", d1)
	k := g.AddCondition("K", d2)
	g.AddCondEdge(d1, t1, c, true)
	g.AddCondEdge(d1, f1, c, false)
	g.AddEdge(t1, d2)
	g.AddCondEdge(d2, t2, k, true)
	g.AddCondEdge(d2, f2, k, false)
	g.AddEdge(t2, j2)
	g.AddEdge(f2, j2)
	g.AddEdge(j2, j1)
	g.AddEdge(f1, j1)
	g.AddEdge(d1, x)
	g.AddEdge(x, j1)
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(2, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, a
}

func TestScheduleDiamond(t *testing.T) {
	g, a, c := diamondProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(res.Paths))
	}
	if !res.Deterministic() {
		t.Fatalf("diamond table must be deterministic: %v", res.Violations)
	}
	// Longest path: !C with 2+5+1 = 8; shortest: 2+3+1 = 6.
	if res.DeltaM != 8 {
		t.Fatalf("δM = %d, want 8", res.DeltaM)
	}
	if res.DeltaMax < res.DeltaM {
		t.Fatalf("δmax (%d) must never be smaller than δM (%d)", res.DeltaMax, res.DeltaM)
	}
	// On a single processor with one condition decided first, the merge
	// cannot disturb anything: δmax == δM.
	if res.DeltaMax != 8 {
		t.Fatalf("δmax = %d, want 8", res.DeltaMax)
	}
	if res.IncreasePercent() != 0 {
		t.Fatalf("increase = %v, want 0", res.IncreasePercent())
	}
	// The table must contain a row for every ordinary process.
	for _, p := range g.Procs() {
		if p.Kind != cpg.KindOrdinary {
			continue
		}
		if len(res.Table.Row(sched.ProcKey(p.ID))) == 0 {
			t.Fatalf("process %s has no activation time", p.Name)
		}
	}
	_ = c
}

func TestLongestPathExecutesInDeltaM(t *testing.T) {
	g, a := crossProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	found := false
	for _, p := range res.Paths {
		if p.OptimalDelay == res.DeltaM {
			found = true
			if p.TableDelay != res.DeltaM {
				t.Fatalf("the longest path must execute in exactly δM: optimal %d, table %d", p.OptimalDelay, p.TableDelay)
			}
		}
		if p.TableDelay < p.OptimalDelay {
			t.Fatalf("table delay (%d) cannot beat the optimal path delay (%d) on %v", p.TableDelay, p.OptimalDelay, p.Label)
		}
	}
	if !found {
		t.Fatalf("no path matches δM")
	}
}

func TestScheduleCrossProblemDeterministic(t *testing.T) {
	g, a := crossProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(res.Paths) != 3 {
		t.Fatalf("paths = %d, want 3 (C&K, C&!K, !C)", len(res.Paths))
	}
	if !res.Deterministic() {
		t.Fatalf("table not deterministic:\n%v", res.Violations)
	}
	if res.DeltaMax < res.DeltaM || res.DeltaM <= 0 {
		t.Fatalf("delays inconsistent: δM=%d δmax=%d", res.DeltaM, res.DeltaMax)
	}
	if res.Stats.Paths != 3 || res.Stats.BackSteps < 2 {
		t.Fatalf("stats look wrong: %+v", res.Stats)
	}
	if res.Stats.Columns < 2 || res.Stats.Entries == 0 {
		t.Fatalf("table stats look wrong: %+v", res.Stats)
	}
	// Condition broadcast rows must exist (multi-processor system).
	if len(res.Table.Row(sched.CondKey(0))) == 0 {
		t.Fatalf("broadcast row for condition C missing")
	}
	// The rendering must work with the result's row namer.
	out := res.Table.Render(table.RenderOptions{Namer: g.CondName, RowName: res.RowName})
	if len(out) == 0 {
		t.Fatalf("empty rendering")
	}
}

func TestGuardedProcessesOnlyActivatedWhenGuardHolds(t *testing.T) {
	g, a := crossProblem(t)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// Requirement 1 structurally: every entry expression implies the guard.
	for _, k := range res.Table.Keys() {
		if k.IsCond {
			continue
		}
		guard := g.Guard(k.Proc)
		for _, e := range res.Table.Row(k) {
			if !cond.FromCube(e.Expr).Implies(guard) {
				t.Fatalf("entry %v of %s does not imply guard %v", e, g.Process(k.Proc).Name, guard)
			}
		}
	}
}

func TestPathSelectionAblations(t *testing.T) {
	g, a := crossProblem(t)
	for _, sel := range []PathSelection{SelectLargestDelay, SelectSmallestDelay, SelectFirst} {
		res, err := Schedule(g, a, Options{PathSelection: sel})
		if err != nil {
			t.Fatalf("Schedule(%v): %v", sel, err)
		}
		if !res.Deterministic() {
			t.Fatalf("selection %v produced a non-deterministic table: %v", sel, res.Violations)
		}
		if res.DeltaMax < res.DeltaM {
			t.Fatalf("selection %v: δmax < δM", sel)
		}
	}
	if SelectLargestDelay.String() != "largest-delay" || SelectSmallestDelay.String() != "smallest-delay" || SelectFirst.String() != "first" {
		t.Fatalf("selection names wrong")
	}
	if PathSelection(9).String() == "" || ConflictPolicy(9).String() == "" {
		t.Fatalf("unknown enum names must render")
	}
}

func TestConflictPolicyAblation(t *testing.T) {
	g, a := crossProblem(t)
	for _, pol := range []ConflictPolicy{ConflictMoveToExisting, ConflictDelayToLatest} {
		res, err := Schedule(g, a, Options{ConflictPolicy: pol})
		if err != nil {
			t.Fatalf("Schedule(%v): %v", pol, err)
		}
		if res.DeltaMax < res.DeltaM {
			t.Fatalf("policy %v: δmax < δM", pol)
		}
	}
	if ConflictMoveToExisting.String() != "move-to-existing" || ConflictDelayToLatest.String() != "delay-to-latest" {
		t.Fatalf("conflict policy names wrong")
	}
}

func TestPathPriorityAblation(t *testing.T) {
	g, a := crossProblem(t)
	res, err := Schedule(g, a, Options{PathPriority: listsched.PriorityCriticalPath})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res2, err := Schedule(g, a, Options{PathPriority: listsched.PriorityFixedOrder})
	if err != nil {
		t.Fatalf("Schedule(fixed-order): %v", err)
	}
	if res.DeltaM <= 0 || res2.DeltaM <= 0 {
		t.Fatalf("δM must be positive for both priorities")
	}
}

func TestScheduleWithSpeedScaledProcessors(t *testing.T) {
	a := arch.New()
	slow := a.AddProcessor("slow", 1)
	fast := a.AddProcessor("fast", 2)
	a.AddBus("bus", true)
	g := cpg.New("speed")
	d := g.AddProcess("D", 4, slow)
	x := g.AddProcess("X", 8, fast)
	y := g.AddProcess("Y", 8, slow)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, x, c, true)
	g.AddCondEdge(d, y, c, false)
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(1, a.BroadcastBuses()[0])); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !res.Deterministic() {
		t.Fatalf("violations: %v", res.Violations)
	}
	// Path !C keeps everything on the slow processor: 4 + 8 = 12.
	// Path C sends data to the fast processor: 4 + 1 (comm) + 4 = 9 at
	// least, plus possibly waiting for the broadcast.
	if res.DeltaM != 12 {
		t.Fatalf("δM = %d, want 12", res.DeltaM)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := Schedule(nil, nil, Options{}); err == nil {
		t.Fatalf("nil inputs must be rejected")
	}
	// An architecture that fails validation must be rejected.
	g, _, _ := diamondProblem(t)
	bad := arch.New()
	if _, err := Schedule(g, bad, Options{}); err == nil {
		t.Fatalf("invalid architecture must be rejected")
	}
}

func TestScheduleFinalizesUnfinalizedGraph(t *testing.T) {
	a := archN(1, false)
	pe := a.ComputePEs()[0]
	g := cpg.New("auto-finalize")
	p1 := g.AddProcess("A", 1, pe)
	p2 := g.AddProcess("B", 2, pe)
	g.AddEdge(p1, p2)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule must finalize the graph itself: %v", err)
	}
	if res.DeltaM != 3 || res.DeltaMax != 3 {
		t.Fatalf("delays = %d/%d, want 3/3", res.DeltaM, res.DeltaMax)
	}
}

// wideProblem builds a graph with three independent conditions in series and
// cross-processor branches: 8 alternative paths that stress the merging.
func wideProblem(t *testing.T, procs int) (*cpg.Graph, *arch.Architecture) {
	t.Helper()
	a := archN(procs, true)
	pes := a.ComputePEs()[:procs]
	hw, _ := a.FindByName("hw")
	bus := a.BroadcastBuses()[0]
	g := cpg.New("wide")
	prev := g.AddProcess("start", 2, pes[0])
	execs := []int64{3, 7, 4, 9, 5, 6}
	for i := 0; i < 3; i++ {
		d := g.AddProcess("", 2+int64(i), pes[i%len(pes)])
		g.AddEdge(prev, d)
		c := g.AddCondition("", d)
		tb := g.AddProcess("", execs[2*i], pes[(i+1)%len(pes)])
		fb := g.AddProcess("", execs[2*i+1], hw)
		j := g.AddProcess("", 1, pes[i%len(pes)])
		g.AddCondEdge(d, tb, c, true)
		g.AddCondEdge(d, fb, c, false)
		g.AddEdge(tb, j)
		g.AddEdge(fb, j)
		prev = j
	}
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(2, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, a
}

func TestScheduleWideProblem(t *testing.T) {
	for _, procs := range []int{1, 2, 3} {
		g, a := wideProblem(t, procs)
		res, err := Schedule(g, a, Options{})
		if err != nil {
			t.Fatalf("Schedule(%d processors): %v", procs, err)
		}
		if len(res.Paths) != 8 {
			t.Fatalf("paths = %d, want 8", len(res.Paths))
		}
		if !res.Deterministic() {
			t.Fatalf("%d processors: violations:\n%v", procs, res.Violations)
		}
		if res.DeltaMax < res.DeltaM {
			t.Fatalf("δmax < δM with %d processors", procs)
		}
		for _, p := range res.Paths {
			if p.TableDelay < p.OptimalDelay {
				t.Fatalf("path %v: table delay %d below optimal %d", p.Label, p.TableDelay, p.OptimalDelay)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g, a := wideProblem(t, 2)
	res, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	s := res.Stats
	if s.Paths != 8 {
		t.Fatalf("stats.Paths = %d", s.Paths)
	}
	// A binary tree over 8 leaves has 7 internal nodes, hence 7 back-steps.
	if s.BackSteps != 7 {
		t.Fatalf("stats.BackSteps = %d, want 7", s.BackSteps)
	}
	if s.Entries != res.Table.NumEntries() || s.Columns != len(res.Table.Columns()) {
		t.Fatalf("entry/column stats inconsistent: %+v", s)
	}
	if s.ConflictsResolved+s.UnresolvedConflicts > s.Conflicts {
		t.Fatalf("conflict accounting inconsistent: %+v", s)
	}
}
