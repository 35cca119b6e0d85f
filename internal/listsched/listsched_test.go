package listsched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// twoProcArch builds an architecture with two processors, one hardware
// element and one all-connecting bus, τ0 = 1.
// clean reports whether a run reported no lock violation and no resource
// overlap.
func clean(d *Diagnostics) bool {
	return len(d.LockViolations) == 0 && len(d.ResourceOverlaps) == 0
}

func twoProcArch() *arch.Architecture {
	a := arch.New()
	a.AddProcessor("pe1", 1)
	a.AddProcessor("pe2", 1)
	a.AddHardware("hw")
	a.AddBus("bus", true)
	a.SetCondTime(1)
	return a
}

// chainGraph builds A -> B -> C on a single processor.
func chainGraph(t *testing.T, a *arch.Architecture) (*cpg.Graph, []cpg.ProcID) {
	t.Helper()
	pe := a.ComputePEs()[0]
	g := cpg.New("chain")
	x := g.AddProcess("A", 3, pe)
	y := g.AddProcess("B", 4, pe)
	z := g.AddProcess("C", 5, pe)
	g.AddEdge(x, y)
	g.AddEdge(y, z)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, []cpg.ProcID{x, y, z}
}

func singlePath(t *testing.T, g *cpg.Graph) *cpg.Subgraph {
	t.Helper()
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	if len(paths) != 1 {
		t.Fatalf("expected a single path, got %d", len(paths))
	}
	return g.Subgraph(paths[0])
}

func TestChainSchedule(t *testing.T) {
	a := twoProcArch()
	g, ids := chainGraph(t, a)
	ps, diag, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !clean(diag) {
		t.Fatalf("diagnostics not clean: %+v", diag)
	}
	starts := []int64{0, 3, 7}
	for i, id := range ids {
		e, ok := ps.Entry(sched.ProcKey(id))
		if !ok {
			t.Fatalf("missing entry for process %d", id)
		}
		if e.Start != starts[i] {
			t.Fatalf("process %d starts at %d, want %d", id, e.Start, starts[i])
		}
	}
	if ps.Delay != 12 {
		t.Fatalf("delay = %d, want 12", ps.Delay)
	}
}

func TestParallelismAcrossProcessors(t *testing.T) {
	a := twoProcArch()
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	g := cpg.New("par")
	x := g.AddProcess("X", 5, pe1)
	y := g.AddProcess("Y", 7, pe2)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ex, _ := ps.Entry(sched.ProcKey(x))
	ey, _ := ps.Entry(sched.ProcKey(y))
	if ex.Start != 0 || ey.Start != 0 {
		t.Fatalf("independent processes on different processors must start at 0: %v %v", ex, ey)
	}
	if ps.Delay != 7 {
		t.Fatalf("delay = %d, want 7", ps.Delay)
	}
}

func TestSequentialProcessorExclusive(t *testing.T) {
	a := twoProcArch()
	pe1 := a.ComputePEs()[0]
	g := cpg.New("seq")
	x := g.AddProcess("X", 5, pe1)
	y := g.AddProcess("Y", 7, pe1)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ex, _ := ps.Entry(sched.ProcKey(x))
	ey, _ := ps.Entry(sched.ProcKey(y))
	if ex.Start < ey.Start {
		if ex.End > ey.Start {
			t.Fatalf("processes overlap on a sequential processor: %v %v", ex, ey)
		}
	} else if ey.End > ex.Start {
		t.Fatalf("processes overlap on a sequential processor: %v %v", ex, ey)
	}
	if ps.Delay != 12 {
		t.Fatalf("delay = %d, want 12", ps.Delay)
	}
}

func TestHardwareRunsInParallel(t *testing.T) {
	a := twoProcArch()
	hw, _ := a.FindByName("hw")
	g := cpg.New("hw")
	g.AddProcess("X", 5, hw)
	g.AddProcess("Y", 7, hw)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if ps.Delay != 7 {
		t.Fatalf("hardware processes must run in parallel; delay = %d, want 7", ps.Delay)
	}
}

func TestCommunicationOnSharedBus(t *testing.T) {
	a := twoProcArch()
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	bus := a.BroadcastBuses()[0]
	g := cpg.New("comm")
	x := g.AddProcess("X", 2, pe1)
	y := g.AddProcess("Y", 3, pe2)
	z := g.AddProcess("Z", 2, pe1)
	w := g.AddProcess("W", 4, pe2)
	g.AddEdge(x, y)
	g.AddEdge(z, w)
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(3, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, diag, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil || !clean(diag) {
		t.Fatalf("Schedule: %v %+v", err, diag)
	}
	// The two transfers share one bus, so they must not overlap.
	var comm []sched.Entry
	for _, e := range ps.Entries() {
		if !e.Key.IsCond && g.Process(e.Key.Proc).Kind == cpg.KindComm {
			comm = append(comm, e)
		}
	}
	if len(comm) != 2 {
		t.Fatalf("expected 2 communication entries, got %d", len(comm))
	}
	first, second := comm[0], comm[1]
	if first.Start > second.Start {
		first, second = second, first
	}
	if first.End > second.Start {
		t.Fatalf("bus transfers overlap: %v %v", first, second)
	}
	// Each communication starts after its producer terminates.
	exEnd, _ := ps.Entry(sched.ProcKey(x))
	for _, c := range comm {
		producer := cpg.NoProc
		for _, e := range g.Edges() {
			if e.To == c.Key.Proc {
				producer = e.From
			}
		}
		pe, _ := ps.Entry(sched.ProcKey(producer))
		if c.Start < pe.End {
			t.Fatalf("communication starts before its producer finishes")
		}
	}
	_ = exEnd
}

// condGraph builds a cross-processor conditional graph:
//
//	D(pe1, 3) decides condition C
//	  --C-->  T(pe2, 4)
//	  --!C--> F(pe1, 2)
//	  join J(pe2, 1) (conjunction)
func condGraph(t *testing.T, a *arch.Architecture, commTime int64) (*cpg.Graph, map[string]cpg.ProcID, cond.Cond) {
	t.Helper()
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	bus := a.BroadcastBuses()[0]
	g := cpg.New("cond")
	d := g.AddProcess("D", 3, pe1)
	tr := g.AddProcess("T", 4, pe2)
	fa := g.AddProcess("F", 2, pe1)
	j := g.AddProcess("J", 1, pe2)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, tr, c, true)
	g.AddCondEdge(d, fa, c, false)
	g.AddEdge(tr, j)
	g.AddEdge(fa, j)
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(commTime, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, map[string]cpg.ProcID{"D": d, "T": tr, "F": fa, "J": j}, c
}

func TestConditionBroadcastScheduling(t *testing.T) {
	a := twoProcArch()
	g, ids, c := condGraph(t, a, 2)
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	for _, p := range paths {
		ps, diag, err := new(Scratch).Schedule(g.Subgraph(p), a, Options{})
		if err != nil || !clean(diag) {
			t.Fatalf("Schedule(%v): %v %+v", p.Label, err, diag)
		}
		ct, ok := ps.Cond(c)
		if !ok {
			t.Fatalf("condition availability missing on path %v", p.Label)
		}
		dEnd, _ := ps.Entry(sched.ProcKey(ids["D"]))
		if ct.DecidedAt != dEnd.End {
			t.Fatalf("condition decided at %d, want %d", ct.DecidedAt, dEnd.End)
		}
		if ct.BroadcastStart < ct.DecidedAt {
			t.Fatalf("broadcast starts before the disjunction process terminates")
		}
		if ct.BroadcastEnd != ct.BroadcastStart+a.CondTime {
			t.Fatalf("broadcast duration must be τ0")
		}
		// The broadcast entry occupies the bus.
		be, ok := ps.Entry(sched.CondKey(c))
		if !ok || be.PE != a.BroadcastBuses()[0] {
			t.Fatalf("broadcast entry missing or on wrong bus: %v %v", be, ok)
		}
	}
}

func TestKnowledgeConstraintDelaysRemoteGuardedProcess(t *testing.T) {
	a := twoProcArch()
	g, ids, c := condGraph(t, a, 2)
	// Path C=true: T runs on pe2 and is guarded by C which is decided on
	// pe1 at t=3. T's data arrives through a communication of 2 time units,
	// but it must also wait for the broadcast (1 unit after the decision,
	// possibly queued behind the data transfer on the same bus). In every
	// case T cannot start before the condition is known on pe2.
	label := cond.MustCube(cond.Lit{Cond: c, Val: true})
	ps, diag, err := new(Scratch).Schedule(g.Subgraph(g.PathFor(label)), a, Options{})
	if err != nil || !clean(diag) {
		t.Fatalf("Schedule: %v %+v", err, diag)
	}
	tEntry, _ := ps.Entry(sched.ProcKey(ids["T"]))
	known, ok := ps.KnownTime(c, g.Process(ids["T"]).PE)
	if !ok {
		t.Fatalf("condition availability missing")
	}
	if tEntry.Start < known {
		t.Fatalf("guarded process starts at %d before its condition is known remotely at %d", tEntry.Start, known)
	}
	// On the path !C the guarded process F runs on the same processor as
	// the disjunction process and may start right after it.
	labelF := cond.MustCube(cond.Lit{Cond: c, Val: false})
	psF, _, err := new(Scratch).Schedule(g.Subgraph(g.PathFor(labelF)), a, Options{})
	if err != nil {
		t.Fatalf("Schedule(!C): %v", err)
	}
	fEntry, _ := psF.Entry(sched.ProcKey(ids["F"]))
	dEntry, _ := psF.Entry(sched.ProcKey(ids["D"]))
	if fEntry.Start != dEntry.End {
		t.Fatalf("same-processor guarded process should start right after the decision: start=%d, decision end=%d", fEntry.Start, dEntry.End)
	}
}

func TestDependenciesAlwaysRespected(t *testing.T) {
	a := twoProcArch()
	g, _, _ := condGraph(t, a, 1)
	paths, _ := g.AlternativePaths(0)
	for _, p := range paths {
		sub := g.Subgraph(p)
		ps, _, err := new(Scratch).Schedule(sub, a, Options{})
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		for _, id := range sub.ActiveProcs() {
			e, ok := ps.Entry(sched.ProcKey(id))
			if !ok {
				t.Fatalf("missing entry for %v", id)
			}
			for _, q := range sub.Preds(id) {
				pe, _ := ps.Entry(sched.ProcKey(q))
				if e.Start < pe.End {
					t.Fatalf("process %v starts before predecessor %v finishes", id, q)
				}
			}
		}
	}
}

func TestLockedProcessRespected(t *testing.T) {
	a := twoProcArch()
	g, ids := chainGraph(t, a)
	// Lock B at time 10 (later than its earliest start 3); C must follow.
	locked := NewLocks(g.NumProcs())
	locked.Set(sched.ProcKey(ids[1]), Lock{Start: 10})
	ps, diag, err := new(Scratch).Schedule(singlePath(t, g), a, Options{Locked: locked})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !clean(diag) {
		t.Fatalf("unexpected diagnostics: %+v", diag)
	}
	b, _ := ps.Entry(sched.ProcKey(ids[1]))
	cEntry, _ := ps.Entry(sched.ProcKey(ids[2]))
	if b.Start != 10 {
		t.Fatalf("locked process starts at %d, want 10", b.Start)
	}
	if cEntry.Start < b.End {
		t.Fatalf("successor of a locked process must wait for it")
	}
	if ps.Delay != 19 {
		t.Fatalf("delay = %d, want 19", ps.Delay)
	}
}

func TestLockedViolationReported(t *testing.T) {
	a := twoProcArch()
	g, ids := chainGraph(t, a)
	// Locking B before its predecessor ends is infeasible.
	locked := NewLocks(g.NumProcs())
	locked.Set(sched.ProcKey(ids[1]), Lock{Start: 1})
	ps, diag, err := new(Scratch).Schedule(singlePath(t, g), a, Options{Locked: locked})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(diag.LockViolations) != 1 {
		t.Fatalf("expected one lock violation, got %+v", diag)
	}
	// The process must still be scheduled after its predecessor, never at
	// the infeasible locked time.
	b, _ := ps.Entry(sched.ProcKey(ids[1]))
	aEnd, _ := ps.Entry(sched.ProcKey(ids[0]))
	if b.Start < aEnd.End {
		t.Fatalf("violating lock must fall back to a feasible start: B=%d, A ends at %d", b.Start, aEnd.End)
	}
}

func TestUnlockedProcessesScheduleAroundLocks(t *testing.T) {
	a := twoProcArch()
	pe1 := a.ComputePEs()[0]
	g := cpg.New("around")
	x := g.AddProcess("X", 2, pe1)
	y := g.AddProcess("Y", 3, pe1)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	// Lock Y to start at 1; X (unlocked, same processor) must not overlap it.
	locked := NewLocks(g.NumProcs())
	locked.Set(sched.ProcKey(y), Lock{Start: 1})
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{Locked: locked})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ex, _ := ps.Entry(sched.ProcKey(x))
	ey, _ := ps.Entry(sched.ProcKey(y))
	if ey.Start != 1 {
		t.Fatalf("locked start moved to %d", ey.Start)
	}
	if ex.Start < ey.End && ex.End > ey.Start {
		t.Fatalf("unlocked process overlaps the locked reservation: %v vs %v", ex, ey)
	}
}

func TestFixedOrderPriorityKeepsRelativeOrder(t *testing.T) {
	a := twoProcArch()
	pe1 := a.ComputePEs()[0]
	g := cpg.New("order")
	x := g.AddProcess("X", 2, pe1)
	y := g.AddProcess("Y", 2, pe1)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	sub := singlePath(t, g)
	// With the fixed order "Y before X" the scheduler must start Y first
	// even though the default tie-break would pick X.
	// The dummy source and sink have no value and follow in ProcID order.
	order := make([]int64, max(x, y)+1)
	order[y], order[x] = 0, 5
	ps, _, err := new(Scratch).Schedule(sub, a, Options{Priority: PriorityFixedOrder, Order: order})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ex, _ := ps.Entry(sched.ProcKey(x))
	ey, _ := ps.Entry(sched.ProcKey(y))
	if !(ey.Start == 0 && ex.Start == 2) {
		t.Fatalf("fixed order not respected: X=%v Y=%v", ex, ey)
	}
}

// TestFixedOrderWithoutValuesFollowsProcID pins the fixed-order fallback:
// processes without an Order value are picked after every ordered one, in
// ProcID order and not by critical path.
func TestFixedOrderWithoutValuesFollowsProcID(t *testing.T) {
	a := twoProcArch()
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	g := cpg.New("unordered")
	// Three processes compete for pe1. A(2)->B(9) has the longest remaining
	// path, so the critical-path priority runs A first.
	cProc := g.AddProcess("C", 2, pe1)
	dProc := g.AddProcess("D", 2, pe1)
	aProc := g.AddProcess("A", 2, pe1)
	b := g.AddProcess("B", 9, pe2)
	g.AddEdge(aProc, b)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	sub := singlePath(t, g)
	starts := func(order []int64) [3]int64 {
		t.Helper()
		ps, _, err := new(Scratch).Schedule(sub, a, Options{Priority: PriorityFixedOrder, Order: order})
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		var out [3]int64
		for i, p := range []cpg.ProcID{cProc, dProc, aProc} {
			e, _ := ps.Entry(sched.ProcKey(p))
			out[i] = e.Start
		}
		return out
	}
	if got, want := starts(nil), [3]int64{0, 2, 4}; got != want {
		t.Fatalf("nil order: starts of C, D, A = %v, want %v (ProcID order)", got, want)
	}
	// C and D have values (D first); A has none and follows both.
	order := make([]int64, dProc+1)
	order[cProc], order[dProc] = 5, 0
	if got, want := starts(order), [3]int64{2, 0, 4}; got != want {
		t.Fatalf("partial order: starts of C, D, A = %v, want %v", got, want)
	}
}

func TestCriticalPathPriorityPicksLongChainFirst(t *testing.T) {
	a := twoProcArch()
	pe1, pe2 := a.ComputePEs()[0], a.ComputePEs()[1]
	g := cpg.New("cp")
	// Two chains compete for pe1's first slot: A(2)->B(9) on pe2 and C(2).
	// A has the longer remaining path and must be scheduled first.
	aProc := g.AddProcess("A", 2, pe1)
	b := g.AddProcess("B", 9, pe2)
	cProc := g.AddProcess("C", 2, pe1)
	g.AddEdge(aProc, b)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{Priority: PriorityCriticalPath})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ea, _ := ps.Entry(sched.ProcKey(aProc))
	ec, _ := ps.Entry(sched.ProcKey(cProc))
	if ea.Start != 0 || ec.Start != 2 {
		t.Fatalf("critical path priority violated: A=%v C=%v", ea, ec)
	}
	if ps.Delay != 11 {
		t.Fatalf("delay = %d, want 11", ps.Delay)
	}
}

func TestProcessorSpeedScaling(t *testing.T) {
	a := arch.New()
	slow := a.AddProcessor("slow", 1)
	fast := a.AddProcessor("fast", 2)
	a.AddBus("bus", true)
	g := cpg.New("speed")
	x := g.AddProcess("X", 10, slow)
	y := g.AddProcess("Y", 10, fast)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ex, _ := ps.Entry(sched.ProcKey(x))
	ey, _ := ps.Entry(sched.ProcKey(y))
	if ex.End-ex.Start != 10 || ey.End-ey.Start != 5 {
		t.Fatalf("speed scaling wrong: slow=%d fast=%d", ex.End-ex.Start, ey.End-ey.Start)
	}
}

func TestScheduleNilInputs(t *testing.T) {
	if _, _, err := new(Scratch).Schedule(nil, nil, Options{}); err == nil {
		t.Fatalf("nil inputs must be rejected")
	}
}

func TestSingleProcessorNoBroadcastNeeded(t *testing.T) {
	a := arch.New()
	pe := a.AddProcessor("pe", 1)
	g := cpg.New("single")
	d := g.AddProcess("D", 2, pe)
	x := g.AddProcess("X", 3, pe)
	y := g.AddProcess("Y", 4, pe)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, x, c, true)
	g.AddCondEdge(d, y, c, false)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	label := cond.MustCube(cond.Lit{Cond: c, Val: true})
	ps, _, err := new(Scratch).Schedule(g.Subgraph(g.PathFor(label)), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	ct, ok := ps.Cond(c)
	if !ok {
		t.Fatalf("condition timing missing")
	}
	if ct.Bus != arch.NoPE {
		t.Fatalf("single-processor systems must not broadcast, bus=%v", ct.Bus)
	}
	ex, _ := ps.Entry(sched.ProcKey(x))
	if ex.Start != 2 {
		t.Fatalf("guarded process should start right after the decision, got %d", ex.Start)
	}
}

func TestPriorityString(t *testing.T) {
	if PriorityCriticalPath.String() != "critical-path" || PriorityFixedOrder.String() != "fixed-order" {
		t.Fatalf("priority names wrong")
	}
	if Priority(9).String() == "" {
		t.Fatalf("unknown priority must render something")
	}
}
