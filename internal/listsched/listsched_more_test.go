package listsched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// TestBroadcastPicksFirstAvailableBus builds an architecture with two
// all-connecting buses and blocks the first one with a long transfer around
// the decision moment; the broadcast must move to the free bus (the "first
// bus which becomes available" rule of section 3).
func TestBroadcastPicksFirstAvailableBus(t *testing.T) {
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	pe2 := a.AddProcessor("pe2", 1)
	bus1 := a.AddBus("bus1", true)
	bus2 := a.AddBus("bus2", true)
	a.SetCondTime(2)

	g := cpg.New("buses")
	// A data producer whose transfer occupies bus1 across the decision time.
	src := g.AddProcess("SRC", 1, pe1)
	dst := g.AddProcess("DST", 1, pe2)
	comm := g.AddComm("big_transfer", 10, bus1)
	g.AddEdge(src, comm)
	g.AddEdge(comm, dst)
	// The disjunction process terminates at t=4 (after SRC, on the same CPU).
	d := g.AddProcess("D", 3, pe1)
	g.AddEdge(src, d)
	c := g.AddCondition("C", d)
	x := g.AddProcess("X", 2, pe2)
	y := g.AddProcess("Y", 2, pe1)
	g.AddCondEdge(d, x, c, true)
	g.AddCondEdge(d, y, c, false)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	label := cond.MustCube(cond.Lit{Cond: c, Val: true})
	ps, diag, err := new(Scratch).Schedule(g.Subgraph(g.PathFor(label)), a, Options{})
	if err != nil || !clean(diag) {
		t.Fatalf("Schedule: %v %+v", err, diag)
	}
	ct, ok := ps.Cond(c)
	if !ok {
		t.Fatalf("condition timing missing")
	}
	commEntry, _ := ps.Entry(sched.ProcKey(comm))
	// If the big transfer overlaps the decision moment, the broadcast must
	// either use the other bus or wait; in no case may it overlap the
	// transfer on the same bus.
	if ct.Bus == bus1 && commEntry.Start < ct.BroadcastEnd && ct.BroadcastStart < commEntry.End {
		t.Fatalf("broadcast overlaps a transfer on the same bus: bcast [%d,%d) transfer [%d,%d)",
			ct.BroadcastStart, ct.BroadcastEnd, commEntry.Start, commEntry.End)
	}
	if commEntry.Start <= ct.DecidedAt && commEntry.End > ct.DecidedAt {
		// The transfer really does cover the decision moment, so the
		// broadcast should have moved to bus2 and started immediately.
		if ct.Bus != bus2 {
			t.Fatalf("broadcast should use the free bus, got bus %d", ct.Bus)
		}
		if ct.BroadcastStart != ct.DecidedAt {
			t.Fatalf("broadcast on the free bus should start immediately at %d, got %d", ct.DecidedAt, ct.BroadcastStart)
		}
	}
}

// TestLockedBroadcastRespected locks the broadcast of a condition at a fixed
// time on a fixed bus (as the merging algorithm does during adjustment).
func TestLockedBroadcastRespected(t *testing.T) {
	a := twoProcArch()
	g, ids, c := condGraph(t, a, 2)
	bus := a.BroadcastBuses()[0]
	label := cond.MustCube(cond.Lit{Cond: c, Val: true})
	locked := NewLocks(g.NumProcs())
	locked.Set(sched.CondKey(c), Lock{Start: 9, Bus: bus})
	ps, diag, err := new(Scratch).Schedule(g.Subgraph(g.PathFor(label)), a, Options{Locked: locked})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !clean(diag) {
		t.Fatalf("diagnostics: %+v", diag)
	}
	ct, _ := ps.Cond(c)
	if ct.BroadcastStart != 9 || ct.Bus != bus {
		t.Fatalf("locked broadcast not respected: %+v", ct)
	}
	// The guarded remote process must wait for the (late) locked broadcast.
	tEntry, _ := ps.Entry(sched.ProcKey(ids["T"]))
	if tEntry.Start < ct.BroadcastEnd {
		t.Fatalf("guarded process starts at %d before the locked broadcast ends at %d", tEntry.Start, ct.BroadcastEnd)
	}
}

// TestMemoryModuleIsSequentialResource maps two transfer processes to one
// memory module and checks they serialize, while two modules let them overlap.
func TestMemoryModuleIsSequentialResource(t *testing.T) {
	build := func(mems int) (*cpg.Graph, *arch.Architecture, []cpg.ProcID) {
		a := arch.New()
		pe1 := a.AddProcessor("pe1", 1)
		pe2 := a.AddProcessor("pe2", 1)
		a.AddBus("bus", true)
		var memIDs []arch.PEID
		for i := 0; i < mems; i++ {
			memIDs = append(memIDs, a.AddMemory(""))
		}
		g := cpg.New("mem")
		x := g.AddProcess("X", 2, pe1)
		y := g.AddProcess("Y", 2, pe2)
		mx := g.AddComm("mx", 6, memIDs[0])
		my := g.AddComm("my", 6, memIDs[len(memIDs)-1])
		g.AddEdge(x, mx)
		g.AddEdge(y, my)
		if err := g.Finalize(a); err != nil {
			t.Fatalf("Finalize: %v", err)
		}
		return g, a, []cpg.ProcID{mx, my}
	}
	g1, a1, acc1 := build(1)
	ps1, _, err := new(Scratch).Schedule(singlePath(t, g1), a1, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e0, _ := ps1.Entry(sched.ProcKey(acc1[0]))
	e1, _ := ps1.Entry(sched.ProcKey(acc1[1]))
	if e0.Start < e1.End && e1.Start < e0.End {
		t.Fatalf("accesses to a single memory module must not overlap: %v %v", e0, e1)
	}

	g2, a2, acc2 := build(2)
	ps2, _, err := new(Scratch).Schedule(singlePath(t, g2), a2, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	f0, _ := ps2.Entry(sched.ProcKey(acc2[0]))
	f1, _ := ps2.Entry(sched.ProcKey(acc2[1]))
	if !(f0.Start < f1.End && f1.Start < f0.End) {
		t.Fatalf("accesses to two memory modules should overlap: %v %v", f0, f1)
	}
	if ps2.Delay >= ps1.Delay && ps1.Delay > 8 {
		// With one module the makespan includes the serialized access.
		t.Logf("delays: 1 module %d, 2 modules %d", ps1.Delay, ps2.Delay)
	}
}

// TestZeroExecutionTimeProcesses checks that zero-time processes do not
// occupy resources and do not break the schedule.
func TestZeroExecutionTimeProcesses(t *testing.T) {
	a := twoProcArch()
	pe := a.ComputePEs()[0]
	g := cpg.New("zero")
	x := g.AddProcess("X", 0, pe)
	y := g.AddProcess("Y", 5, pe)
	z := g.AddProcess("Z", 0, pe)
	g.AddEdge(x, y)
	g.AddEdge(y, z)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, diag, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil || !clean(diag) {
		t.Fatalf("Schedule: %v %+v", err, diag)
	}
	if ps.Delay != 5 {
		t.Fatalf("delay = %d, want 5", ps.Delay)
	}
	ez, _ := ps.Entry(sched.ProcKey(z))
	if ez.Start != 5 || ez.End != 5 {
		t.Fatalf("zero-time process timing wrong: %v", ez)
	}
}

// TestManyIndependentProcessesKeepProcessorBusy checks work conservation on a
// single processor: the makespan equals the sum of the execution times.
func TestManyIndependentProcessesKeepProcessorBusy(t *testing.T) {
	a := twoProcArch()
	pe := a.ComputePEs()[0]
	g := cpg.New("busy")
	var sum int64
	for i := 0; i < 12; i++ {
		e := int64(1 + i%4)
		g.AddProcess("", e, pe)
		sum += e
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ps, _, err := new(Scratch).Schedule(singlePath(t, g), a, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if ps.Delay != sum {
		t.Fatalf("makespan %d, want %d (work conservation on one processor)", ps.Delay, sum)
	}
}
