package listsched_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/sched"
)

// locksOf lists a lock set in key order.
func locksOf(l *listsched.Locks) []listsched.Lock {
	var out []listsched.Lock
	for _, lock := range l.All() {
		out = append(out, lock)
	}
	return out
}

// TestLocksResetRefillEqualsFresh refills one lock set with a sequence of
// random lock sets for graphs of different sizes and checks every refill
// against a fresh set of the same locks: the same locks in key order, and a
// miss for every key that only the previous content locked.
func TestLocksResetRefillEqualsFresh(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fill := func(l *listsched.Locks, numProcs int, r *rand.Rand) {
		for s := 0; s < sched.NumSlots(numProcs); s++ {
			if r.Intn(4) == 0 {
				l.Set(sched.SlotKey(s, numProcs), listsched.Lock{Start: r.Int63n(100), Bus: arch.PEID(r.Intn(3))})
			}
		}
	}
	recycled := listsched.NewLocks(50)
	fill(recycled, 50, rand.New(rand.NewSource(99)))
	for i := 0; i < 50; i++ {
		numProcs := []int{50, 20, 80}[i%3]
		seed := r.Int63()
		fresh := listsched.NewLocks(numProcs)
		fill(fresh, numProcs, rand.New(rand.NewSource(seed)))
		recycled.Reset(numProcs)
		if n := len(locksOf(recycled)); n != 0 {
			t.Fatalf("refill %d: Reset left %d locks", i, n)
		}
		fill(recycled, numProcs, rand.New(rand.NewSource(seed)))
		if got, want := locksOf(recycled), locksOf(fresh); !slices.Equal(got, want) {
			t.Fatalf("refill %d: locks %v, want %v", i, got, want)
		}
		for s := 0; s < sched.NumSlots(numProcs); s++ {
			k := sched.SlotKey(s, numProcs)
			gl, gok := recycled.Get(k)
			wl, wok := fresh.Get(k)
			if gok != wok || gl != wl {
				t.Fatalf("refill %d: Get(%v) = %v,%v, want %v,%v", i, k, gl, gok, wl, wok)
			}
		}
	}
}

// TestScheduleIntoRecycledEqualsFresh schedules every path of several graphs
// of different sizes into one recycled schedule, with both priority
// functions and locks, and checks each result against a fresh Schedule.
func TestScheduleIntoRecycledEqualsFresh(t *testing.T) {
	type instance struct {
		g *cpg.Graph
		a *arch.Architecture
	}
	fig1G, fig1A, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	insts := []instance{{fig1G, fig1A}}
	for i, nodes := range []int{60, 20, 120} {
		inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(int64(70+i))), nodes, 8))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		insts = append(insts, instance{inst.Graph, inst.Arch})
	}
	var recycled *sched.PathSchedule
	var sc, fresh listsched.Scratch
	for _, in := range insts {
		paths, err := in.g.AlternativePaths(0)
		if err != nil {
			t.Fatalf("AlternativePaths: %v", err)
		}
		for _, p := range paths {
			sub := in.g.Subgraph(p)
			optimal, _, err := fresh.Schedule(sub, in.a, listsched.Options{})
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			order := make([]int64, in.g.NumProcs())
			locks := listsched.NewLocks(in.g.NumProcs())
			for j, e := range optimal.Entries() {
				if !e.Key.IsCond {
					order[e.Key.Proc] = e.Start
				}
				if j%4 == 1 {
					locks.Set(e.Key, listsched.Lock{Start: e.Start, Bus: e.PE})
				}
			}
			for _, opt := range []listsched.Options{
				{},
				{Priority: listsched.PriorityFixedOrder, Order: order, Locked: locks},
			} {
				want, wantDiag, err := fresh.Schedule(sub, in.a, opt)
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				got, gotDiag, err := sc.ScheduleInto(recycled, sub, in.a, opt)
				if err != nil {
					t.Fatalf("ScheduleInto: %v", err)
				}
				if recycled != nil && got != recycled {
					t.Fatalf("ScheduleInto did not reuse its destination")
				}
				recycled = got
				label := p.Label.Format(in.g.CondName)
				if got.Delay != want.Delay || got.Label != want.Label || got.Len() != want.Len() ||
					!slices.Equal(got.Entries(), want.Entries()) || !slices.Equal(got.Conds(), want.Conds()) {
					t.Fatalf("%s path %s: recycled schedule differs from a fresh one:\n%v\n%v", in.g.Name(), label, got.Entries(), want.Entries())
				}
				if !reflect.DeepEqual(gotDiag, wantDiag) {
					t.Fatalf("%s path %s: diagnostics differ: %+v vs %+v", in.g.Name(), label, gotDiag, wantDiag)
				}
				for c := cond.Cond(0); c < cond.MaxConds; c++ {
					if _, ok := got.Cond(c); ok && !sub.Label.Has(c) {
						t.Fatalf("%s path %s: stale condition record %d", in.g.Name(), label, c)
					}
				}
				for q := 0; q < in.g.NumProcs(); q++ {
					if _, ok := got.Entry(sched.ProcKey(cpg.ProcID(q))); ok != sub.Active(cpg.ProcID(q)) {
						t.Fatalf("%s path %s: entry of process %d present=%v, active=%v", in.g.Name(), label, q, ok, sub.Active(cpg.ProcID(q)))
					}
				}
			}
		}
	}
}
