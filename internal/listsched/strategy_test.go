package listsched

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/gen"
	"repro/internal/sched"
)

func TestStrategyRegistryBuiltins(t *testing.T) {
	names := StrategyNames()
	want := []string{"critical-path", "tabu"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("StrategyNames() = %v, want %v (sorted)", names, want)
	}
	for _, name := range names {
		if _, ok := LookupStrategy(name); !ok {
			t.Fatalf("LookupStrategy(%q) not found", name)
		}
	}
	if _, ok := LookupStrategy(DefaultStrategy); !ok {
		t.Fatalf("default strategy %q not found", DefaultStrategy)
	}
	if _, ok := LookupStrategy("no-such-strategy"); ok {
		t.Fatalf("LookupStrategy must miss on unknown names")
	}
}

// strategyInstance generates a mid-sized instance with conditions, so every
// strategy exercises broadcasts and the knowledge constraint.
func strategyInstance(t testing.TB, seed int64) *gen.Instance {
	t.Helper()
	inst, err := gen.Generate(gen.Config{
		Seed: seed, Nodes: 40, TargetPaths: 6, Processors: 3, Hardware: 1, Buses: 2,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return inst
}

// TestStrategiesProduceValidSchedules runs every strategy over
// every alternative path of generated instances: the schedules must be
// complete (one entry per active real process), diagnostics-clean, and the
// improvement strategy must never be worse than the critical-path baseline
// on any individual path.
func TestStrategiesProduceValidSchedules(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		inst := strategyInstance(t, seed)
		paths, err := inst.Graph.AlternativePaths(0)
		if err != nil {
			t.Fatalf("AlternativePaths: %v", err)
		}
		baseline := make([]int64, len(paths))
		sc := new(Scratch)
		for i, p := range paths {
			ps, diag, err := sc.Schedule(inst.Graph.Subgraph(p), inst.Arch, Options{Priority: PriorityCriticalPath})
			if err != nil {
				t.Fatalf("baseline path %d: %v", i, err)
			}
			if !clean(diag) {
				t.Fatalf("baseline path %d diagnostics: %+v", i, diag)
			}
			baseline[i] = ps.Delay
		}
		for _, name := range StrategyNames() {
			strat, _ := LookupStrategy(name)
			ssc := new(Scratch)
			for i, p := range paths {
				sub := inst.Graph.Subgraph(p)
				ps, diag, err := strat.SchedulePath(ssc, sub, inst.Arch, StrategyParams{})
				if err != nil {
					t.Fatalf("strategy %s path %d: %v", name, i, err)
				}
				if !clean(diag) {
					t.Fatalf("strategy %s path %d diagnostics: %+v", name, i, diag)
				}
				for _, id := range sub.ActiveProcs() {
					if _, ok := ps.Entry(sched.ProcKey(id)); !ok {
						t.Fatalf("strategy %s path %d: missing entry for process %d", name, i, id)
					}
				}
				if name == "tabu" && ps.Delay > baseline[i] {
					t.Fatalf("seed %d path %d: tabu delay %d worse than critical-path %d",
						seed, i, ps.Delay, baseline[i])
				}
			}
		}
	}
}

// broadcastBoundGraph builds a scenario where the critical-path priority
// misjudges a condition broadcast: on pe1 a disjunction process D (exec 9,
// decides C) and an independent process X (exec 12) compete, C gates a
// short remote chain on pe2, and the broadcast time is large (τ0 = 10). The
// plain critical path of D (9+1+1 = 11) is shorter than X (12), so the
// critical-path priority runs X first and serializes D behind it — pushing
// the broadcast, and with it the whole remote chain, late. Running D first
// is better.
func broadcastBoundGraph(t *testing.T) (*cpg.Graph, *arch.Architecture, cond.Cond) {
	t.Helper()
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	pe2 := a.AddProcessor("pe2", 1)
	a.AddBus("bus", true)
	a.SetCondTime(10)
	g := cpg.New("broadcast-bound")
	d := g.AddProcess("D", 9, pe1)
	x := g.AddProcess("X", 12, pe1)
	y := g.AddProcess("Y", 1, pe2)
	f := g.AddProcess("F", 1, pe1)
	j := g.AddProcess("J", 1, pe2)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, y, c, true)
	g.AddCondEdge(d, f, c, false)
	g.AddEdge(y, j)
	g.AddEdge(f, j)
	_ = x
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, a, c
}

// TestTabuBeatsCriticalPathOnBroadcastBoundGraph pins the quality
// mechanism of the tabu strategy: on the broadcast-bound graph the
// critical-path priority yields delay 33 on the C=true path, and tabu
// improves it to 21 by promoting D.
func TestTabuBeatsCriticalPathOnBroadcastBoundGraph(t *testing.T) {
	g, a, c := broadcastBoundGraph(t)
	sub := g.Subgraph(g.PathFor(cond.MustCube(cond.Lit{Cond: c, Val: true})))

	cp, diag, err := new(Scratch).Schedule(sub, a, Options{Priority: PriorityCriticalPath})
	if err != nil || !clean(diag) {
		t.Fatalf("critical-path: %v %+v", err, diag)
	}
	tabu, _ := LookupStrategy("tabu")
	tb, diag, err := tabu.SchedulePath(new(Scratch), sub, a, StrategyParams{})
	if err != nil || !clean(diag) {
		t.Fatalf("tabu: %v %+v", err, diag)
	}
	if cp.Delay != 33 || tb.Delay != 21 {
		t.Fatalf("delays critical-path/tabu = %d/%d, want 33/21", cp.Delay, tb.Delay)
	}
}

// TestTabuDeterministic pins reproducibility: two independent runs (fresh
// scratches) must produce identical schedules, the property the differential
// worker-count test and the memo cache both rest on.
func TestTabuDeterministic(t *testing.T) {
	inst := strategyInstance(t, 7)
	paths, err := inst.Graph.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	tabu, _ := LookupStrategy("tabu")
	for i, p := range paths {
		sub := inst.Graph.Subgraph(p)
		first, _, err := tabu.SchedulePath(new(Scratch), sub, inst.Arch, StrategyParams{})
		if err != nil {
			t.Fatalf("first run path %d: %v", i, err)
		}
		second, _, err := tabu.SchedulePath(new(Scratch), sub, inst.Arch, StrategyParams{})
		if err != nil {
			t.Fatalf("second run path %d: %v", i, err)
		}
		if !reflect.DeepEqual(first.Entries(), second.Entries()) {
			t.Fatalf("path %d: tabu schedules differ between identical runs", i)
		}
	}
}

// TestTabuParamBounds pins the iteration knob: negative iterations return
// the baseline unchanged.
func TestTabuParamBounds(t *testing.T) {
	inst := strategyInstance(t, 9)
	paths, err := inst.Graph.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	sub := inst.Graph.Subgraph(paths[0])
	base, _, err := new(Scratch).Schedule(sub, inst.Arch, Options{Priority: PriorityCriticalPath})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	tabu, _ := LookupStrategy("tabu")

	off, _, err := tabu.SchedulePath(new(Scratch), sub, inst.Arch, StrategyParams{TabuIterations: -1})
	if err != nil {
		t.Fatalf("disabled tabu: %v", err)
	}
	if !reflect.DeepEqual(off.Entries(), base.Entries()) {
		t.Fatalf("TabuIterations < 0 must return the critical-path baseline unchanged")
	}
}
