package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/listsched"
)

// reuseOptions are the per-path schedulers the reuse rule is checked under:
// both strategies and the ProcID-order priority of the legacy scheduler.
var reuseOptions = []struct {
	name string
	opt  core.Options
}{
	{"critical-path", core.Options{Strategy: listsched.DefaultStrategy}},
	{"tabu", core.Options{Strategy: "tabu"}},
	{"order", core.Options{PathPriority: listsched.PriorityFixedOrder}},
}

func generate(t *testing.T, cfg gen.Config) *gen.Instance {
	t.Helper()
	inst, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	return inst
}

// TestReuseRule checks the reuse rule of the merge (merger.agrees) with
// random lock sets over Figure 1, the differential corpus and grid problems,
// under every per-path scheduler, and that the merge counts its reuses.
func TestReuseRule(t *testing.T) {
	type problem struct {
		name string
		inst *gen.Instance
	}
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	problems := []problem{{"figure1", &gen.Instance{Graph: g, Arch: a}}}
	for i, cfg := range core.StrategyCorpus {
		problems = append(problems, problem{fmt.Sprintf("corpus %d", i), generate(t, cfg)})
	}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for s := int64(1); s <= seeds; s++ {
		for _, c := range []struct{ nodes, paths int }{{60, 10}, {80, 18}, {120, 32}} {
			cfg := gen.RandomConfig(rand.New(rand.NewSource(s)), c.nodes, c.paths)
			problems = append(problems, problem{fmt.Sprintf("grid s=%d %d/%d", s, c.nodes, c.paths), generate(t, cfg)})
		}
	}
	var counts core.ReuseCounts
	for pi, p := range problems {
		for _, o := range reuseOptions {
			res, err := core.Schedule(p.inst.Graph, p.inst.Arch, o.opt)
			if err != nil {
				t.Fatalf("%s under %s: %v", p.name, o.name, err)
			}
			st := res.Stats
			if st.ReusedReschedules > st.Reschedules || st.Reschedules != st.BackSteps+st.ConflictsResolved {
				t.Errorf("%s under %s: %d reused of %d reschedules, with %d back-steps and %d resolved conflicts",
					p.name, o.name, st.ReusedReschedules, st.Reschedules, st.BackSteps, st.ConflictsResolved)
			}
			core.CheckReuseRule(t, rand.New(rand.NewSource(int64(pi))), res, 6, &counts)
		}
	}
	t.Logf("%d lock sets accepted, %d rejected", counts.Accepted, counts.Rejected)
	if counts.Accepted == 0 {
		t.Fatalf("the rule accepted none of %d lock sets, so nothing was checked", counts.Rejected)
	}
}
