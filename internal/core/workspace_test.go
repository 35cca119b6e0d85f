package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/table"
)

// TestWorkspaceMatchesFreshSchedule schedules a shuffled sequence of graphs
// through one workspace, at one and two workers, and compares every result
// with a fresh core.Schedule of the same graph. The sequence holds Figure 1,
// a graph without conditions and grid graphs whose sizes go up and down, each
// twice, plus two tabu runs, whose schedules the strategy allocates itself,
// so the workspace recycles every buffer for larger and smaller graphs.
// Everything but the wall-clock times must agree: δM, δmax, the violations,
// Stats, the per-path delays, the rendered table, each path's schedule
// entries and condition timings, and each path's subgraph.
func TestWorkspaceMatchesFreshSchedule(t *testing.T) {
	type problem struct {
		name string
		g    *cpg.Graph
		a    *arch.Architecture
		opt  core.Options
	}
	fig1G, fig1A, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	problems := []problem{{name: "figure1", g: fig1G, a: fig1A}}
	for _, c := range []struct {
		seed         int64
		nodes, paths int
	}{{1, 60, 1}, {2, 60, 10}, {3, 80, 18}, {4, 120, 32}, {5, 60, 12}, {6, 80, 24}, {7, 120, 10}} {
		inst, err := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(c.seed)), c.nodes, c.paths))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		problems = append(problems, problem{name: inst.Graph.Name(), g: inst.Graph, a: inst.Arch})
	}
	if got := problems[1].g.NumConds(); got != 0 {
		t.Fatalf("%s: %d conditions, want a graph without conditions", problems[1].name, got)
	}
	tabu := core.Options{Strategy: "tabu"}
	problems = append(problems,
		problem{name: "figure1 tabu", g: fig1G, a: fig1A, opt: tabu},
		problem{name: problems[2].name + " tabu", g: problems[2].g, a: problems[2].a, opt: tabu})

	r := rand.New(rand.NewSource(25))
	for _, workers := range []int{1, 2} {
		var ws core.Workspace
		order := append(r.Perm(len(problems)), r.Perm(len(problems))...)
		for _, i := range order {
			p := problems[i]
			opt := p.opt
			opt.Workers = workers
			want, err := core.Schedule(p.g, p.a, opt)
			if err != nil {
				t.Fatalf("%s: Schedule: %v", p.name, err)
			}
			got, err := ws.Schedule(context.Background(), p.g, p.a, opt)
			if err != nil {
				t.Fatalf("%s: Workspace.Schedule: %v", p.name, err)
			}
			if msg := diffResults(got, want); msg != "" {
				t.Fatalf("workers=%d, %s: the workspace's result differs from a fresh Schedule: %s", workers, p.name, msg)
			}
		}
	}
}

// diffResults describes the first difference between two results of the same
// problem, ignoring the wall-clock times; it returns "" when there is none.
func diffResults(got, want *core.Result) string {
	untimed := func(s core.Stats) core.Stats {
		s.PathSchedulingTime, s.MergeTime, s.ValidationTime = 0, 0, 0
		return s
	}
	switch {
	case got.DeltaM != want.DeltaM || got.DeltaMax != want.DeltaMax:
		return "δM or δmax"
	case !slices.Equal(got.Violations, want.Violations):
		return "violations"
	case untimed(got.Stats) != untimed(want.Stats):
		return "stats"
	case !slices.Equal(got.Paths, want.Paths):
		return "per-path delays"
	case len(got.Schedules) != len(want.Paths) || len(got.Subgraphs) != len(want.Paths):
		return "number of schedules or subgraphs"
	}
	ropt := table.RenderOptions{Namer: want.Graph.CondName, RowName: want.RowName}
	if got.Table.Render(ropt) != want.Table.Render(ropt) {
		return "rendered table"
	}
	for i, w := range want.Schedules {
		g := got.Schedules[i]
		if g.Label != w.Label || g.Delay != w.Delay ||
			!slices.Equal(g.Entries(), w.Entries()) || !slices.Equal(g.Conds(), w.Conds()) {
			return "schedule of path " + w.Label.Format(want.Graph.CondName)
		}
	}
	for i, w := range want.Subgraphs {
		g := got.Subgraphs[i]
		if g.G != w.G || g.Label != w.Label || !slices.Equal(g.ActiveProcs(), w.ActiveProcs()) ||
			!slices.Equal(g.DecidedConds(), w.DecidedConds()) {
			return "subgraph of path " + w.Label.Format(want.Graph.CondName)
		}
		for id := cpg.ProcID(0); int(id) < w.G.NumProcs(); id++ {
			if g.Active(id) != w.Active(id) || !slices.Equal(g.Preds(id), w.Preds(id)) || !slices.Equal(g.Succs(id), w.Succs(id)) {
				return "adjacency in the subgraph of path " + w.Label.Format(want.Graph.CondName)
			}
		}
	}
	return ""
}
