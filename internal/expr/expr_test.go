package expr

import (
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/cpg"
)

func TestFigure1Structure(t *testing.T) {
	g, a, err := Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("architecture invalid: %v", err)
	}
	if got := g.NumOrdinary(); got != 17 {
		t.Fatalf("ordinary processes = %d, want 17", got)
	}
	comms := 0
	for _, p := range g.Procs() {
		if p.Kind == cpg.KindComm {
			comms++
		}
	}
	if comms != 14 {
		t.Fatalf("communication processes = %d, want 14 (P18..P31 of the paper)", comms)
	}
	if g.NumConds() != 3 {
		t.Fatalf("conditions = %d, want 3 (C, D, K)", g.NumConds())
	}
	paths, err := g.ValidatePaths(0)
	if err != nil {
		t.Fatalf("ValidatePaths: %v", err)
	}
	if len(paths) != 6 {
		t.Fatalf("alternative paths = %d, want 6", len(paths))
	}
	// Guards stated in the paper: XP3 = true, XP5 = C, XP14 = D&K, XP17 = true.
	byName := func(n string) cpg.ProcID {
		id, ok := g.FindByName(n)
		if !ok {
			t.Fatalf("process %s missing", n)
		}
		return id
	}
	if got := g.Guard(byName("P3")).Format(g.CondName); got != "true" {
		t.Fatalf("guard(P3) = %q, want true", got)
	}
	if got := g.Guard(byName("P17")).Format(g.CondName); got != "true" {
		t.Fatalf("guard(P17) = %q, want true", got)
	}
	if got := g.Guard(byName("P5")).Format(g.CondName); got != "C" {
		t.Fatalf("guard(P5) = %q, want C", got)
	}
	p14 := g.Guard(byName("P14")).Format(g.CondName)
	if !(strings.Contains(p14, "C") == false && strings.Contains(p14, "D") && strings.Contains(p14, "K")) {
		t.Fatalf("guard(P14) = %q, want D&K", p14)
	}
	// P2, P11, P12 are the disjunction processes; P7, P17 are conjunctions.
	for _, n := range []string{"P2", "P11", "P12"} {
		if !g.IsDisjunction(byName(n)) {
			t.Fatalf("%s must be a disjunction process", n)
		}
	}
	for _, n := range []string{"P7", "P17"} {
		if !g.IsConjunction(byName(n)) {
			t.Fatalf("%s must be a conjunction process", n)
		}
	}
	// The condition K is decided only when D is true.
	for _, p := range paths {
		d, _ := p.Label.Value(1) // D is the second declared condition
		if !d && p.Label.Has(2) {
			t.Fatalf("path %v decides K although D is false", p.Label.Format(g.CondName))
		}
	}
}

func TestRunFigure1(t *testing.T) {
	r, err := RunFigure1(core.Options{})
	if err != nil {
		t.Fatalf("RunFigure1: %v", err)
	}
	res := r.Result
	if !res.Deterministic() {
		t.Fatalf("figure 1 table not deterministic: %v", res.Violations)
	}
	if len(r.PathDelays) != 6 {
		t.Fatalf("path delays = %d, want 6", len(r.PathDelays))
	}
	// The paper reports δM = δmax = 39 for its list scheduler. Our list
	// scheduler is an independent implementation, so the exact value can
	// differ slightly, but it must stay in the same region and the merge
	// must not degrade the longest path.
	if res.DeltaM < 30 || res.DeltaM > 50 {
		t.Fatalf("δM = %d, expected close to the paper's 39", res.DeltaM)
	}
	if res.DeltaMax < res.DeltaM {
		t.Fatalf("δmax < δM")
	}
	if float64(res.DeltaMax) > 1.30*float64(res.DeltaM) {
		t.Fatalf("δmax = %d deviates too much from δM = %d", res.DeltaMax, res.DeltaM)
	}
	text := RenderFigure1(r)
	for _, want := range []string{"δM", "δmax", "Schedule table", "P14", "D&K"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendering missing %q:\n%s", want, text)
		}
	}
	gantt := Figure1Gantt(r)
	if !strings.Contains(gantt, "pe1") || !strings.Contains(gantt, "P3[") {
		t.Fatalf("Gantt rendering unexpected:\n%s", gantt)
	}
}

func TestRunSweepSmall(t *testing.T) {
	cfg := SweepConfig{
		Nodes:         []int{60},
		Paths:         []int{10, 12},
		GraphsPerCell: 2,
		Seed:          7,
	}
	cells, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	for _, c := range cells {
		if c.Graphs != 2 {
			t.Fatalf("cell %d/%d has %d graphs, want 2", c.Nodes, c.Paths, c.Graphs)
		}
		if c.AvgIncreasePct < 0 {
			t.Fatalf("negative increase in cell %+v", c)
		}
		if c.ZeroFraction < 0 || c.ZeroFraction > 1 {
			t.Fatalf("zero fraction out of range: %+v", c)
		}
		if c.Violations != 0 {
			t.Fatalf("cell %d/%d produced %d non-deterministic tables", c.Nodes, c.Paths, c.Violations)
		}
		if c.AvgMergeTime <= 0 || c.AvgPathSchedTime <= 0 {
			t.Fatalf("timings must be positive: %+v", c)
		}
	}
	fig5 := RenderFig5(cells)
	if !strings.Contains(fig5, "60 nodes") || !strings.Contains(fig5, "zero increase") {
		t.Fatalf("Fig. 5 rendering unexpected:\n%s", fig5)
	}
	fig6 := RenderFig6(cells)
	if !strings.Contains(fig6, "ms") {
		t.Fatalf("Fig. 6 rendering unexpected:\n%s", fig6)
	}
}

func TestSweepDefaultsAndPaperConfig(t *testing.T) {
	d := SweepConfig{}.Normalize()
	if len(d.Nodes) != 3 || len(d.Paths) != 5 || d.GraphsPerCell != 4 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	p := PaperSweep()
	if p.GraphsPerCell != 72 || len(p.Nodes)*len(p.Paths)*p.GraphsPerCell != 1080 {
		t.Fatalf("PaperSweep must describe the 1080-graph experiment: %+v", p)
	}
}

func TestRunTable2SmallCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 evaluates 30 configurations; skipped in -short mode")
	}
	res, err := RunTable2(core.Options{})
	if err != nil {
		t.Fatalf("RunTable2: %v", err)
	}
	if len(res.Rows) != 3 || len(res.Configs) != 10 {
		t.Fatalf("unexpected result shape: %d rows, %d configs", len(res.Rows), len(res.Configs))
	}
	wantProcs := map[atm.Mode]int{atm.Mode1: 32, atm.Mode2: 23, atm.Mode3: 42}
	for _, row := range res.Rows {
		if row.Processes != wantProcs[row.Mode] {
			t.Fatalf("mode %d processes = %d, want %d", row.Mode, row.Processes, wantProcs[row.Mode])
		}
		for _, cfg := range res.Configs {
			if row.Delays[cfg.Label()] <= 0 {
				t.Fatalf("mode %d has no delay for %s", row.Mode, cfg.Label())
			}
		}
		// A faster processor never hurts.
		if row.Delays["1P/1M Pentium"] > row.Delays["1P/1M 486"] {
			t.Fatalf("mode %d: Pentium slower than 486", row.Mode)
		}
	}
	out := RenderTable2(res)
	for _, want := range []string{"mode", "1P/1M 486", "2P/2M 2xPentium", "Chosen mappings"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 rendering missing %q:\n%s", want, out)
		}
	}
}
