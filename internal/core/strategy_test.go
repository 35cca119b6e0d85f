package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/table"
)

// strategyCorpus is the deterministic instance corpus of the differential
// strategy tests: structural parameters in the range of the paper's sweep,
// fixed seeds, so every platform schedules the exact same graphs.
var strategyCorpus = []gen.Config{
	{Seed: 11, Nodes: 30, TargetPaths: 4, Processors: 2, Hardware: 1, Buses: 1},
	{Seed: 23, Nodes: 40, TargetPaths: 6, Processors: 3, Hardware: 1, Buses: 2},
	{Seed: 37, Nodes: 50, TargetPaths: 8, Processors: 4, Hardware: 0, Buses: 2},
	{Seed: 41, Nodes: 60, TargetPaths: 10, Processors: 6, Hardware: 1, Buses: 3},
	{Seed: 59, Nodes: 45, TargetPaths: 8, Processors: 2, Hardware: 1, Buses: 1, CondTime: 2},
	{Seed: 67, Nodes: 60, TargetPaths: 6, Processors: 5, Hardware: 1, Buses: 2},
}

func corpusInstance(t testing.TB, cfg gen.Config) *gen.Instance {
	t.Helper()
	inst, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	return inst
}

func renderTable(res *Result) string {
	return res.Table.Render(table.RenderOptions{Namer: res.Graph.CondName, RowName: res.RowName})
}

// TestUnknownStrategyRejected pins the error contract: a strategy name
// missing from the registry fails fast with ErrUnknownStrategy, before any
// scheduling work starts.
func TestUnknownStrategyRejected(t *testing.T) {
	inst := corpusInstance(t, strategyCorpus[0])
	_, err := Schedule(inst.Graph, inst.Arch, Options{Strategy: "simulated-annealing"})
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("unknown strategy must fail with ErrUnknownStrategy; got %v", err)
	}
}

// TestStrategyDifferential is the differential test of the strategy
// subsystem on the deterministic corpus:
//
//   - every strategy produces a table that validates
//     (requirements 1-4, structural and simulated);
//   - a second run renders the same table with the same delays (every
//     strategy, the tabu improvement loop included, is deterministic);
//   - tabu's worst-case delay is never worse than the critical-path
//     baseline: δM by construction (the loop keeps the best-or-baseline
//     schedule per path), and δmax on every instance of the corpus.
func TestStrategyDifferential(t *testing.T) {
	for ci, cfg := range strategyCorpus {
		inst := corpusInstance(t, cfg)
		results := map[string]*Result{}
		for _, name := range listsched.StrategyNames() {
			var text string
			for run := 0; run < 2; run++ {
				res, err := Schedule(inst.Graph, inst.Arch, Options{Strategy: name})
				if err != nil {
					t.Fatalf("instance %d strategy %s: %v", ci, name, err)
				}
				if !res.Deterministic() {
					t.Fatalf("instance %d strategy %s: table not deterministic:\n%v",
						ci, name, res.Violations)
				}
				if run == 0 {
					text = renderTable(res)
					results[name] = res
					continue
				}
				if got := renderTable(res); got != text {
					t.Fatalf("instance %d strategy %s: a second run renders another table", ci, name)
				}
				if res.DeltaM != results[name].DeltaM || res.DeltaMax != results[name].DeltaMax {
					t.Fatalf("instance %d strategy %s: a second run gives other delays", ci, name)
				}
			}
		}
		cp, tabu := results["critical-path"], results["tabu"]
		if tabu.DeltaM > cp.DeltaM {
			t.Fatalf("instance %d: tabu δM %d worse than critical-path %d", ci, tabu.DeltaM, cp.DeltaM)
		}
		if tabu.DeltaMax > cp.DeltaMax {
			t.Fatalf("instance %d: tabu δmax %d worse than critical-path %d", ci, tabu.DeltaMax, cp.DeltaMax)
		}
		t.Logf("instance %d (seed %d): δM/δmax critical-path %d/%d tabu %d/%d",
			ci, cfg.Seed, cp.DeltaM, cp.DeltaMax, tabu.DeltaM, tabu.DeltaMax)
	}
}

// TestStrategyDefaultEquivalence pins that the explicit "critical-path"
// strategy reproduces the legacy default (empty Strategy) byte for byte —
// selecting the default by name must never change results.
func TestStrategyDefaultEquivalence(t *testing.T) {
	inst := corpusInstance(t, strategyCorpus[1])
	legacy, err := Schedule(inst.Graph, inst.Arch, Options{})
	if err != nil {
		t.Fatalf("legacy: %v", err)
	}
	named, err := Schedule(inst.Graph, inst.Arch, Options{Strategy: listsched.DefaultStrategy})
	if err != nil {
		t.Fatalf("named: %v", err)
	}
	if renderTable(legacy) != renderTable(named) {
		t.Fatalf("strategy %q differs from the legacy default scheduler", listsched.DefaultStrategy)
	}
	if legacy.DeltaM != named.DeltaM || legacy.DeltaMax != named.DeltaMax {
		t.Fatalf("delays differ: %d/%d vs %d/%d", legacy.DeltaM, legacy.DeltaMax, named.DeltaM, named.DeltaMax)
	}
}
