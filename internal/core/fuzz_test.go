package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/listsched"
)

// FuzzMergeRequirements drives whole randomly generated problems through the
// full pipeline — generation, per-path scheduling under every strategy,
// schedule merging — and asserts the merged table always satisfies the
// requirements of section 3 of the paper: Result.Violations, the row checks
// of table.Validate (requirements 1 and 2) and the re-enactment of package
// sim (requirements 3 and 4, dependencies and overlaps), must be empty. This
// is the merger complement of FuzzGenerateDeterminism and FuzzCube: whatever
// instance the fuzzer invents and whichever strategy shaped the per-path
// schedules, the merge must produce a logically and temporally deterministic
// table. Each result also goes through checkReuseRule, the property of the
// merge's reuse rule.
// Run with `go test -fuzz FuzzMergeRequirements ./internal/core`.
func FuzzMergeRequirements(f *testing.F) {
	// Seed corpus drawn from the structural parameters of the gen configs
	// used by the paper's sweep (scaled down so a fuzz iteration stays
	// cheap) plus degenerate corners.
	f.Add(int64(1998), uint8(20), uint8(4), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(40), uint8(8), uint8(4), uint8(1), uint8(2), uint8(2))
	f.Add(int64(7), uint8(12), uint8(2), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Add(int64(-3), uint8(33), uint8(6), uint8(3), uint8(1), uint8(1), uint8(3))
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, paths, procs, hw, buses, condTime uint8) {
		cfg := gen.Config{
			Seed:        seed,
			Nodes:       int(nodes % 48),
			TargetPaths: int(paths%8) + 1,
			Processors:  int(procs%4) + 1,
			Hardware:    int(hw % 2),
			Buses:       int(buses%3) + 1,
			CondTime:    int64(condTime%4) + 1,
		}
		inst, err := gen.Generate(cfg)
		if err != nil {
			return // invalid configurations may be rejected, just not panic
		}
		for _, name := range listsched.StrategyNames() {
			res, err := Schedule(inst.Graph, inst.Arch, Options{
				Strategy: name,
				// Small bounds keep a tabu fuzz iteration cheap; the loop
				// shape (promote, re-evaluate, accept best) is the same.
				StrategyParams: listsched.StrategyParams{TabuIterations: 4, TabuNeighbors: 4},
			})
			if err != nil {
				t.Fatalf("Schedule(%+v, strategy=%s): %v", cfg, name, err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("strategy %s on %+v: table violations:\n%v", name, cfg, res.Violations)
			}
			if res.DeltaMax < res.DeltaM {
				t.Fatalf("strategy %s on %+v: δmax %d below δM %d", name, cfg, res.DeltaMax, res.DeltaM)
			}
			checkReuseRule(t, rand.New(rand.NewSource(seed)), res, 2, &reuseCounts{})
		}
	})
}
