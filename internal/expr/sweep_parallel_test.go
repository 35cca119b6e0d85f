package expr

import "testing"

// TestRunSweepDeterministicAcrossWorkers is the regression test for sweep
// determinism: the same SweepConfig.Seed must produce byte-identical rendered
// Fig. 5 and Fig. 6 tables no matter how many workers schedule the graphs.
// The wall-clock timing fields of the cells are inherently run-dependent, so
// they are zeroed before rendering Fig. 6; everything else — graph structure,
// delays, increases, zero fractions, cell order — must match exactly.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := SweepConfig{
		Nodes:         []int{40, 60},
		Paths:         []int{10, 12},
		GraphsPerCell: 3,
		Seed:          1998,
	}

	run := func(workers int) []Cell {
		c := cfg
		c.Workers = workers
		cells, err := RunSweep(c)
		if err != nil {
			t.Fatalf("RunSweep(workers=%d): %v", workers, err)
		}
		return cells
	}

	base := run(1)
	for _, workers := range []int{2, 8} {
		cells := run(workers)
		if got, want := RenderFig5(cells), RenderFig5(base); got != want {
			t.Errorf("RenderFig5 differs between workers=1 and workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, want, workers, got)
		}
		if got, want := RenderFig6(zeroTimes(cells)), RenderFig6(zeroTimes(base)); got != want {
			t.Errorf("RenderFig6 (times zeroed) differs between workers=1 and workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, want, workers, got)
		}
		for i := range cells {
			a, b := base[i], cells[i]
			a.AvgMergeTime, b.AvgMergeTime = 0, 0
			a.AvgPathSchedTime, b.AvgPathSchedTime = 0, 0
			if a != b {
				t.Errorf("cell %d differs between workers=1 and workers=%d: %+v vs %+v", i, workers, a, b)
			}
		}
	}
}

// zeroTimes strips the wall-clock measurements from the cells so renderings
// can be compared across runs.
func zeroTimes(cells []Cell) []Cell { return ZeroTimes(cells) }

// TestCellSeedStable pins the seed derivation: changing it would silently
// change every published sweep figure, so treat it like a file format.
func TestCellSeedStable(t *testing.T) {
	a := cellSeed(1998, 60, 10, 0)
	b := cellSeed(1998, 60, 10, 0)
	if a != b {
		t.Fatalf("cellSeed not deterministic: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("cellSeed negative: %d", a)
	}
	seen := map[int64]bool{a: true}
	for _, tc := range []struct{ nodes, paths, i int }{
		{60, 10, 1}, {60, 12, 0}, {80, 10, 0}, {10, 60, 0},
	} {
		s := cellSeed(1998, tc.nodes, tc.paths, tc.i)
		if seen[s] {
			t.Errorf("cellSeed collision for %+v: %d", tc, s)
		}
		seen[s] = true
	}
}
