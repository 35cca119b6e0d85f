package core

import (
	"slices"
	"testing"

	"repro/internal/listsched"
)

// TestPublishedSchedulesMatchFreshRuns checks, over the differential corpus
// and every strategy, that each optimal schedule a Result publishes is still
// what its strategy produces on the published subgraph. The merge recycles
// its schedule buffers; one that overwrote a published optimal schedule fails
// here, naming the path, where the served goldens would only show another
// hash.
func TestPublishedSchedulesMatchFreshRuns(t *testing.T) {
	for ci, cfg := range strategyCorpus {
		inst := corpusInstance(t, cfg)
		for _, name := range listsched.StrategyNames() {
			res, err := Schedule(inst.Graph, inst.Arch, Options{Strategy: name, Workers: 1})
			if err != nil {
				t.Fatalf("instance %d strategy %s: %v", ci, name, err)
			}
			if res.Stats.BackSteps == 0 {
				t.Fatalf("instance %d strategy %s: no back-step, so nothing was recycled", ci, name)
			}
			strategy, _ := listsched.LookupStrategy(name)
			var sc listsched.Scratch
			for i, sub := range res.Subgraphs {
				want, _, err := strategy.SchedulePath(&sc, sub, inst.Arch, listsched.StrategyParams{})
				if err != nil {
					t.Fatalf("instance %d strategy %s: %v", ci, name, err)
				}
				got := res.Schedules[i]
				if got.Delay != want.Delay || got.Label != want.Label ||
					!slices.Equal(got.Entries(), want.Entries()) || !slices.Equal(got.Conds(), want.Conds()) {
					t.Errorf("instance %d strategy %s: published schedule of path %s differs from a fresh run",
						ci, name, res.Paths[i].Label.Format(inst.Graph.CondName))
				}
			}
		}
	}
}
