package core

import (
	"context"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// warmPlan carries a previous result plus the set of processes whose
// execution time changed, into the scheduling pipeline.
type warmPlan struct {
	prev  *Result
	dirty []cpg.ProcID
}

// ScheduleWarmPhased is ScheduleContext warm-started from a previous result
// of the same problem shape, reporting phase transitions to phases (which may
// be nil) like SchedulePhased. prev must come from a run with an identical
// graph structure, architecture and (deterministic) options, where only the
// execution times of the processes listed in dirty differ. The optimal
// schedules of the alternative paths on which no dirty process is active are
// reused verbatim from prev — for those paths every input of the per-path
// scheduler is unchanged, so a fresh run would reproduce them bit for bit —
// and only the affected paths are rescheduled. Only prev's graph, path list
// and schedules are read: its subgraphs may be gone (a memoized result drops
// them), since every path's subgraph is extracted from the new graph. The
// merge, validation and worst-case simulation always run in full against the
// new graph, so the result is byte-identical to a cold run.
//
// The reuse plan is defensive: whenever prev does not line up with the new
// graph (path count or labels differ, process or condition counts differ, or
// prev is incomplete), the run silently falls back to scheduling every path
// cold. It never errors for a bad prev, and never reuses a path a cold run
// could schedule differently. Callers are responsible for only passing a prev
// computed under the same Options — the service layer enforces this by
// comparing the problems' shape hashes and graphs.
func ScheduleWarmPhased(ctx context.Context, prev *Result, g *cpg.Graph, a *arch.Architecture, opt Options, dirty []cpg.ProcID, phases PhaseFunc) (*Result, error) {
	return schedulePhased(ctx, g, a, opt, phases, &warmPlan{prev: prev, dirty: dirty})
}

// plan returns, per alternative path of the new graph, the previous result's
// optimal schedule when it can be reused, and nil when the path must be
// scheduled. A nil return means no reuse at all (cold).
func (w *warmPlan) plan(g *cpg.Graph, paths []*cpg.Path) []*sched.PathSchedule {
	prev := w.prev
	if prev == nil || prev.Graph == nil {
		return nil
	}
	// Structural shape must match exactly; τ edits never change it. Anything
	// else means the caller's diff was wrong — schedule everything cold.
	if prev.Graph.NumProcs() != g.NumProcs() || prev.Graph.NumConds() != g.NumConds() {
		return nil
	}
	if len(prev.Paths) != len(paths) || len(prev.Schedules) != len(paths) {
		return nil
	}
	for i, p := range paths {
		if !prev.Paths[i].Label.Equal(p.Label) {
			return nil
		}
	}
	reuse := make([]*sched.PathSchedule, len(paths))
	for i, p := range paths {
		affected := false
		for _, d := range w.dirty {
			if p.IsActive(d) {
				affected = true
				break
			}
		}
		if !affected {
			// No dirty process is active on this path: the subgraph the
			// per-path scheduler would see is identical to the previous
			// run's, so its schedule carries over unchanged.
			reuse[i] = prev.Schedules[i]
		}
	}
	return reuse
}
