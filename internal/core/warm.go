package core

import (
	"context"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// warmReuse marks one alternative path of a warm run as reusable: its optimal
// schedule and active subgraph are taken verbatim from the previous result
// instead of being recomputed.
type warmReuse struct {
	optimal *sched.PathSchedule
	sub     *cpg.Subgraph
}

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
// and only the affected paths are rescheduled. The merge, validation and
// worst-case simulation always run in full against the new graph, so the
// result is byte-identical to a cold run.
//
// The reuse plan is defensive: whenever prev does not line up with the new
// graph (path count or labels differ, process or condition counts differ, or
// prev is incomplete), the run silently falls back to scheduling every path
// cold. It never errors for a bad prev, and never reuses a path a cold run
// could schedule differently. Callers are responsible for only passing a prev
// computed under the same Options — the service layer enforces this by
// diffing the canonical problem documents.
func ScheduleWarmPhased(ctx context.Context, prev *Result, g *cpg.Graph, a *arch.Architecture, opt Options, dirty []cpg.ProcID, phases PhaseFunc) (*Result, error) {
	return schedulePhased(ctx, g, a, opt, phases, &warmPlan{prev: prev, dirty: dirty})
}

// plan decides, per alternative path of the new graph, whether the previous
// result's schedule can be reused. A nil return means no reuse at all (cold).
func (w *warmPlan) plan(g *cpg.Graph, paths []*cpg.Path) []warmReuse {
	prev := w.prev
	if prev == nil || prev.Graph == nil {
		return nil
	}
	// Structural shape must match exactly; τ edits never change it. Anything
	// else means the caller's diff was wrong — schedule everything cold.
	if prev.Graph.NumProcs() != g.NumProcs() || prev.Graph.NumConds() != g.NumConds() {
		return nil
	}
	if len(prev.Paths) != len(paths) || len(prev.Schedules) != len(paths) || len(prev.Subgraphs) != len(paths) {
		return nil
	}
	for i, p := range paths {
		if !prev.Paths[i].Label.Equal(p.Label) {
			return nil
		}
	}
	reuse := make([]warmReuse, len(paths))
	for i, p := range paths {
		if prev.Schedules[i] == nil || prev.Subgraphs[i] == nil {
			continue
		}
		affected := false
		for _, d := range w.dirty {
			if p.IsActive(d) {
				affected = true
				break
			}
		}
		if affected {
			continue
		}
		// No dirty process is active on this path: the subgraph the per-path
		// scheduler would see is identical to the previous run's, so both the
		// schedule and the previous subgraph (which only exposes active
		// processes) carry over unchanged.
		reuse[i] = warmReuse{optimal: prev.Schedules[i], sub: prev.Subgraphs[i]}
	}
	return reuse
}
