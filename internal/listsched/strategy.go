// Per-path scheduling strategies on top of the list scheduler. A strategy
// produces the (optimal) schedule of one alternative path; the merging
// algorithm of package core consumes the resulting schedules unchanged, so a
// strategy opens a quality-vs-time tradeoff without touching the table
// generation.
//
// The strategies are a fixed table, selected by name from documents, HTTP
// requests and command-line flags:
//
//   - "critical-path" (the default): one list-scheduling run with the
//     longest-remaining-path priority, exactly the scheduler of the paper;
//   - "tabu": a tabu-search improvement loop in the spirit of the heuristic
//     mapping/scheduling work the paper cites: starting from the
//     critical-path schedule, it repeatedly promotes late-finishing processes
//     to the front of the priority order, re-evaluates each move with a
//     PriorityFixedOrder run on the zero-alloc Scratch, keeps a tabu list of
//     recently moved processes, and returns the best schedule found. The
//     loop is bounded by iterations, so its result is deterministic, and it
//     never returns a schedule worse than the critical-path baseline.
package listsched

import (
	"sort"

	"repro/internal/arch"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// DefaultStrategy is the name of the paper's own per-path scheduler.
const DefaultStrategy = "critical-path"

// Tabu-search defaults, used when the corresponding StrategyParams field is
// zero. They are chosen so that the default loop is deterministic and cheap
// enough for ablation sweeps while still improving a measurable fraction of
// the generated paths.
const (
	// DefaultTabuIterations bounds the improvement iterations per path.
	DefaultTabuIterations = 24
	// DefaultTabuNeighbors bounds the moves evaluated per iteration.
	DefaultTabuNeighbors = 8
	// DefaultTabuTenure is the number of iterations a moved process stays
	// tabu.
	DefaultTabuTenure = 5
	// DefaultTabuStagnation stops the loop after this many consecutive
	// iterations without improving the best schedule.
	DefaultTabuStagnation = 6
)

// StrategyParams tunes a strategy run. The zero value selects the defaults
// of every strategy; fields irrelevant to the selected strategy are ignored.
type StrategyParams struct {
	// TabuIterations bounds the tabu improvement iterations per path
	// (0 = DefaultTabuIterations, negative disables the loop and returns
	// the critical-path baseline).
	TabuIterations int
	// TabuNeighbors bounds the candidate moves evaluated per iteration
	// (0 = DefaultTabuNeighbors).
	TabuNeighbors int
}

// Strategy produces the schedule of one alternative path. A Strategy value
// holds no state: every scheduling run that selects it shares it, runs on
// different goroutines included, and the run's Scratch carries all mutable
// state.
type Strategy interface {
	// SchedulePath builds a schedule for the active subgraph sub on
	// architecture a, reusing the scratch buffers.
	SchedulePath(sc *Scratch, sub *cpg.Subgraph, a *arch.Architecture, p StrategyParams) (*sched.PathSchedule, *Diagnostics, error)
}

// strategies is the fixed table of strategies, sorted by name.
var strategies = [...]struct {
	name string
	s    Strategy
}{
	{DefaultStrategy, criticalPathStrategy{}},
	{"tabu", tabuStrategy{}},
}

// LookupStrategy returns the strategy with the given name.
func LookupStrategy(name string) (Strategy, bool) {
	for _, e := range strategies {
		if e.name == name {
			return e.s, true
		}
	}
	return nil, false
}

// StrategyNames returns the names of all strategies, sorted alphabetically
// (so ablations and documentation are deterministic).
func StrategyNames() []string {
	out := make([]string, len(strategies))
	for i, e := range strategies {
		out[i] = e.name
	}
	return out
}

// criticalPathStrategy is one list-scheduling run under the critical-path
// priority.
type criticalPathStrategy struct{}

func (criticalPathStrategy) SchedulePath(sc *Scratch, sub *cpg.Subgraph, a *arch.Architecture, _ StrategyParams) (*sched.PathSchedule, *Diagnostics, error) {
	return sc.Schedule(sub, a, Options{Priority: PriorityCriticalPath})
}

// tabuStrategy improves the critical-path schedule of a path by tabu search
// over priority orders.
type tabuStrategy struct{}

// tabuCandidate is one move of the neighborhood: promote the process to the
// front of the priority order.
type tabuCandidate struct {
	proc cpg.ProcID
	end  int64
}

func (tabuStrategy) SchedulePath(sc *Scratch, sub *cpg.Subgraph, a *arch.Architecture, p StrategyParams) (*sched.PathSchedule, *Diagnostics, error) {
	best, diag, err := sc.Schedule(sub, a, Options{Priority: PriorityCriticalPath})
	if err != nil {
		return nil, diag, err
	}
	iters := p.TabuIterations
	switch {
	case iters < 0:
		return best, diag, nil
	case iters == 0:
		iters = DefaultTabuIterations
	}
	neighbors := p.TabuNeighbors
	if neighbors <= 0 {
		neighbors = DefaultTabuNeighbors
	}
	// A path with no contention to reorder cannot improve: every process on
	// a two-activity path starts at its earliest feasible moment already.
	if sub.NumActive() <= 3 || best.Delay == 0 {
		return best, diag, nil
	}

	g := sub.G
	cur := best
	order := make([]int64, g.NumProcs())
	tabuUntil := make([]int, g.NumProcs())
	cands := make([]tabuCandidate, 0, cur.Len())
	stagnant := 0
	for it := 0; it < iters && stagnant < DefaultTabuStagnation; it++ {
		// Fixed order of the current schedule, and the candidate moves:
		// real processes sorted by end time descending (the late finishers
		// bound the makespan), ties by identifier ascending — fully
		// deterministic, so the whole loop is reproducible.
		cands = cands[:0]
		for _, e := range cur.Entries() {
			if e.Key.IsCond {
				continue
			}
			order[e.Key.Proc] = e.Start
			if proc := g.Process(e.Key.Proc); proc == nil || proc.IsDummy() {
				continue
			}
			cands = append(cands, tabuCandidate{proc: e.Key.Proc, end: e.End})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].end != cands[j].end {
				return cands[i].end > cands[j].end
			}
			return cands[i].proc < cands[j].proc
		})

		var bestMove *sched.PathSchedule
		bestProc := cpg.NoProc
		tried := 0
		for _, c := range cands {
			if tried >= neighbors {
				break
			}
			tried++
			saved := order[c.proc]
			order[c.proc] = -1 // promote: schedule as soon as it becomes ready
			trial, _, err := sc.Schedule(sub, a, Options{Priority: PriorityFixedOrder, Order: order})
			order[c.proc] = saved
			if err != nil {
				return nil, diag, err
			}
			// Aspiration: a tabu move is only admissible when it beats the
			// best schedule seen so far.
			if tabuUntil[c.proc] > it && trial.Delay >= best.Delay {
				continue
			}
			if bestMove == nil || trial.Delay < bestMove.Delay {
				bestMove, bestProc = trial, c.proc
			}
		}
		if bestMove == nil {
			break // every evaluated move is tabu and none aspires
		}
		cur = bestMove
		tabuUntil[bestProc] = it + 1 + DefaultTabuTenure
		if cur.Delay < best.Delay {
			best = cur
			stagnant = 0
		} else {
			stagnant++
		}
	}
	return best, diag, nil
}
