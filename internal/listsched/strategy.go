// Strategy registry: pluggable per-path scheduling strategies on top of the
// list scheduler. A strategy produces the (optimal) schedule of one
// alternative path; the merging algorithm of package core consumes the
// resulting schedules unchanged, so every strategy opens a quality-vs-time
// tradeoff without touching the table generation.
//
// Built-in strategies:
//
//   - "critical-path" (the default): one list-scheduling run with the
//     longest-remaining-path priority, exactly the scheduler of the paper;
//   - "urgency": one run with the partial-critical-path priority, which
//     extends every remaining chain with the condition broadcast time τ0 per
//     condition decided along it (communication latency is already in the
//     chain because communication processes are explicit nodes);
//   - "tabu": a tabu-search improvement loop in the spirit of the heuristic
//     mapping/scheduling work the paper cites: starting from the
//     critical-path schedule, it repeatedly promotes late-finishing processes
//     to the front of the priority order, re-evaluates each move with a
//     PriorityFixedOrder run on the zero-alloc Scratch, keeps a tabu list of
//     recently moved processes, and returns the best schedule found. The
//     loop is bounded by iterations (and optionally wall-clock budget) and
//     never returns a schedule worse than the critical-path baseline.
//
// Strategies are registered under a string key so documents, HTTP requests
// and command-line flags can select them by name; RegisterStrategy lets
// downstream code plug in more.
package listsched

import (
	"fmt"
	"sort"
	"sync"
	"time"

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
	// Budget bounds the wall-clock time of the improvement loop per path
	// (0 = unbounded). A positive budget trades determinism for latency:
	// two runs may cut the loop at different iterations, so leave it zero
	// whenever reproducible output matters (it is deliberately not part of
	// the problem document).
	Budget time.Duration
}

// Strategy produces the schedule of one alternative path. Implementations
// must be stateless (or internally synchronized): one Strategy value is
// shared by every worker goroutine of a scheduling run, with per-worker
// Scratch values carrying all mutable state.
type Strategy interface {
	// Name is the registry key ("critical-path", "urgency", "tabu", ...).
	Name() string
	// Describe returns a one-line human-readable description.
	Describe() string
	// SchedulePath builds a schedule for the active subgraph sub on
	// architecture a, reusing the scratch buffers.
	SchedulePath(sc *Scratch, sub *cpg.Subgraph, a *arch.Architecture, p StrategyParams) (*sched.PathSchedule, *Diagnostics, error)
}

var (
	strategyMu sync.RWMutex
	strategies = map[string]Strategy{}
)

// RegisterStrategy adds a strategy to the registry. It panics on an empty
// name or a duplicate registration — strategy names are part of the document
// format and must be unambiguous.
func RegisterStrategy(s Strategy) {
	name := s.Name()
	if name == "" {
		panic("listsched: RegisterStrategy with empty name")
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	if _, dup := strategies[name]; dup {
		panic(fmt.Sprintf("listsched: strategy %q registered twice", name))
	}
	strategies[name] = s
}

// LookupStrategy returns the registered strategy with the given name.
func LookupStrategy(name string) (Strategy, bool) {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	s, ok := strategies[name]
	return s, ok
}

// StrategyNames returns the names of all registered strategies, sorted
// alphabetically (so ablations and documentation are deterministic).
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	out := make([]string, 0, len(strategies))
	for name := range strategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterStrategy(priorityStrategy{
		name: DefaultStrategy,
		desc: "longest-remaining-path list scheduling (the paper's scheduler)",
		prio: PriorityCriticalPath,
	})
	RegisterStrategy(priorityStrategy{
		name: "urgency",
		desc: "partial-critical-path priority weighting condition-broadcast latency (τ0 per decided condition)",
		prio: PriorityUrgency,
	})
	RegisterStrategy(tabuStrategy{})
}

// priorityStrategy is a single list-scheduling run under a fixed priority
// function.
type priorityStrategy struct {
	name string
	desc string
	prio Priority
}

func (s priorityStrategy) Name() string     { return s.name }
func (s priorityStrategy) Describe() string { return s.desc }

func (s priorityStrategy) SchedulePath(sc *Scratch, sub *cpg.Subgraph, a *arch.Architecture, _ StrategyParams) (*sched.PathSchedule, *Diagnostics, error) {
	return sc.Schedule(sub, a, Options{Priority: s.prio})
}

// tabuStrategy improves the critical-path schedule of a path by tabu search
// over priority orders.
type tabuStrategy struct{}

func (tabuStrategy) Name() string { return "tabu" }
func (tabuStrategy) Describe() string {
	return "tabu-search improvement of the critical-path schedule (promote-late-finishers neighborhood)"
}

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
	var deadline time.Time
	if p.Budget > 0 {
		//lint:allow nowallclock Budget is a wall-clock cutoff by contract; budgeted runs bypass the deterministic memo
		deadline = time.Now().Add(p.Budget)
	}

	g := sub.G
	cur := best
	order := make([]int64, g.NumProcs())
	tabuUntil := make([]int, g.NumProcs())
	cands := make([]tabuCandidate, 0, cur.Len())
	stagnant := 0
	for it := 0; it < iters && stagnant < DefaultTabuStagnation; it++ {
		//lint:allow nowallclock Budget is a wall-clock cutoff by contract; budgeted runs bypass the deterministic memo
		if p.Budget > 0 && time.Now().After(deadline) {
			break
		}
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
