// Package core implements the schedule-table generation algorithm of the
// paper (section 5): the schedules of the alternative paths through a
// conditional process graph are merged into a single schedule table by
// walking the binary decision tree of condition values depth-first.
//
// The algorithm follows the rules of section 5.1:
//
//  1. start times are fixed in the table according, with priority, to the
//     schedule of the reachable path with the largest delay;
//  2. a start time is placed in the column headed by the conjunction of all
//     condition values known, at that time, on the processing element that
//     executes the process (according to the current schedule);
//  3. when a new path is selected after a back-step, its schedule is adjusted
//     by locking the processes whose activation time is already fixed in a
//     column that depends only on conditions decided before the branching
//     node; the other processes are rescheduled keeping their relative order;
//  4. conflicts with requirement 2 (two compatible columns with different
//     activation times for the same process) are resolved by moving the
//     process to one of the previously fixed activation times (Theorem 2) and
//     readjusting the schedule.
//
// The adjustment of rule 3 is often the identity. When every lock already
// sits where the path's optimal schedule starts the activity (and a
// broadcast lock on the bus that schedule uses), and every broadcast the
// locks leave free starts when its decider ends on the first broadcast bus,
// rescheduling in fixed order reproduces the optimal schedule exactly; the
// merge then follows that schedule without running the list scheduler
// (merger.agrees has the proof, and Stats.ReusedReschedules counts these
// reschedules). On the paper's grid this holds for about 62% of the
// reschedules.
//
// Each schedule is walked once: the segments placed along one schedule
// resume where the previous segment stopped, since the activities before
// that point are already in the table.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/listsched"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/table"
)

// PathSelection chooses which reachable path the merging algorithm follows
// after a back-step. The paper always follows the largest-delay path; the
// other policies exist for ablation experiments.
type PathSelection int

const (
	// SelectLargestDelay follows the reachable path with the largest
	// optimal delay (the paper's rule).
	SelectLargestDelay PathSelection = iota
	// SelectSmallestDelay follows the reachable path with the smallest
	// optimal delay (ablation).
	SelectSmallestDelay
	// SelectFirst follows the first reachable path in enumeration order
	// (ablation).
	SelectFirst
)

// String returns the name of the selection policy.
func (s PathSelection) String() string {
	switch s {
	case SelectLargestDelay:
		return "largest-delay"
	case SelectSmallestDelay:
		return "smallest-delay"
	case SelectFirst:
		return "first"
	default:
		return fmt.Sprintf("selection(%d)", int(s))
	}
}

// ConflictPolicy chooses how requirement-2 conflicts are resolved.
type ConflictPolicy int

const (
	// ConflictMoveToExisting applies Theorem 2: the process is moved to one
	// of the previously fixed activation times that removes every conflict.
	ConflictMoveToExisting ConflictPolicy = iota
	// ConflictDelayToLatest delays the process to the latest conflicting
	// activation time (naive baseline used for ablation).
	ConflictDelayToLatest
)

// String returns the name of the conflict policy.
func (c ConflictPolicy) String() string {
	switch c {
	case ConflictMoveToExisting:
		return "move-to-existing"
	case ConflictDelayToLatest:
		return "delay-to-latest"
	default:
		return fmt.Sprintf("conflict(%d)", int(c))
	}
}

// Options configures the table generation.
type Options struct {
	// PathPriority is the list-scheduling priority used for the optimal
	// schedule of each alternative path (critical path by default). It is
	// ignored when Strategy is set.
	PathPriority listsched.Priority
	// Strategy names the per-path scheduling strategy of package listsched
	// ("critical-path" or "tabu"). Empty selects the classic
	// PathPriority-driven list scheduler. Unknown names are rejected by
	// Schedule with ErrUnknownStrategy. Strategies only shape the optimal
	// per-path schedules; the merge itself (and its fixed-order
	// rescheduling) is strategy-independent, so every strategy yields a
	// table satisfying requirements 1-4.
	Strategy string
	// StrategyParams tunes the selected strategy (tabu iteration and
	// neighborhood bounds).
	StrategyParams listsched.StrategyParams
	// PathSelection is the rule used to pick the current schedule after a
	// back-step (largest delay by default, as in the paper).
	PathSelection PathSelection
	// ConflictPolicy selects the conflict resolution strategy.
	ConflictPolicy ConflictPolicy
	// MaxPaths bounds the number of alternative paths (0 = default bound).
	MaxPaths int
	// Workers bounds the number of goroutines scheduling the alternative
	// paths concurrently, and — after the merge — re-enacting and
	// validating them (0 = GOMAXPROCS, 1 = sequential). Negative values
	// are rejected by Schedule with an error; they are never treated as
	// sequential. The result is identical for every worker count: per-path
	// results are collected in path enumeration order and the merging
	// itself stays sequential.
	//
	// Callers going through a service.Service are subject to the service's
	// global worker budget, which overrides this field: the service clamps
	// Workers to the tokens it could actually acquire, so a per-call
	// request never exceeds the budget shared across concurrent requests.
	Workers int
}

// ErrNegativeWorkers is returned by Schedule when Options.Workers < 0.
var ErrNegativeWorkers = errors.New("core: Options.Workers must be >= 0 (0 = GOMAXPROCS)")

// ErrUnknownStrategy is returned by Schedule when Options.Strategy names no
// scheduling strategy.
var ErrUnknownStrategy = errors.New("core: unknown scheduling strategy")

// resolveStrategy maps Options.Strategy to a strategy; empty
// selects the legacy PathPriority-driven scheduler (nil strategy).
func resolveStrategy(opt Options) (listsched.Strategy, error) {
	if opt.Strategy == "" {
		return nil, nil
	}
	s, ok := listsched.LookupStrategy(opt.Strategy)
	if !ok {
		return nil, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownStrategy, opt.Strategy, strings.Join(listsched.StrategyNames(), ", "))
	}
	return s, nil
}

// Stats summarises the work done by the merging algorithm.
type Stats struct {
	Paths               int
	BackSteps           int
	SegmentsPlaced      int
	Conflicts           int
	ConflictsResolved   int
	UnresolvedConflicts int
	Locks               int
	LockViolations      int
	Columns             int
	Entries             int
	// WarmReusedPaths counts the alternative paths whose optimal schedule
	// was reused from a previous result by ScheduleWarm (0 on cold runs).
	WarmReusedPaths int
	// Reschedules counts the adjustments of the merge (rule 3 after a
	// back-step, and the readjustments after a resolved conflict), and
	// ReusedReschedules those among them whose locks agreed with the path's
	// optimal schedule, which the merge then followed as it is. Neither is
	// part of the solution document.
	Reschedules       int
	ReusedReschedules int
	// PathSchedulingTime is the wall-clock time spent scheduling the
	// individual alternative paths (the figure of section 6 that quotes
	// "less than 0.003 seconds" per graph).
	PathSchedulingTime time.Duration
	// MergeTime is the wall-clock time of the schedule merging itself
	// (Fig. 6 of the paper).
	MergeTime time.Duration
	// ValidationTime is the wall-clock time spent validating the table and
	// re-enacting every path.
	ValidationTime time.Duration
}

// PathResult pairs a path label with its optimal delay and the delay obtained
// when executing the generated schedule table on that path.
type PathResult struct {
	Label        cond.Cube
	OptimalDelay int64
	TableDelay   int64
}

// Result is the outcome of the table generation.
type Result struct {
	Graph *cpg.Graph
	Arch  *arch.Architecture
	Table *table.Table
	// Paths lists every alternative path with optimal and table delays.
	Paths []PathResult
	// Schedules are the optimal per-path schedules (same order as Paths).
	Schedules []*sched.PathSchedule
	// Subgraphs are the active subgraphs of the alternative paths (same
	// order as Paths), built once during path scheduling and reused by the
	// validation and simulation stages; callers re-enacting paths against
	// the table can reuse them too.
	Subgraphs []*cpg.Subgraph
	// DeltaM is the largest delay among the per-path schedules in
	// Schedules. Those come from the list scheduler (or the selected
	// strategy), a heuristic, so DeltaM is not a proven lower bound: it can
	// exceed the largest truly optimal path delay.
	DeltaM int64
	// DeltaMax is the worst-case delay of the generated table.
	DeltaMax int64
	// Violations lists the findings of the one check of the table, each
	// once: the row checks of table.Validate (requirements 1 and 2), then,
	// path by path, those of the re-enactment in package sim (requirements
	// 3 and 4, dependencies and overlaps). An empty list means the table is
	// logically and temporally deterministic.
	Violations []table.Violation
	Stats      Stats
}

// IncreasePercent returns 100*(δmax-δM)/δM, the metric of Fig. 5.
func (r *Result) IncreasePercent() float64 {
	if r.DeltaM == 0 {
		return 0
	}
	return 100 * float64(r.DeltaMax-r.DeltaM) / float64(r.DeltaM)
}

// Deterministic reports whether no violation was found.
func (r *Result) Deterministic() bool { return len(r.Violations) == 0 }

// RowName renders a row key with the process and condition names of the
// graph, for use with table.RenderOptions.
func (r *Result) RowName(k sched.Key) string {
	if k.IsCond {
		return r.Graph.CondName(k.Cond)
	}
	return r.Graph.Process(k.Proc).Name
}

// pathInfo carries the per-path data used during merging.
type pathInfo struct {
	index   int
	path    *cpg.Path
	sub     *cpg.Subgraph
	optimal *sched.PathSchedule
	// order holds the fixed-order priorities of the path's reschedules:
	// the start times of its optimal schedule, by ProcID.
	order []int64
}

// newPathInfo pairs a path with its optimal schedule and the fixed-order
// priorities derived from it.
func newPathInfo(i int, p *cpg.Path, sub *cpg.Subgraph, optimal *sched.PathSchedule) *pathInfo {
	order := make([]int64, sub.G.NumProcs())
	for _, e := range optimal.Entries() {
		if !e.Key.IsCond {
			order[e.Key.Proc] = e.Start
		}
	}
	return &pathInfo{index: i, path: p, sub: sub, optimal: optimal, order: order}
}

type merger struct {
	ctx   context.Context
	g     *cpg.Graph
	a     *arch.Architecture
	opt   Options
	tbl   *table.Table
	paths []*pathInfo
	stats Stats
	steps int
	// bus0 is the architecture's first broadcast bus (NoPE when it has
	// none), the bus a broadcast takes when every bus is free.
	bus0 arch.PEID
	// scratch is reused by every reschedule of the (sequential) merge.
	scratch *listsched.Scratch
	// The merge has one live current schedule and one live lock set: a frame
	// of explore never reads its cur or fixed again once its recursive call
	// on the current branch returns, it only back-steps. So every reschedule
	// writes into one of the two recycled schedules in bufs, alternately (a
	// reschedule never overwrites the schedule it replaces), and every
	// back-step refills locks in place. The root, and every reschedule whose
	// locks agree with the path's optimal schedule, follow that optimal
	// schedule itself, which is never written: schedules are only read once
	// built, and bufs never hold a published one.
	bufs  [2]*sched.PathSchedule
	next  int
	locks *listsched.Locks
}

// Schedule generates the schedule table for the graph on the given
// architecture and evaluates it (δM, δmax, validation). It is
// ScheduleContext with a background context.
func Schedule(g *cpg.Graph, a *arch.Architecture, opt Options) (*Result, error) {
	return ScheduleContext(context.Background(), g, a, opt)
}

// Phases reported to a PhaseFunc, in run order.
const (
	// PhaseMerge begins when the parallel path fan-out is done and the
	// sequential merge starts.
	PhaseMerge = "merge"
	// PhaseValidate begins when the merge is done and the parallel
	// validation/re-enactment starts.
	PhaseValidate = "validate"
)

// PhaseFunc observes the transitions between the phases of a run and bounds
// the parallelism of the upcoming phase: it receives the phase name and the
// worker count the phase would use, and returns the count the phase may
// actually use (clamped to at least 1). The scheduling service uses it to
// hand back unused worker-budget tokens during the sequential merge and to
// reclaim what is free again for the validation fan-out.
type PhaseFunc func(phase string, want int) int

// ScheduleContext is Schedule with cancellation: the context is checked
// before every path-scheduling job of the fan-out and between the back-steps
// of the merge loop, so a long merge aborts promptly (returning ctx.Err())
// when the caller cancels or times out.
func ScheduleContext(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options) (*Result, error) {
	return SchedulePhased(ctx, g, a, opt, nil)
}

// SchedulePhased is ScheduleContext reporting phase transitions to phases
// (which may be nil).
func SchedulePhased(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options, phases PhaseFunc) (*Result, error) {
	return schedulePhased(ctx, g, a, opt, phases, nil)
}

// schedulePhased runs the full pipeline; warm (optional) allows reusing
// per-path schedules from a previous result of the same problem shape.
func schedulePhased(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options, phases PhaseFunc, warm *warmPlan) (*Result, error) {
	if g == nil || a == nil {
		return nil, errors.New("core: nil graph or architecture")
	}
	if opt.Workers < 0 {
		return nil, fmt.Errorf("%w; got %d", ErrNegativeWorkers, opt.Workers)
	}
	if _, err := resolveStrategy(opt); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if !g.Finalized() {
		if err := g.Finalize(a); err != nil {
			return nil, err
		}
	}
	paths, err := g.AlternativePaths(opt.MaxPaths)
	if err != nil {
		return nil, err
	}
	m := &merger{ctx: ctx, g: g, a: a, opt: opt, tbl: table.New(g.NumProcs())}
	var deltaM int64
	var reuse []warmReuse
	if warm != nil {
		reuse = warm.plan(g, paths)
		for _, r := range reuse {
			if r.optimal != nil {
				m.stats.WarmReusedPaths++
			}
		}
	}
	//lint:allow nowallclock phase telemetry reported via Stats; never part of the table output or any hash
	tPathSched := time.Now()
	infos, err := schedulePaths(ctx, g, a, opt, paths, reuse)
	if err != nil {
		return nil, err
	}
	schedules := make([]*sched.PathSchedule, 0, len(paths))
	subgraphs := make([]*cpg.Subgraph, 0, len(paths))
	for _, pi := range infos {
		m.paths = append(m.paths, pi)
		schedules = append(schedules, pi.optimal)
		subgraphs = append(subgraphs, pi.sub)
		if pi.optimal.Delay > deltaM {
			deltaM = pi.optimal.Delay
		}
	}
	m.stats.Paths = len(paths)
	m.stats.PathSchedulingTime = time.Since(tPathSched)

	// Merge (sequential: a single goroutine walks the decision tree).
	if phases != nil {
		phases(PhaseMerge, 1)
	}
	//lint:allow nowallclock phase telemetry reported via Stats; never part of the table output or any hash
	tMerge := time.Now()
	start := m.selectPath(cond.True())
	if start == nil {
		return nil, errors.New("core: no alternative path found")
	}
	m.locks = listsched.NewLocks(g.NumProcs())
	m.bus0 = arch.NoPE
	if bb := a.BroadcastBuses(); len(bb) > 0 {
		m.bus0 = bb[0]
	}
	m.scratch = scratchPool.Get().(*listsched.Scratch)
	err = m.explore(start, start.optimal, m.locks, cond.True(), 0)
	scratchPool.Put(m.scratch)
	if err != nil {
		return nil, err
	}
	m.stats.MergeTime = time.Since(tMerge)
	m.stats.Columns = len(m.tbl.Columns())
	m.stats.Entries = m.tbl.NumEntries()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Evaluate the table: the row checks, then the per-path re-enactment on
	// the same worker pool as the path scheduling, reusing the subgraphs
	// built there instead of re-extracting them per path.
	res := &Result{
		Graph:     g,
		Arch:      a,
		Table:     m.tbl,
		Schedules: schedules,
		Subgraphs: subgraphs,
		DeltaM:    deltaM,
		Stats:     m.stats,
	}
	validateWorkers := opt.Workers
	if phases != nil {
		if w := phases(PhaseValidate, opt.Workers); w >= 1 {
			validateWorkers = w
		} else {
			validateWorkers = 1
		}
	}
	//lint:allow nowallclock phase telemetry reported via Stats; never part of the table output or any hash
	tValidate := time.Now()
	res.Violations = m.tbl.Validate(g)
	simRes, err := sim.WorstCaseSubgraphs(a, m.tbl, subgraphs, validateWorkers)
	if err != nil {
		return nil, err
	}
	res.Stats.ValidationTime = time.Since(tValidate)
	res.DeltaMax = simRes.DeltaMax
	res.Violations = append(res.Violations, simRes.Violations...)
	for i, p := range paths {
		res.Paths = append(res.Paths, PathResult{
			Label:        p.Label,
			OptimalDelay: schedules[i].Delay,
			TableDelay:   simRes.Traces[i].Delay,
		})
	}
	return res, nil
}

// scratchPool recycles list-scheduling scratches across Schedule calls: the
// per-worker scratches of the path phase and the merge's. A scratch keeps the
// buffers of the largest graph it scheduled, and every run resets what it
// reads.
var scratchPool = sync.Pool{New: func() any { return new(listsched.Scratch) }}

// schedulePaths produces the optimal schedule of every alternative path,
// fanning the independent per-path strategy runs out over a bounded worker
// pool — for the improvement strategies (tabu), the expensive per-path
// iteration loops are exactly what rides the pool. The graph, architecture
// and paths are only read, and every worker writes exclusively to its own
// result slot, so the fan-out is race-free; results come back indexed by
// path so the outcome is identical to the sequential loop regardless of
// worker count or completion order.
func schedulePaths(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options, paths []*cpg.Path, reuse []warmReuse) ([]*pathInfo, error) {
	strategy, err := resolveStrategy(opt)
	if err != nil {
		return nil, err
	}
	infos := make([]*pathInfo, len(paths))
	errs := make([]error, len(paths))
	var failed atomic.Bool
	// Each worker owns one listsched.Scratch, so the many per-path runs
	// reuse the same buffers instead of reallocating the scheduler state.
	scratches := make([]*listsched.Scratch, pool.Clamp(len(paths), opt.Workers))
	for w := range scratches {
		scratches[w] = scratchPool.Get().(*listsched.Scratch)
	}
	defer func() {
		for _, sc := range scratches {
			scratchPool.Put(sc)
		}
	}()
	pool.ForEachIndexWorker(len(paths), opt.Workers, func(worker, i int) {
		if failed.Load() {
			return // another path already failed; skip the remaining work
		}
		if err := ctx.Err(); err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		p := paths[i]
		if reuse != nil && reuse[i].optimal != nil {
			// Warm start: the previous run's schedule for this path is
			// byte-identical to what a fresh run would produce, so skip the
			// (dominant) per-path strategy run and the subgraph extraction.
			infos[i] = newPathInfo(i, p, reuse[i].sub, reuse[i].optimal)
			return
		}
		sub := g.Subgraph(p)
		var ps *sched.PathSchedule
		var err error
		if strategy != nil {
			ps, _, err = strategy.SchedulePath(scratches[worker], sub, a, opt.StrategyParams)
		} else {
			ps, _, err = scratches[worker].Schedule(sub, a, listsched.Options{Priority: opt.PathPriority})
		}
		if err != nil {
			errs[i] = fmt.Errorf("core: scheduling path %s: %w", p.Label.Format(g.CondName), err)
			failed.Store(true)
			return
		}
		infos[i] = newPathInfo(i, p, sub, ps)
	})

	// Report the lowest-indexed recorded error (later paths may have been
	// skipped once the first failure was observed).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// selectPath picks, among the paths reachable from the decision-tree node
// described by decided, the one the merging follows next.
func (m *merger) selectPath(decided cond.Cube) *pathInfo {
	var best *pathInfo
	for _, pi := range m.paths {
		if !pi.path.Label.Implies(decided) {
			continue
		}
		switch {
		case best == nil:
			best = pi
		case m.opt.PathSelection == SelectFirst:
			return best
		case m.opt.PathSelection == SelectSmallestDelay:
			if pi.optimal.Delay < best.optimal.Delay {
				best = pi
			}
		default:
			if pi.optimal.Delay > best.optimal.Delay {
				best = pi
			}
		}
	}
	return best
}

// deriveLocks applies rule 3 of section 5.1: every activity of the new path
// whose activation time is already fixed in a column that mentions only
// conditions decided before the branching node (and is consistent with their
// values) keeps that activation time. It refills the merge's one lock set.
func (m *merger) deriveLocks(pi *pathInfo, decided cond.Cube) *listsched.Locks {
	locks := m.locks
	locks.Reset()
	for _, key := range m.tbl.KeysView() {
		if key.IsCond {
			def := m.g.Condition(key.Cond)
			if def == nil || !pi.path.IsActive(def.Decider) {
				continue
			}
		} else if !pi.path.IsActive(key.Proc) {
			continue
		}
		for _, e := range m.tbl.RowView(key) {
			if !e.Expr.CondsSubsetOf(decided) || !e.Expr.Compatible(decided) {
				continue
			}
			lock := listsched.Lock{Start: e.Start, Bus: arch.NoPE}
			if key.IsCond {
				if ct, ok := pi.optimal.Cond(key.Cond); ok && ct.Bus != arch.NoPE {
					lock.Bus = ct.Bus
				} else {
					lock.Bus = m.bus0
				}
			}
			locks.Set(key, lock)
			m.stats.Locks++
			break
		}
	}
	return locks
}

// reschedule produces the adjusted schedule of a path: locked activities stay
// at their fixed activation times, the other activities are rescheduled to
// their earliest allowed moment keeping the relative priorities of the
// original (optimal) schedule. When the locks agree with the optimal schedule
// the adjustment is the identity, and the optimal schedule itself is returned.
func (m *merger) reschedule(pi *pathInfo, locks *listsched.Locks) (*sched.PathSchedule, error) {
	m.stats.Reschedules++
	if m.agrees(pi, locks) {
		m.stats.ReusedReschedules++
		return pi.optimal, nil
	}
	ps, diag, err := m.scratch.ScheduleInto(m.bufs[m.next], pi.sub, m.a, listsched.Options{
		Priority: listsched.PriorityFixedOrder,
		Order:    pi.order,
		Locked:   locks,
	})
	if err != nil {
		return nil, err
	}
	m.bufs[m.next] = ps
	m.next ^= 1
	m.stats.LockViolations += len(diag.LockViolations)
	return ps, nil
}

// agrees reports whether rescheduling path pi under locks would reproduce
// its optimal schedule S exactly. That holds when
//
//   - every lock on an activity of the path sits at the activity's start in
//     S, and a broadcast lock is on S's bus too (a lock on a broadcast S does
//     not make fails: its reservation could delay another activity), and
//   - every broadcast of S that is not locked starts when its decider ends,
//     on the first broadcast bus.
//
// Proof. S was built by a list-scheduling run without locks, and reschedule
// runs the list scheduler in fixed order with priorities equal to the S
// starts (ties by ProcID). By induction over its pops, every activity placed
// so far starts at its S start. The scheduler pops the ready process p with
// the smallest S start, and every process starting before p in S is placed
// by then: its earliest unplaced ancestor would be ready and start no later
// in S. So are p's active predecessors and the deciders of its guard's
// conditions, which are ancestors of p, so p gets the same earliest start
// from data and condition knowledge as in the run that built S. Every
// interval reserved on p's element belongs to a placed or locked activity,
// so it is an interval of S and leaves p's S interval free; and each interval
// that kept that run from starting p earlier started before p, so it is
// reserved too. So p starts at its S start; a locked p starts at its lock,
// which is its S start, without a lock violation. An unlocked broadcast finds
// the first broadcast bus free when its decider ends, for the same reason,
// and the scheduler takes the first bus among equal starts; a locked one
// takes its lock. The run thus sets the same entries and condition records as
// S, and they sort into S.
func (m *merger) agrees(pi *pathInfo, locks *listsched.Locks) bool {
	s := pi.optimal
	for key, lock := range locks.All() {
		if !key.IsCond && !pi.sub.Active(key.Proc) {
			continue // the scheduler ignores the locks of inactive processes
		}
		e, ok := s.Entry(key)
		if !ok || e.Start != lock.Start || (key.IsCond && e.PE != lock.Bus) {
			return false
		}
	}
	for _, ct := range s.Conds() {
		if ct.Bus == arch.NoPE {
			continue // no broadcast: the architecture has one computation element
		}
		if _, locked := locks.Get(sched.CondKey(ct.Cond)); !locked &&
			(ct.BroadcastStart != ct.DecidedAt || ct.Bus != m.bus0) {
			return false
		}
	}
	return true
}

// lockFor converts a schedule entry into a lock at its current start time.
func lockFor(e sched.Entry) listsched.Lock {
	l := listsched.Lock{Start: e.Start, Bus: arch.NoPE}
	if e.Key.IsCond {
		l.Bus = e.PE
	}
	return l
}

// explore walks the decision tree along the current schedule cur of path pi,
// with the condition values in decided already fixed. fixed accumulates the
// activation times of cur that are (or become) locked, so that conflict
// readjustments keep everything already placed. The entries of cur before
// from are placed already (see placeSegment).
func (m *merger) explore(pi *pathInfo, cur *sched.PathSchedule, fixed *listsched.Locks, decided cond.Cube, from int) error {
	for {
		m.steps++
		if m.steps > 10000*(len(m.paths)+1) {
			return errors.New("core: merging did not converge (safety bound exceeded)")
		}
		// The merge is sequential and a single back-step can reschedule a
		// whole path, so this per-step check is what makes cancellation of
		// a long merge prompt.
		if err := m.ctx.Err(); err != nil {
			return err
		}
		// Next condition decided along the current schedule.
		var next *sched.CondTiming
		for _, ct := range cur.Conds() {
			if !decided.Has(ct.Cond) {
				c := ct
				next = &c
				break
			}
		}
		limit := int64(math.MaxInt64)
		if next != nil {
			limit = next.DecidedAt
		}
		resume, changed, err := m.placeSegment(pi, &cur, fixed, from, limit)
		if err != nil {
			return err
		}
		if changed {
			// The current schedule was readjusted; recompute the next
			// decision point and place the new schedule from its start.
			from = 0
			continue
		}
		if next == nil {
			return nil // EndOfSchedule
		}
		// Continue along the current schedule (the branch whose condition
		// value matches the current path).
		d1 := decided.MustWith(next.Cond, next.Value)
		if err := m.explore(pi, cur, fixed, d1, resume); err != nil {
			return err
		}
		// Back-step: take the opposite branch with a new current schedule.
		d2 := decided.MustWith(next.Cond, !next.Value)
		m.stats.BackSteps++
		npi := m.selectPath(d2)
		if npi == nil {
			// No alternative path takes this branch (can happen only for
			// inconsistent graphs); nothing to schedule.
			return nil
		}
		nfixed := m.deriveLocks(npi, d2)
		ncur, err := m.reschedule(npi, nfixed)
		if err != nil {
			return err
		}
		return m.explore(npi, ncur, nfixed, d2, 0)
	}
}

// placeSegment places into the table the activities of the current schedule
// that start before limit, from its entry from on. It returns changed ==
// true when a conflict forced a readjustment of the current schedule (in
// which case *curp points to the new schedule and the caller restarts the
// segment). Otherwise it returns where the next segment of the same schedule
// resumes: the segments of one schedule have growing limits and nothing
// changes the table between them, so an entry the walk left in the table
// would be found covered again, with its lock already set. Only an entry left
// out of the table (an unresolved conflict whose time the table refuses) is
// walked again, with the entries after it.
func (m *merger) placeSegment(pi *pathInfo, curp **sched.PathSchedule, fixed *listsched.Locks, from int, limit int64) (resume int, changed bool, err error) {
	m.stats.SegmentsPlaced++
	entries := (*curp).Entries()
	resume = from
	for i := from; i < len(entries) && entries[i].Start < limit; i++ {
		var placed bool
		if placed, changed, err = m.placeEntry(pi, curp, fixed, entries[i]); err != nil || changed {
			return 0, changed, err
		}
		if placed && resume == i {
			resume++
		}
	}
	return resume, false, nil
}

// placeEntry places one activity of the current schedule into the table. It
// reports placed == false when the activity is left out of the table, and
// changed == true when it readjusted the current schedule (see
// placeSegment). Dummy processes count as placed: they have no row.
func (m *merger) placeEntry(pi *pathInfo, curp **sched.PathSchedule, fixed *listsched.Locks, e sched.Entry) (placed, changed bool, err error) {
	cur := *curp
	key := e.Key
	if !key.IsCond {
		if p := m.g.Process(key.Proc); p == nil || p.IsDummy() {
			return true, false, nil
		}
	}
	// Skip when an applicable entry with the same activation time is already
	// in the table (the previously handled path fixed it).
	if covered(m.tbl.RowView(key), pi.path.Label, e.Start) {
		fixed.Set(key, lockFor(e))
		return true, false, nil
	}
	// Column expression: conjunction of the condition values known at the
	// activation time on the processing element executing the activity,
	// according to the current schedule (rule 2).
	expr := cur.KnownAt(e.PE, e.Start)
	conflicts := m.tbl.Conflicts(key, expr, e.Start)
	if len(conflicts) == 0 {
		if err := m.tbl.Place(key, expr, e.Start); err != nil {
			return false, false, err
		}
		fixed.Set(key, lockFor(e))
		return true, false, nil
	}
	// Requirement-2 conflict: resolve it.
	m.stats.Conflicts++
	newStart, resolved := m.resolveConflict(pi, cur, key, e, conflicts)
	if !resolved {
		// Best effort: keep the activation time and record that the table is
		// not fully deterministic; the validator will report the residual
		// conflict.
		m.stats.UnresolvedConflicts++
		if err := m.tbl.Place(key, expr, e.Start); err != nil {
			// An identical expression with a different time: force the
			// earlier time to keep the table well-formed.
			return false, false, nil
		}
		fixed.Set(key, lockFor(e))
		return true, false, nil
	}
	m.stats.ConflictsResolved++
	lock := lockFor(e)
	lock.Start = newStart
	fixed.Set(key, lock)
	ncur, err := m.reschedule(pi, fixed)
	if err != nil {
		return false, false, err
	}
	*curp = ncur
	return false, true, nil
}

// covered reports whether the row already contains an entry that applies on
// the given path with the given activation time.
func covered(row []table.Entry, label cond.Cube, start int64) bool {
	for _, e := range row {
		if e.Start == start && label.Implies(e.Expr) {
			return true
		}
	}
	return false
}

// resolveConflict implements Theorem 2 (or the ablation policy): it returns a
// previously fixed activation time to which the activity can be moved so that
// every conflict disappears, subject to feasibility in the current schedule.
func (m *merger) resolveConflict(pi *pathInfo, cur *sched.PathSchedule, key sched.Key, e sched.Entry, conflicts []table.Entry) (int64, bool) {
	// Earliest feasible start of the activity in the current schedule
	// (data dependencies and condition knowledge).
	earliest := m.earliestFeasible(pi, cur, key, e)

	candidateTimes := make([]int64, 0, len(conflicts))
	for _, c := range conflicts {
		candidateTimes = append(candidateTimes, c.Start)
	}
	slices.Sort(candidateTimes)
	candidateTimes = slices.Compact(candidateTimes)

	if m.opt.ConflictPolicy == ConflictDelayToLatest {
		latest := e.Start
		for _, t := range candidateTimes {
			if t > latest {
				latest = t
			}
		}
		if latest < earliest {
			latest = earliest
		}
		return latest, true
	}

	for _, t := range candidateTimes {
		if t < earliest {
			continue
		}
		expr := cur.KnownAt(e.PE, t)
		if len(m.tbl.Conflicts(key, expr, t)) == 0 {
			return t, true
		}
	}
	return 0, false
}

// earliestFeasible computes the earliest start allowed for an activity in the
// current schedule considering active predecessors and condition knowledge.
func (m *merger) earliestFeasible(pi *pathInfo, cur *sched.PathSchedule, key sched.Key, e sched.Entry) int64 {
	if key.IsCond {
		if ct, ok := cur.Cond(key.Cond); ok {
			return ct.DecidedAt
		}
		return 0
	}
	var earliest int64
	for _, q := range pi.sub.Preds(key.Proc) {
		if qe, ok := cur.Entry(sched.ProcKey(q)); ok && qe.End > earliest {
			earliest = qe.End
		}
	}
	proc := m.g.Process(key.Proc)
	if proc.PE != arch.NoPE {
		if cube, ok := m.g.Guard(key.Proc).SatisfiedCube(pi.path.Label); ok {
			for cm := cube.Mask(); cm != 0; cm &= cm - 1 {
				x := cond.Cond(bits.TrailingZeros64(cm))
				if at, ok := cur.KnownTime(x, proc.PE); ok && at > earliest {
					earliest = at
				}
			}
		}
	}
	return earliest
}
