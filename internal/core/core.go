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
//
// A Workspace holds the scheduling state of one graph and recycles it for
// the next, so a caller scheduling graph after graph stops allocating it per
// graph. Lend lends workspaces from one pool: every memo miss of the
// scheduling service borrows one, and so does every worker of a sweep shard,
// offline or on a server, for all the graphs it schedules. A workspace
// belongs to one goroutine at a time, and the Result its Schedule method
// returns stays valid only until the next call on the same workspace, which
// overwrites the table, schedules and subgraphs the Result points to, even
// when that call fails or is cancelled. A lent workspace goes back to the
// pool when the borrowing function returns, so what the caller keeps is
// copied out inside it: the numbers of a sweep graph, or a detached result
// (Result.Detach), which owns a compact copy of the table, the path list and
// the violations, and keeps none of the workspace's schedules, subgraphs,
// merge buffers, lock set or path records alive. The pool is a sync.Pool:
// the collector frees the workspaces that no caller has taken since the
// collection before, so one sized to a large graph does not stay pinned.
// Schedule, ScheduleContext and SchedulePhased run the same code on a fresh
// workspace, so their results own their memory.
//
// Every run is cold and runs on the calling goroutine: it schedules every
// alternative path, merges the schedules in one walk of the decision tree,
// then checks the table and re-enacts every path. Callers that want
// parallelism run several problems at once, each in its own workspace.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/listsched"
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
	// Workers is read by no code of this module: every run schedules its
	// paths on the calling goroutine. It stays only because the benchmark
	// sets it; ROADMAP item 4's benchmark change deletes it.
	Workers int
}

// ErrUnknownStrategy is returned by Schedule when Options.Strategy names no
// scheduling strategy.
var ErrUnknownStrategy = errors.New("core: unknown scheduling strategy")

// ErrNotConverged is returned by Schedule when the merge reaches its safety
// bound of 10000*(paths+1) steps before it has walked the decision tree.
var ErrNotConverged = errors.New("core: merging did not converge (safety bound exceeded)")

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
	// WarmReusedPaths is always 0: every run schedules every path. It stays
	// only because the benchmark's tracer reads it; ROADMAP item 4's
	// benchmark change deletes it.
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
	// The scheduling service drops them from the results it keeps.
	Schedules []*sched.PathSchedule
	// Subgraphs are the active subgraphs of the alternative paths (same
	// order as Paths), built once during path scheduling and reused by the
	// validation and simulation stages; callers re-enacting paths against
	// the table can reuse them too. The scheduling service drops them from
	// the results it keeps (Graph.Subgraph rebuilds one from its path).
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

// Detach returns a compact copy of the result that shares no memory with
// the workspace that produced it: a copy of the table sized to its cells, of
// the path list and of the violations, with the delays and the stats, and
// the caller's graph and architecture. The copy has no Schedules and no
// Subgraphs. A result of a Workspace that must outlive the workspace's next
// run, such as one the scheduling service memoizes, is detached first.
func (r *Result) Detach() *Result {
	return &Result{
		Graph:      r.Graph,
		Arch:       r.Arch,
		Table:      r.Table.Clone(),
		Paths:      slices.Clone(r.Paths),
		DeltaM:     r.DeltaM,
		DeltaMax:   r.DeltaMax,
		Violations: slices.Clone(r.Violations),
		Stats:      r.Stats,
	}
}

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
	path    *cpg.Path
	sub     *cpg.Subgraph
	optimal *sched.PathSchedule
	// order holds the fixed-order priorities of the path's reschedules:
	// the start times of its optimal schedule, by ProcID.
	order []int64
}

// set pairs a path with its optimal schedule and the fixed-order priorities
// derived from it, reusing the record's order buffer.
func (pi *pathInfo) set(p *cpg.Path, sub *cpg.Subgraph, optimal *sched.PathSchedule) {
	n := sub.G.NumProcs()
	pi.order = slices.Grow(pi.order[:0], n)[:n]
	clear(pi.order)
	for _, e := range optimal.Entries() {
		if !e.Key.IsCond {
			pi.order[e.Key.Proc] = e.Start
		}
	}
	pi.path, pi.sub, pi.optimal = p, sub, optimal
}

type merger struct {
	ctx   context.Context
	g     *cpg.Graph
	a     *arch.Architecture
	opt   Options
	tbl   *table.Table
	paths []pathInfo
	stats Stats
	steps int
	// bus0 is the architecture's first broadcast bus (NoPE when it has
	// none), the bus a broadcast takes when every bus is free.
	bus0 arch.PEID
	// scratch is reused by every path of the path phase and every
	// reschedule of the merge.
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
	// cols is numColumns' buffer.
	cols []cond.Cube
}

// Workspace holds the scheduling state of one graph and reuses it for the
// next: the active subgraphs and optimal schedules of the alternative paths,
// the path records with their fixed-order priorities, the merge's reschedule
// buffers and lock set, the schedule table and the Result with its slices
// (see the package doc for who owns a workspace and how long its Result
// lives). Lend lends recycled ones; the zero value is ready to use too. A
// workspace only ever recycles objects it created itself: a strategy's
// schedules are read, never written.
type Workspace struct {
	// subs and scheds are the subgraphs and optimal schedules the workspace
	// built, by path index.
	subs   []*cpg.Subgraph
	scheds []*sched.PathSchedule
	// m keeps the path records, the merge buffers, the lock set, the table
	// and the list-scheduling scratch of the path phase and the merge across
	// runs.
	m merger
	// res is the Result every run refills.
	res *Result
}

// workspaces holds the workspaces Lend takes back, for the next borrower.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// Lend calls fn with a workspace from core's pool and takes the workspace
// back when fn returns: fn copies out whatever outlives it. A run that fails
// or is cancelled leaves the workspace ready for the next borrower; one whose
// fn panics is dropped.
func Lend(fn func(*Workspace)) {
	ws := workspaces.Get().(*Workspace)
	fn(ws)
	workspaces.Put(ws)
}

// Schedule generates the schedule table for the graph on the given
// architecture like ScheduleContext, reusing the workspace's state. The
// Result, its table, schedules and subgraphs are overwritten by the next call
// on the workspace. A run that fails or is cancelled leaves the workspace
// ready for the next.
func (ws *Workspace) Schedule(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options) (*Result, error) {
	return ws.schedule(ctx, g, a, opt, nil)
}

// Schedule generates the schedule table for the graph on the given
// architecture and evaluates it (δM, δmax, validation). It is
// ScheduleContext with a background context.
func Schedule(g *cpg.Graph, a *arch.Architecture, opt Options) (*Result, error) {
	return ScheduleContext(context.Background(), g, a, opt)
}

// Phases reported to a PhaseFunc, in run order.
const (
	// PhaseMerge begins when every path is scheduled and the merge starts.
	PhaseMerge = "merge"
	// PhaseValidate begins when the merge is done and the validation and
	// re-enactment start.
	PhaseValidate = "validate"
)

// PhaseFunc observes the transitions between the phases of a run: core calls
// it with the phase name and 1, and ignores what it returns. perfbench's
// tracer uses it to time the path phase, the merge and the validation of one
// run apart. The integers stay only because the tracer compiles against this
// shape; ROADMAP item 4's benchmark change drops them.
type PhaseFunc func(phase string, want int) int

// ScheduleContext is Schedule with cancellation: the context is checked
// before every path is scheduled and between the back-steps of the merge
// loop, so a long merge aborts promptly (returning ctx.Err()) when the
// caller cancels or times out.
func ScheduleContext(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options) (*Result, error) {
	return SchedulePhased(ctx, g, a, opt, nil)
}

// SchedulePhased is ScheduleContext reporting phase transitions to phases
// (which may be nil). It runs on a fresh workspace.
func SchedulePhased(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options, phases PhaseFunc) (*Result, error) {
	ws := &Workspace{m: merger{scratch: scratchPool.Get().(*listsched.Scratch)}}
	defer scratchPool.Put(ws.m.scratch)
	return ws.schedule(ctx, g, a, opt, phases)
}

// ScheduleWarmPhased is SchedulePhased: it reads neither prev nor dirty, and
// every run schedules every path. It stays only because the benchmark's
// tracer compiles against it; ROADMAP item 4's benchmark change deletes it.
func ScheduleWarmPhased(ctx context.Context, prev *Result, g *cpg.Graph, a *arch.Architecture, opt Options, dirty []cpg.ProcID, phases PhaseFunc) (*Result, error) {
	return SchedulePhased(ctx, g, a, opt, phases)
}

// schedule runs the full pipeline in the workspace.
func (ws *Workspace) schedule(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options, phases PhaseFunc) (*Result, error) {
	if g == nil || a == nil {
		return nil, errors.New("core: nil graph or architecture")
	}
	strategy, err := resolveStrategy(opt)
	if err != nil {
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
	m := ws.reset(ctx, g, a, opt, len(paths))
	//lint:allow nowallclock phase telemetry reported via Stats; never part of the table output or any hash
	tPathSched := time.Now()
	if err := ws.schedulePaths(ctx, strategy, paths); err != nil {
		return nil, err
	}
	res := ws.res
	*res = Result{
		Graph:     g,
		Arch:      a,
		Table:     m.tbl,
		Paths:     slices.Grow(res.Paths[:0], len(paths)),
		Schedules: slices.Grow(res.Schedules[:0], len(paths)),
		Subgraphs: slices.Grow(res.Subgraphs[:0], len(paths)),
	}
	for i := range m.paths {
		pi := &m.paths[i]
		res.Schedules = append(res.Schedules, pi.optimal)
		res.Subgraphs = append(res.Subgraphs, pi.sub)
		if pi.optimal.Delay > res.DeltaM {
			res.DeltaM = pi.optimal.Delay
		}
	}
	m.stats.Paths = len(paths)
	m.stats.PathSchedulingTime = time.Since(tPathSched)

	// Merge: one walk of the decision tree.
	if phases != nil {
		phases(PhaseMerge, 1)
	}
	//lint:allow nowallclock phase telemetry reported via Stats; never part of the table output or any hash
	tMerge := time.Now()
	start := m.selectPath(cond.True())
	if start == nil {
		return nil, errors.New("core: no alternative path found")
	}
	if err := m.explore(start, start.optimal, m.locks, cond.True(), 0); err != nil {
		return nil, err
	}
	m.stats.MergeTime = time.Since(tMerge)
	m.stats.Columns = m.numColumns()
	m.stats.Entries = m.tbl.NumEntries()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Evaluate the table: the row checks, then the per-path re-enactment,
	// reusing the subgraphs built during path scheduling instead of
	// re-extracting them per path.
	res.Stats = m.stats
	if phases != nil {
		phases(PhaseValidate, 1)
	}
	//lint:allow nowallclock phase telemetry reported via Stats; never part of the table output or any hash
	tValidate := time.Now()
	res.Violations = m.tbl.Validate(g)
	simRes, err := sim.WorstCaseSubgraphs(a, m.tbl, res.Subgraphs, 1)
	if err != nil {
		return nil, err
	}
	res.Stats.ValidationTime = time.Since(tValidate)
	res.DeltaMax = simRes.DeltaMax
	res.Violations = append(res.Violations, simRes.Violations...)
	for i, p := range paths {
		res.Paths = append(res.Paths, PathResult{
			Label:        p.Label,
			OptimalDelay: res.Schedules[i].Delay,
			TableDelay:   simRes.Traces[i].Delay,
		})
	}
	return res, nil
}

// reset prepares the workspace for a graph with the given number of
// alternative paths and returns its merger, emptied for the run: the table
// and the lock set are reset in place, and the path records, the merge
// buffers and the slots keep their buffers.
func (ws *Workspace) reset(ctx context.Context, g *cpg.Graph, a *arch.Architecture, opt Options, paths int) *merger {
	m := &ws.m
	*m = merger{ctx: ctx, g: g, a: a, opt: opt, tbl: m.tbl, scratch: m.scratch,
		paths: slices.Grow(m.paths[:0], paths)[:paths], bufs: m.bufs, locks: m.locks, cols: m.cols, bus0: arch.NoPE}
	if m.scratch == nil {
		m.scratch = new(listsched.Scratch)
	}
	if m.tbl == nil {
		m.tbl = table.New(g.NumProcs())
	} else {
		m.tbl.Reset(g.NumProcs())
	}
	if m.locks == nil {
		m.locks = listsched.NewLocks(g.NumProcs())
	} else {
		m.locks.Reset(g.NumProcs())
	}
	if bb := a.BroadcastBuses(); len(bb) > 0 {
		m.bus0 = bb[0]
	}
	ws.subs = slices.Grow(ws.subs[:0], paths)[:paths]
	ws.scheds = slices.Grow(ws.scheds[:0], paths)[:paths]
	// A slot past this graph's paths keeps its buffers, but not the graph.
	for _, sub := range ws.subs[paths:cap(ws.subs)] {
		if sub != nil {
			sub.G = nil
		}
	}
	if ws.res == nil {
		ws.res = new(Result)
	}
	return m
}

// scratchPool lends list-scheduling scratches to the fresh workspaces of
// Schedule and its variants, which hand theirs back when the run ends; a
// recycled workspace keeps its own. A scratch keeps the buffers of the
// largest graph it scheduled, and every run resets what it reads.
var scratchPool = sync.Pool{New: func() any { return new(listsched.Scratch) }}

// schedulePaths schedules every alternative path, in enumeration order, into
// the workspace's path records with the workspace's one scratch. Every
// path's subgraph is extracted into the workspace's subgraph slot. The
// default scheduler writes into the workspace's schedule slots; a strategy
// returns schedules of its own, which no slot ever holds. The context is
// checked before each path.
func (ws *Workspace) schedulePaths(ctx context.Context, strategy listsched.Strategy, paths []*cpg.Path) error {
	m := &ws.m
	g, a, opt := m.g, m.a, m.opt
	for i, p := range paths {
		if err := ctx.Err(); err != nil {
			return err
		}
		sub := g.SubgraphInto(ws.subs[i], p)
		ws.subs[i] = sub
		var ps *sched.PathSchedule
		var err error
		if strategy != nil {
			ps, _, err = strategy.SchedulePath(m.scratch, sub, a, opt.StrategyParams)
		} else {
			ps, _, err = m.scratch.ScheduleInto(ws.scheds[i], sub, a, listsched.Options{Priority: opt.PathPriority})
			if err == nil {
				ws.scheds[i] = ps
			}
		}
		if err != nil {
			return fmt.Errorf("core: scheduling path %s: %w", p.Label.Format(g.CondName), err)
		}
		m.paths[i].set(p, sub, ps)
	}
	return nil
}

// numColumns returns the number of distinct column expressions of the table,
// len(m.tbl.Columns()), collected in a sorted buffer the merger keeps.
func (m *merger) numColumns() int {
	cols := m.cols[:0]
	for _, k := range m.tbl.KeysView() {
		for _, e := range m.tbl.RowView(k) {
			if i, found := slices.BinarySearchFunc(cols, e.Expr, compareMasks); !found {
				cols = slices.Insert(cols, i, e.Expr)
			}
		}
	}
	m.cols = cols
	return len(cols)
}

// compareMasks orders cubes by their condition mask, then their positive
// mask: a total order (the two masks determine a cube) cheaper than
// Cube.Compare.
func compareMasks(a, b cond.Cube) int {
	if c := cmp.Compare(a.Mask(), b.Mask()); c != 0 {
		return c
	}
	return cmp.Compare(a.PosMask(), b.PosMask())
}

// selectPath picks, among the paths reachable from the decision-tree node
// described by decided, the one the merging follows next.
func (m *merger) selectPath(decided cond.Cube) *pathInfo {
	var best *pathInfo
	for i := range m.paths {
		pi := &m.paths[i]
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
	locks.Reset(m.g.NumProcs())
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
			return ErrNotConverged
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
