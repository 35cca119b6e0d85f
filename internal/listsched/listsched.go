// Package listsched implements the non-preemptive list scheduler used to
// schedule one alternative path of a conditional process graph on the target
// architecture (the algorithm referred to as [5] in the paper).
//
// The scheduler handles:
//
//   - fixed process-to-processing-element mapping (the mapping function M);
//   - sequential resources (programmable processors, buses, memory modules)
//     and parallel hardware processors;
//   - communication processes occupying buses;
//   - condition broadcasts: after a disjunction process terminates, the value
//     of the condition is broadcast during τ0 time units on the first
//     all-connecting bus that becomes available;
//   - the knowledge constraint of requirement 4: a process whose guard
//     depends on a condition cannot start on a processing element before the
//     condition value is known there;
//   - locked activation times, used by the merging algorithm to adjust the
//     schedule of a path to activation times already fixed in the schedule
//     table (rule 3 of section 5.1), and
//   - two priority functions: longest remaining (critical) path, used for the
//     optimal schedule of each path, and fixed order, used to keep the
//     relative priorities of unlocked processes during adjustment.
//
// The scheduler runs in O(n log n): the ready set is an indexed priority heap
// keyed on (priority, process identifier) that is updated incrementally as
// indegrees drop, and all per-process state lives in dense slices indexed by
// ProcID. A Scratch value makes the buffers reusable across runs, so callers
// that schedule many paths (the table generator, the sweep) stay
// (near-)allocation-free in the inner loop. The inputs of a run are dense
// too: Options.Order is a ProcID-indexed slice and Options.Locked a Locks
// set over the activity index of package sched, ranged in key order.
package listsched

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// Priority selects the priority function of the list scheduler.
type Priority int

const (
	// PriorityCriticalPath picks, among the ready processes, the one with
	// the longest remaining execution-time chain to the sink.
	PriorityCriticalPath Priority = iota
	// PriorityFixedOrder picks ready processes in ascending order of a
	// caller-supplied value (typically the start times of a previously
	// computed schedule), which keeps relative priorities during schedule
	// adjustment.
	PriorityFixedOrder
	// PriorityUrgency is the partial-critical-path priority: the remaining
	// chain of every process is extended with the condition broadcast time
	// τ0 for each condition decided along it, so chains that gate other
	// processing elements through condition knowledge (requirement 4) are
	// scheduled more urgently. Communication latency is already part of the
	// chain because communication processes are explicit graph nodes.
	PriorityUrgency
)

// String returns the name of the priority function.
func (p Priority) String() string {
	switch p {
	case PriorityCriticalPath:
		return "critical-path"
	case PriorityFixedOrder:
		return "fixed-order"
	case PriorityUrgency:
		return "urgency"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Lock fixes the activation time of an activity. For condition broadcasts the
// bus carrying the broadcast is fixed too.
type Lock struct {
	Start int64
	Bus   arch.PEID
}

// Options configures one scheduling run.
type Options struct {
	Priority Priority
	// Order supplies the fixed-order priority values (smaller first),
	// indexed by ProcID. A process at or beyond len(Order) has no value and
	// follows every process that has one, by critical path. Order is
	// ignored by the other priority functions.
	Order []int64
	// Locked fixes activation times of activities (nil locks nothing);
	// locked activities are placed exactly at their lock time and other
	// activities are scheduled around them.
	Locked *Locks
}

// Locks is a set of locked activation times over the dense activity index
// of package sched (see sched.Key.Slot) of one graph.
type Locks struct {
	numProcs int
	slots    []lockSlot
}

type lockSlot struct {
	lock Lock
	set  bool
}

// NewLocks returns an empty lock set for a graph with numProcs processes.
func NewLocks(numProcs int) *Locks {
	return &Locks{numProcs: numProcs, slots: make([]lockSlot, sched.NumSlots(numProcs))}
}

// Set locks the activity k, replacing any earlier lock of k.
func (l *Locks) Set(k sched.Key, lock Lock) {
	l.slots[k.Slot(l.numProcs)] = lockSlot{lock: lock, set: true}
}

// Get returns the lock of activity k. A nil set locks nothing.
func (l *Locks) Get(k sched.Key) (Lock, bool) {
	if l == nil {
		return Lock{}, false
	}
	if s := k.Slot(l.numProcs); s >= 0 {
		return l.slots[s].lock, l.slots[s].set
	}
	return Lock{}, false
}

// All ranges over the locks in key order (sched.Key.Less).
func (l *Locks) All() iter.Seq2[sched.Key, Lock] {
	return func(yield func(sched.Key, Lock) bool) {
		if l == nil {
			return
		}
		for s, ls := range l.slots {
			if ls.set && !yield(sched.SlotKey(s, l.numProcs), ls.lock) {
				return
			}
		}
	}
}

// LockViolation records a locked activation time that is not feasible with
// respect to data dependencies (it should not happen for tables produced by
// the merging algorithm; see Theorem 1 of the paper).
type LockViolation struct {
	Key      sched.Key
	Locked   int64
	Earliest int64
}

// Diagnostics reports anomalies of a scheduling run.
type Diagnostics struct {
	LockViolations   []LockViolation
	ResourceOverlaps []arch.PEID
}

// OK reports whether the run produced no diagnostics.
func (d *Diagnostics) OK() bool {
	return len(d.LockViolations) == 0 && len(d.ResourceOverlaps) == 0
}

// Scratch holds the dense per-process state and the ready heap of one
// scheduling run. The buffers are reused across runs, so a caller scheduling
// many paths (or rescheduling one path many times, like the merging
// algorithm) allocates only the resulting PathSchedule per run. A Scratch is
// not safe for concurrent use; give each worker goroutine its own.
//
// The zero value is ready to use.
type Scratch struct {
	cp        []int64     // critical-path length to the sink, by ProcID
	prio      []float64   // priority value (smaller schedules first), by ProcID
	remaining []int32     // unscheduled active predecessors, by ProcID
	scheduled []bool      // already placed, by ProcID
	endOf     []int64     // end time of placed processes, by ProcID
	guardCube []cond.Cube // guard cube satisfied by the path, by ProcID
	heap      []cpg.ProcID
	timelines []sched.Timeline // per sequential resource, by PEID

	// deciders[p] lists the conditions decided by process p on this path;
	// decTouched tracks which slots are dirty so reset stays O(active).
	deciders   [][]*cpg.CondDef
	decTouched []cpg.ProcID
}

// NewScratch returns an empty scratch. Buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// reset prepares the scratch for a graph with n processes on an architecture
// with pes processing elements, clearing only what the previous run dirtied.
func (sc *Scratch) reset(n, pes int) {
	// Clear the dirty decider slots before any resizing: decTouched holds
	// process identifiers of the previous graph, which may exceed n.
	for _, p := range sc.decTouched {
		sc.deciders[p] = sc.deciders[p][:0]
	}
	sc.decTouched = sc.decTouched[:0]
	if cap(sc.cp) < n {
		sc.cp = make([]int64, n)
		sc.prio = make([]float64, n)
		sc.remaining = make([]int32, n)
		sc.scheduled = make([]bool, n)
		sc.endOf = make([]int64, n)
		sc.guardCube = make([]cond.Cube, n)
		sc.deciders = make([][]*cpg.CondDef, n)
	}
	sc.cp = sc.cp[:n]
	sc.prio = sc.prio[:n]
	sc.remaining = sc.remaining[:n]
	sc.scheduled = sc.scheduled[:n]
	sc.endOf = sc.endOf[:n]
	sc.guardCube = sc.guardCube[:n]
	sc.deciders = sc.deciders[:n]
	for i := range sc.scheduled {
		sc.scheduled[i] = false
		sc.remaining[i] = 0
		sc.endOf[i] = 0
	}
	sc.heap = sc.heap[:0]
	if cap(sc.timelines) < pes {
		sc.timelines = make([]sched.Timeline, pes)
	}
	sc.timelines = sc.timelines[:pes]
	for i := range sc.timelines {
		sc.timelines[i].Reset()
	}
}

// less orders the ready heap: smaller priority value first, ties by process
// identifier. This reproduces exactly the pick of the reference
// implementation, which sorted the ready list by (priority, ProcID).
func (sc *Scratch) less(a, b cpg.ProcID) bool {
	if sc.prio[a] != sc.prio[b] {
		return sc.prio[a] < sc.prio[b]
	}
	return a < b
}

// push adds a ready process to the heap.
func (sc *Scratch) push(p cpg.ProcID) {
	sc.heap = append(sc.heap, p)
	i := len(sc.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sc.less(sc.heap[i], sc.heap[parent]) {
			break
		}
		sc.heap[i], sc.heap[parent] = sc.heap[parent], sc.heap[i]
		i = parent
	}
}

// pop removes and returns the highest-priority ready process.
func (sc *Scratch) pop() cpg.ProcID {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sc.heap = h[:last]
	h = sc.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && sc.less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && sc.less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// Schedule builds a schedule for the active subgraph sub on architecture a.
// It is shorthand for NewScratch().Schedule; callers scheduling many paths
// should keep a Scratch per goroutine and reuse it.
func Schedule(sub *cpg.Subgraph, a *arch.Architecture, opt Options) (*sched.PathSchedule, *Diagnostics, error) {
	var sc Scratch
	return sc.Schedule(sub, a, opt)
}

// Schedule builds a schedule for the active subgraph sub on architecture a,
// reusing the scratch buffers.
func (sc *Scratch) Schedule(sub *cpg.Subgraph, a *arch.Architecture, opt Options) (*sched.PathSchedule, *Diagnostics, error) {
	if sub == nil || a == nil {
		return nil, nil, errors.New("listsched: nil subgraph or architecture")
	}
	g := sub.G
	diag := &Diagnostics{}
	active := sub.ActiveProcs()
	decided := sub.DecidedConds()
	ps := sched.NewPathSchedule(sub.Label, g.NumProcs(), len(active)+len(decided), len(decided))
	if len(active) == 0 {
		return ps, diag, nil
	}
	sc.reset(g.NumProcs(), a.NumPEs())

	exec := func(p cpg.ProcID) int64 {
		return a.EffectiveExec(g.Process(p).Exec, g.Process(p).PE)
	}

	// Deciders of the conditions decided on this path (needed both by the
	// urgency priority below and by the broadcast scheduling later).
	for _, c := range decided {
		def := g.Condition(c)
		if len(sc.deciders[def.Decider]) == 0 {
			sc.decTouched = append(sc.decTouched, def.Decider)
		}
		sc.deciders[def.Decider] = append(sc.deciders[def.Decider], def)
	}

	// Priority values (smaller is picked first, matching the reference
	// implementation's ascending sort of the ready list).
	execPrio := exec
	if opt.Priority == PriorityUrgency {
		// The chain below a disjunction process is gated by the broadcast of
		// the condition it decides: weight it with τ0 per decided condition.
		execPrio = func(p cpg.ProcID) int64 {
			return exec(p) + a.CondTime*int64(len(sc.deciders[p]))
		}
	}
	sc.cp = sub.CriticalPathLengthsInto(sc.cp, execPrio)
	for _, p := range active {
		switch opt.Priority {
		case PriorityFixedOrder:
			if int(p) < len(opt.Order) {
				sc.prio[p] = float64(opt.Order[p])
			} else {
				// Fall back to critical path (negated so longer paths come
				// first) for activities absent from the reference order.
				sc.prio[p] = math.MaxFloat64/2 - float64(sc.cp[p])
			}
		default:
			// Larger critical path means higher priority; invert so that
			// smaller values are picked first uniformly.
			sc.prio[p] = -float64(sc.cp[p])
		}
	}

	// Per-sequential-resource timelines; locked activities reserve upfront.
	timeline := func(pe arch.PEID) *sched.Timeline { return &sc.timelines[pe] }
	for key, lock := range opt.Locked.All() {
		if key.IsCond {
			if a.Valid(lock.Bus) && a.IsSequential(lock.Bus) {
				timeline(lock.Bus).Reserve(lock.Start, a.CondTime)
			}
			continue
		}
		if !sub.Active(key.Proc) {
			continue
		}
		p := g.Process(key.Proc)
		if p == nil {
			continue
		}
		if a.IsSequential(p.PE) {
			timeline(p.PE).Reserve(lock.Start, exec(p.ID))
		}
	}

	broadcastBuses := a.BroadcastBuses()
	needBroadcast := len(a.ComputePEs()) > 1 && len(broadcastBuses) > 0

	// guardCube[p] is the cube of the process guard satisfied by this path;
	// the process may not start on its processing element before every
	// condition of the cube is known there.
	for _, p := range active {
		if c, ok := g.Guard(p).SatisfiedCube(sub.Label); ok {
			sc.guardCube[p] = c
		} else {
			sc.guardCube[p] = cond.True()
		}
	}

	// scheduleBroadcast places the broadcast of condition def after the
	// decider terminated at decEnd.
	scheduleBroadcast := func(def *cpg.CondDef, decEnd int64, deciderPE arch.PEID) {
		value, _ := sub.Label.Value(def.ID)
		key := sched.CondKey(def.ID)
		if lock, ok := opt.Locked.Get(key); ok {
			bus := lock.Bus
			end := lock.Start + a.CondTime
			if !a.Valid(bus) {
				end = lock.Start
			}
			ps.Set(sched.Entry{Key: key, Start: lock.Start, End: end, PE: bus})
			ps.SetCond(sched.CondTiming{
				Cond: def.ID, Value: value,
				DecidedAt: decEnd, DeciderPE: deciderPE,
				BroadcastStart: lock.Start, BroadcastEnd: end, Bus: bus,
			})
			if lock.Start < decEnd {
				diag.LockViolations = append(diag.LockViolations, LockViolation{Key: key, Locked: lock.Start, Earliest: decEnd})
			}
			return
		}
		if !needBroadcast {
			ps.SetCond(sched.CondTiming{
				Cond: def.ID, Value: value,
				DecidedAt: decEnd, DeciderPE: deciderPE,
				BroadcastStart: decEnd, BroadcastEnd: decEnd, Bus: arch.NoPE,
			})
			return
		}
		bestBus := broadcastBuses[0]
		bestStart := int64(math.MaxInt64)
		for _, b := range broadcastBuses {
			s := timeline(b).EarliestFit(decEnd, a.CondTime)
			if s < bestStart {
				bestStart = s
				bestBus = b
			}
		}
		timeline(bestBus).Reserve(bestStart, a.CondTime)
		end := bestStart + a.CondTime
		ps.Set(sched.Entry{Key: key, Start: bestStart, End: end, PE: bestBus})
		ps.SetCond(sched.CondTiming{
			Cond: def.ID, Value: value,
			DecidedAt: decEnd, DeciderPE: deciderPE,
			BroadcastStart: bestStart, BroadcastEnd: end, Bus: bestBus,
		})
	}

	// List scheduling: repeatedly pick the highest-priority process among
	// those whose active predecessors are all scheduled. The ready set is a
	// min-heap on (priority, ProcID), updated as indegrees drop.
	for _, p := range active {
		sc.remaining[p] = int32(len(sub.Preds(p)))
		if sc.remaining[p] == 0 {
			sc.push(p)
		}
	}

	for count := 0; count < len(active); count++ {
		if len(sc.heap) == 0 {
			return nil, diag, fmt.Errorf("listsched: no ready process after scheduling %d of %d (cyclic or inconsistent subgraph)", count, len(active))
		}
		p := sc.pop()
		proc := g.Process(p)
		dur := exec(p)

		// Earliest start from data dependencies.
		est := int64(0)
		for _, q := range sub.Preds(p) {
			if sc.endOf[q] > est {
				est = sc.endOf[q]
			}
		}
		// Knowledge constraint (requirement 4): the guard's conditions must
		// be known on the processing element executing the process.
		if proc.PE != arch.NoPE {
			for m := sc.guardCube[p].Mask(); m != 0; m &= m - 1 {
				x := cond.Cond(bits.TrailingZeros64(m))
				if at, ok := ps.KnownTime(x, proc.PE); ok && at > est {
					est = at
				}
			}
		}

		var start int64
		if lock, locked := opt.Locked.Get(sched.ProcKey(p)); locked {
			start = lock.Start
			if est > start {
				diag.LockViolations = append(diag.LockViolations, LockViolation{Key: sched.ProcKey(p), Locked: start, Earliest: est})
				start = est
			}
		} else if a.IsSequential(proc.PE) {
			start = timeline(proc.PE).ReserveEarliest(est, dur)
		} else {
			start = est
		}
		end := start + dur
		ps.Set(sched.Entry{Key: sched.ProcKey(p), Start: start, End: end, PE: proc.PE})
		sc.scheduled[p] = true
		sc.endOf[p] = end

		// Broadcast the conditions this process decides.
		for _, def := range sc.deciders[p] {
			scheduleBroadcast(def, end, proc.PE)
		}

		for _, q := range sub.Succs(p) {
			sc.remaining[q]--
			if sc.remaining[q] == 0 && !sc.scheduled[q] {
				sc.push(q)
			}
		}
	}

	// Delay is the activation time of the sink.
	if e, ok := ps.Entry(sched.ProcKey(g.Sink())); ok {
		ps.Delay = e.Start
	} else {
		var max int64
		for _, e := range ps.Entries() {
			if e.End > max {
				max = e.End
			}
		}
		ps.Delay = max
	}

	for pe := range sc.timelines {
		if sc.timelines[pe].Overlaps() {
			diag.ResourceOverlaps = append(diag.ResourceOverlaps, arch.PEID(pe))
		}
	}
	return ps, diag, nil
}

// ScheduleAllPaths schedules every alternative path of the graph with the
// critical-path priority and returns the schedules in path order together
// with δM, the largest of the individual path delays. A single scratch is
// reused across the paths.
func ScheduleAllPaths(g *cpg.Graph, a *arch.Architecture, paths []*cpg.Path, opt Options) ([]*sched.PathSchedule, int64, error) {
	var deltaM int64
	var sc Scratch
	out := make([]*sched.PathSchedule, 0, len(paths))
	for _, p := range paths {
		sub := g.Subgraph(p)
		ps, _, err := sc.Schedule(sub, a, opt)
		if err != nil {
			return nil, 0, fmt.Errorf("listsched: path %s: %w", p.Label, err)
		}
		if ps.Delay > deltaM {
			deltaM = ps.Delay
		}
		out = append(out, ps)
	}
	return out, deltaM, nil
}
