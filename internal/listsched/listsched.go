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
// (near-)allocation-free in the inner loop, and ScheduleInto recycles a
// schedule its caller no longer reads. Every schedule comes back sorted
// (sched.PathSchedule.Sort, with the sort keys in the scratch), so it is
// only read from then on. The inputs of a run are dense too: Options.Order
// is a ProcID-indexed slice and Options.Locked a Locks set over the activity
// index of package sched, ranged in key order.
package listsched

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"

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
)

// String returns the name of the priority function.
func (p Priority) String() string {
	switch p {
	case PriorityCriticalPath:
		return "critical-path"
	case PriorityFixedOrder:
		return "fixed-order"
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
	// follows every process that has one, in ProcID order; so a nil Order
	// schedules the ready processes in ProcID order. Order is ignored by the
	// other priority functions.
	Order []int64
	// Locked fixes activation times of activities (nil locks nothing);
	// locked activities are placed exactly at their lock time and other
	// activities are scheduled around them.
	Locked *Locks
}

// unordered is the fixed-order priority value of a process without an
// Options.Order value. It is above every start time a reference order holds.
const unordered = math.MaxInt64

// Locks is a set of locked activation times over the dense activity index
// of package sched (see sched.Key.Slot) of one graph. A bitset marks the
// locked slots, so All visits only them and Reset clears one bit per slot.
type Locks struct {
	numProcs int
	locks    []Lock   // by slot; meaningful where the slot's bit is set
	set      []uint64 // bit s%64 of word s/64 marks slot s as locked
}

// NewLocks returns an empty lock set for a graph with numProcs processes.
func NewLocks(numProcs int) *Locks {
	l := new(Locks)
	l.Reset(numProcs)
	return l
}

// Reset empties the set for a graph with numProcs processes, keeping its
// buffers where they are large enough. The zero Locks is ready for Reset.
func (l *Locks) Reset(numProcs int) {
	n := sched.NumSlots(numProcs)
	l.numProcs = numProcs
	l.locks = slices.Grow(l.locks[:0], n)[:n]
	l.set = slices.Grow(l.set[:0], (n+63)/64)[:(n+63)/64]
	clear(l.set)
}

// Set locks the activity k, replacing any earlier lock of k.
func (l *Locks) Set(k sched.Key, lock Lock) {
	s := k.Slot(l.numProcs)
	l.locks[s] = lock
	l.set[s/64] |= 1 << (s % 64)
}

// Get returns the lock of activity k. A nil set locks nothing.
func (l *Locks) Get(k sched.Key) (Lock, bool) {
	if l == nil {
		return Lock{}, false
	}
	if s := k.Slot(l.numProcs); s >= 0 && l.set[s/64]&(1<<(s%64)) != 0 {
		return l.locks[s], true
	}
	return Lock{}, false
}

// All ranges over the locks in key order (sched.Key.Less).
func (l *Locks) All() iter.Seq2[sched.Key, Lock] {
	return func(yield func(sched.Key, Lock) bool) {
		if l == nil {
			return
		}
		for w, word := range l.set {
			for ; word != 0; word &= word - 1 {
				s := w*64 + bits.TrailingZeros64(word)
				if !yield(sched.SlotKey(s, l.numProcs), l.locks[s]) {
					return
				}
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

// Scratch holds the dense per-process state, the ready heap and the sort keys
// of one scheduling run. The buffers are reused across runs, so a caller
// scheduling many paths allocates only the resulting PathSchedule per run,
// and one rescheduling a path many times (like the merging algorithm) can
// recycle that too with ScheduleInto. A Scratch is not safe for concurrent
// use; give each worker goroutine its own.
//
// The zero value is ready to use.
type Scratch struct {
	cp        []int64     // critical-path length to the sink, by ProcID
	prio      []int64     // priority value (smaller schedules first), by ProcID
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

	buses []arch.PEID // the architecture's broadcast buses
	// keys holds the packed sort keys of the schedule being sealed.
	keys []uint64
}

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
		sc.prio = make([]int64, n)
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

// Schedule builds a schedule for the active subgraph sub on architecture a,
// reusing the scratch buffers. The schedule comes back sorted (see
// sched.PathSchedule.Sort), so it is only read from here on.
func (sc *Scratch) Schedule(sub *cpg.Subgraph, a *arch.Architecture, opt Options) (*sched.PathSchedule, *Diagnostics, error) {
	return sc.ScheduleInto(nil, sub, a, opt)
}

// ScheduleInto is Schedule writing the schedule into dst, which it resets
// first, and returning it; a nil dst gets a new schedule. A caller that no
// longer reads its previous schedule recycles it this way.
func (sc *Scratch) ScheduleInto(dst *sched.PathSchedule, sub *cpg.Subgraph, a *arch.Architecture, opt Options) (*sched.PathSchedule, *Diagnostics, error) {
	if sub == nil || a == nil {
		return nil, nil, errors.New("listsched: nil subgraph or architecture")
	}
	g := sub.G
	diag := &Diagnostics{}
	active := sub.ActiveProcs()
	decided := sub.DecidedConds()
	ps := dst
	if ps == nil {
		ps = sched.NewPathSchedule(sub.Label, g.NumProcs(), len(active)+len(decided), len(decided))
	} else {
		ps.Reset(sub.Label, g.NumProcs(), len(active)+len(decided), len(decided))
	}
	if len(active) == 0 {
		sc.keys = ps.Sort(sc.keys)
		return ps, diag, nil
	}
	sc.reset(g.NumProcs(), a.NumPEs())

	exec := func(p cpg.ProcID) int64 {
		return a.EffectiveExec(g.Process(p).Exec, g.Process(p).PE)
	}

	// Deciders of the conditions decided on this path, whose broadcasts are
	// scheduled as soon as they terminate.
	for _, c := range decided {
		def := g.Condition(c)
		if len(sc.deciders[def.Decider]) == 0 {
			sc.decTouched = append(sc.decTouched, def.Decider)
		}
		sc.deciders[def.Decider] = append(sc.deciders[def.Decider], def)
	}

	// Priority values (smaller is picked first, matching the reference
	// implementation's ascending sort of the ready list). The fixed order
	// never reads the critical paths.
	if opt.Priority != PriorityFixedOrder {
		sc.cp = sub.CriticalPathLengthsInto(sc.cp, exec)
	}
	for _, p := range active {
		switch opt.Priority {
		case PriorityFixedOrder:
			if int(p) < len(opt.Order) {
				sc.prio[p] = opt.Order[p]
			} else {
				// Activities absent from the reference order share one
				// value after every ordered one, so the heap's ProcID
				// tie-break orders them.
				sc.prio[p] = unordered
			}
		default:
			// Larger critical path means higher priority; negate so that
			// smaller values are picked first uniformly.
			sc.prio[p] = -sc.cp[p]
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

	sc.buses = a.AppendBroadcastBuses(sc.buses[:0])
	broadcastBuses := sc.buses
	needBroadcast := a.Broadcasts()

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
	sc.keys = ps.Sort(sc.keys)
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
