// Package sched defines the data structures shared by the list scheduler,
// the schedule table and the merging algorithm: schedule keys (ordinary or
// communication processes, and condition broadcasts), per-path schedules with
// condition-availability information, and resource timelines.
//
// Keys have one dense activity index (Key.Slot): a process sits at its
// ProcID, and the broadcast of condition c at the graph's process count plus
// c, so a graph's index has NumSlots(numProcs) slots, cond.MaxConds of them
// for broadcasts. Per-path schedules, the list scheduler's lock sets, the
// schedule table and the simulator keep their per-key state in slices over
// this index instead of maps.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
)

// Key identifies a schedulable activity: either a process of the graph
// (ordinary, communication, source or sink) or the broadcast of a condition
// value after its disjunction process terminated.
type Key struct {
	// IsCond is true for condition broadcasts.
	IsCond bool
	// Proc is the process identifier (valid when !IsCond).
	Proc cpg.ProcID
	// Cond is the broadcast condition (valid when IsCond).
	Cond cond.Cond
}

// ProcKey returns the key of a process.
func ProcKey(p cpg.ProcID) Key { return Key{Proc: p, Cond: cond.None} }

// CondKey returns the key of a condition broadcast.
func CondKey(c cond.Cond) Key { return Key{IsCond: true, Proc: cpg.NoProc, Cond: c} }

// String renders the key ("P12" or "bcast(c0)").
func (k Key) String() string {
	if k.IsCond {
		return fmt.Sprintf("bcast(c%d)", int(k.Cond))
	}
	return fmt.Sprintf("proc(%d)", int(k.Proc))
}

// Less orders keys: processes by identifier first, then condition broadcasts
// by condition identifier.
func (k Key) Less(o Key) bool {
	if k.IsCond != o.IsCond {
		return !k.IsCond
	}
	if k.IsCond {
		return k.Cond < o.Cond
	}
	return k.Proc < o.Proc
}

// NumSlots returns the size of the dense activity index of a graph with
// numProcs processes: one slot per process, then one per condition.
func NumSlots(numProcs int) int { return numProcs + cond.MaxConds }

// Slot returns the position of the key in the dense activity index of a
// graph with numProcs processes: the ProcID of a process, numProcs plus the
// condition of a broadcast, or -1 for a key outside the index. Slots order
// keys as Less does.
func (k Key) Slot(numProcs int) int {
	if k.IsCond {
		if k.Cond < 0 || k.Cond >= cond.MaxConds {
			return -1
		}
		return numProcs + int(k.Cond)
	}
	if k.Proc < 0 || int(k.Proc) >= numProcs {
		return -1
	}
	return int(k.Proc)
}

// SlotKey returns the key at a position of the dense activity index of a
// graph with numProcs processes; it inverts Slot.
func SlotKey(slot, numProcs int) Key {
	if slot >= numProcs {
		return CondKey(cond.Cond(slot - numProcs))
	}
	return ProcKey(cpg.ProcID(slot))
}

// Entry is one scheduled activity: the key, its start and end time, and the
// processing element it occupies.
type Entry struct {
	Key   Key
	Start int64
	End   int64
	PE    arch.PEID
}

// Duration returns the execution time of the entry.
func (e Entry) Duration() int64 { return e.End - e.Start }

// CondTiming records when a condition value becomes available during one
// path schedule: the moment the disjunction process terminates (on the
// processing element that executed it) and the broadcast interval on the bus.
type CondTiming struct {
	Cond cond.Cond
	// Value of the condition on this path.
	Value bool
	// DecidedAt is the termination time of the disjunction process.
	DecidedAt int64
	// DeciderPE is the processing element that computed the condition.
	DeciderPE arch.PEID
	// BroadcastStart/BroadcastEnd delimit the broadcast on the bus; the
	// value is known on every other processing element from BroadcastEnd.
	BroadcastStart int64
	BroadcastEnd   int64
	// Bus is the bus carrying the broadcast (NoPE when the architecture
	// has a single computation element and no broadcast is needed).
	Bus arch.PEID
}

// PathSchedule is the (optimal or adjusted) schedule of one alternative path:
// start and end times for every active process plus the condition broadcasts.
//
// A schedule is built with Set and SetCond and then only read. Entries and
// Conds sort the records in place the first time they are called after a
// change, so a schedule shared between goroutines must have both views taken
// before it is shared; listsched's callers in package core do that.
type PathSchedule struct {
	// Label is the path label Lk.
	Label cond.Cube
	// Delay is the activation time of the sink process (δk).
	Delay int64

	numProcs int
	// at maps the dense activity index (Key.Slot) to 1 + the position of the
	// key's entry in entries, 0 when there is none; condAt does the same for
	// the condition records in conds.
	at      []int32
	condAt  [cond.MaxConds]uint8
	entries []Entry
	conds   []CondTiming
	// entriesSorted and condsSorted are set while entries and conds are in
	// the order Entries and Conds return.
	entriesSorted bool
	condsSorted   bool
}

// NewPathSchedule returns an empty schedule of a path through a graph with
// numProcs processes, with room for n entries and c condition records.
func NewPathSchedule(label cond.Cube, numProcs, n, c int) *PathSchedule {
	ps := &PathSchedule{
		Label:    label,
		numProcs: numProcs,
		at:       make([]int32, NumSlots(numProcs)),
		entries:  make([]Entry, 0, n),
	}
	if c > 0 {
		ps.conds = make([]CondTiming, 0, c)
	}
	return ps
}

// Set records (or replaces) the entry for a key.
func (ps *PathSchedule) Set(e Entry) {
	s := e.Key.Slot(ps.numProcs)
	if i := ps.at[s]; i != 0 {
		ps.entries[i-1] = e
	} else {
		ps.entries = append(ps.entries, e)
		ps.at[s] = int32(len(ps.entries))
	}
	ps.entriesSorted = false
}

// SetCond records the availability of a condition value.
func (ps *PathSchedule) SetCond(t CondTiming) {
	if i := ps.condAt[t.Cond]; i != 0 {
		ps.conds[i-1] = t
	} else {
		ps.conds = append(ps.conds, t)
		ps.condAt[t.Cond] = uint8(len(ps.conds))
	}
	ps.condsSorted = false
}

// Entry returns the entry for the key.
func (ps *PathSchedule) Entry(k Key) (Entry, bool) {
	if s := k.Slot(ps.numProcs); s >= 0 {
		if i := ps.at[s]; i != 0 {
			return ps.entries[i-1], true
		}
	}
	return Entry{}, false
}

// Cond returns the availability record of a condition.
func (ps *PathSchedule) Cond(c cond.Cond) (CondTiming, bool) {
	if c >= 0 && c < cond.MaxConds {
		if i := ps.condAt[c]; i != 0 {
			return ps.conds[i-1], true
		}
	}
	return CondTiming{}, false
}

// Conds returns the availability records sorted by decision time (ties by
// condition identifier). This is the order in which the decision tree of the
// merging algorithm branches along this schedule. The returned slice is
// shared; callers must not modify it.
func (ps *PathSchedule) Conds() []CondTiming {
	if !ps.condsSorted {
		slices.SortFunc(ps.conds, func(a, b CondTiming) int {
			if a.DecidedAt != b.DecidedAt {
				return cmp.Compare(a.DecidedAt, b.DecidedAt)
			}
			return cmp.Compare(a.Cond, b.Cond)
		})
		for i, t := range ps.conds {
			ps.condAt[t.Cond] = uint8(i + 1)
		}
		ps.condsSorted = true
	}
	return ps.conds
}

// Entries returns all entries sorted by start time (ties by key). The
// returned slice is shared; callers must not modify it.
func (ps *PathSchedule) Entries() []Entry {
	if !ps.entriesSorted {
		slices.SortFunc(ps.entries, func(a, b Entry) int {
			if a.Start != b.Start {
				return cmp.Compare(a.Start, b.Start)
			}
			return cmp.Compare(a.Key.Slot(ps.numProcs), b.Key.Slot(ps.numProcs))
		})
		for i, e := range ps.entries {
			ps.at[e.Key.Slot(ps.numProcs)] = int32(i + 1)
		}
		ps.entriesSorted = true
	}
	return ps.entries
}

// Len returns the number of entries.
func (ps *PathSchedule) Len() int { return len(ps.entries) }

// KnownAt returns the conjunction of condition values known on processing
// element pe at time t according to this schedule: a condition is known on
// the processing element that computed it from the moment the disjunction
// process terminates, and on every other element (including buses) from the
// end of its broadcast.
func (ps *PathSchedule) KnownAt(pe arch.PEID, t int64) cond.Cube {
	// The cube is a canonical bitset, so the order of the records cannot
	// reach the output, and each condition appears at most once, so MustWith
	// cannot contradict.
	c := cond.True()
	for _, ct := range ps.conds {
		avail := ct.BroadcastEnd
		if ct.DeciderPE == pe && ct.DeciderPE != arch.NoPE {
			avail = ct.DecidedAt
		}
		if ct.Bus == arch.NoPE {
			// No broadcast needed (single computation element): the value
			// is known everywhere from the decision moment.
			avail = ct.DecidedAt
		}
		if t >= avail {
			c = c.MustWith(ct.Cond, ct.Value)
		}
	}
	return c
}

// KnownTime returns the moment condition c becomes known on processing
// element pe, or false when the condition is not decided on this path.
func (ps *PathSchedule) KnownTime(c cond.Cond, pe arch.PEID) (int64, bool) {
	ct, ok := ps.Cond(c)
	if !ok {
		return 0, false
	}
	if ct.DeciderPE == pe && ct.DeciderPE != arch.NoPE {
		return ct.DecidedAt, true
	}
	if ct.Bus == arch.NoPE {
		return ct.DecidedAt, true
	}
	return ct.BroadcastEnd, true
}

// Clone returns a deep copy of the schedule.
func (ps *PathSchedule) Clone() *PathSchedule {
	n := *ps
	n.at = slices.Clone(ps.at)
	n.entries = slices.Clone(ps.entries)
	n.conds = slices.Clone(ps.conds)
	return &n
}

// Gantt renders the schedule as a per-processing-element time chart, mainly
// for examples and debugging (the analogue of Fig. 4 of the paper).
func (ps *PathSchedule) Gantt(a *arch.Architecture, name func(Key) string) string {
	byPE := map[arch.PEID][]Entry{}
	for _, e := range ps.Entries() {
		if e.PE == arch.NoPE {
			continue
		}
		byPE[e.PE] = append(byPE[e.PE], e)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "path %s  (delay %d)\n", ps.Label, ps.Delay)
	for _, pe := range a.PEs() {
		entries := byPE[pe.ID]
		sort.Slice(entries, func(i, j int) bool { return entries[i].Start < entries[j].Start })
		fmt.Fprintf(&b, "  %-10s:", pe.Name)
		for _, e := range entries {
			label := e.Key.String()
			if name != nil {
				label = name(e.Key)
			}
			fmt.Fprintf(&b, " %s[%d,%d)", label, e.Start, e.End)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
