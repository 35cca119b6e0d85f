package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/listsched"
	"repro/internal/sched"
)

// reuseCounts tallies the lock sets the reuse rule saw.
type reuseCounts struct{ Accepted, Rejected int }

// checkReuseRule draws random lock sets for every path of res and checks the
// reuse rule of merger.agrees on each:
//
//   - a lock set the rule accepts makes the fixed-order reschedule reproduce
//     the path's optimal schedule S exactly (entries, condition records and
//     delay), without a lock violation;
//   - moving any one lock on an activity of the path by ±1, or a broadcast
//     lock to another broadcast bus, makes the rule reject;
//   - a broadcast lock of a condition S does not decide makes it reject.
//
// A lock set is a random subset of S's activities locked where S has them,
// plus locks of processes off the path at random times, which the scheduler
// ignores.
func checkReuseRule(t *testing.T, r *rand.Rand, res *Result, draws int, counts *reuseCounts) {
	t.Helper()
	a, g := res.Arch, res.Graph
	buses := a.BroadcastBuses()
	m := &merger{a: a, bus0: arch.NoPE}
	if len(buses) > 0 {
		m.bus0 = buses[0]
	}
	var sc listsched.Scratch
	locks := listsched.NewLocks(g.NumProcs())
	for i, sub := range res.Subgraphs {
		pi := new(pathInfo)
		pi.set(nil, sub, res.Schedules[i])
		s := pi.optimal
		label := s.Label.Format(g.CondName)
		for d := 0; d < draws; d++ {
			locks.Reset(g.NumProcs())
			var onPath []sched.Key
			for _, e := range s.Entries() {
				if r.Intn(2) == 0 {
					locks.Set(e.Key, lockFor(e))
					onPath = append(onPath, e.Key)
				}
			}
			for _, p := range g.Procs() {
				if !sub.Active(p.ID) && r.Intn(4) == 0 {
					locks.Set(sched.ProcKey(p.ID), listsched.Lock{Start: r.Int63n(s.Delay + 1), Bus: arch.NoPE})
				}
			}
			if !m.agrees(pi, locks) {
				counts.Rejected++
				continue
			}
			counts.Accepted++
			got, diag, err := sc.ScheduleInto(nil, sub, a, listsched.Options{
				Priority: listsched.PriorityFixedOrder,
				Order:    pi.order,
				Locked:   locks,
			})
			if err != nil {
				t.Fatalf("path %s: reschedule: %v", label, err)
			}
			if got.Delay != s.Delay || !slices.Equal(got.Entries(), s.Entries()) ||
				!slices.Equal(got.Conds(), s.Conds()) || len(diag.LockViolations) != 0 {
				t.Fatalf("path %s: the rule accepted %d locks, but the reschedule differs from the optimal schedule:\ngot  delay %d %v %v\nwant delay %d %v %v",
					label, len(onPath), got.Delay, got.Entries(), got.Conds(), s.Delay, s.Entries(), s.Conds())
			}
			for _, key := range onPath {
				lock, _ := locks.Get(key)
				moved := []listsched.Lock{{Start: lock.Start - 1, Bus: lock.Bus}, {Start: lock.Start + 1, Bus: lock.Bus}}
				if key.IsCond {
					for _, b := range buses {
						if b != lock.Bus {
							moved = append(moved, listsched.Lock{Start: lock.Start, Bus: b})
						}
					}
				}
				for _, mv := range moved {
					locks.Set(key, mv)
					if m.agrees(pi, locks) {
						t.Fatalf("path %s: the rule accepts %v locked at %+v instead of %+v", label, key, mv, lock)
					}
				}
				locks.Set(key, lock)
			}
			for c := cond.Cond(0); int(c) < g.NumConds(); c++ {
				if _, decided := s.Cond(c); decided {
					continue
				}
				locks.Set(sched.CondKey(c), listsched.Lock{Start: s.Delay, Bus: m.bus0})
				if m.agrees(pi, locks) {
					t.Fatalf("path %s: the rule accepts a broadcast lock of %s, which the path does not decide", label, g.CondName(c))
				}
				break
			}
		}
	}
}
