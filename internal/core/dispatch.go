package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/sched"
)

// The schedule table "contains all information needed by a distributed run
// time scheduler to take decisions on activation of processes" (section 3 of
// the paper): a very simple non-preemptive scheduler located on each
// programmable or communication processor looks only at the rows of the
// processes mapped to it and at the condition values it has received so far.
//
// Dispatch extracts exactly that view: one local dispatch table per
// processing element, listing the activities the element executes, the
// condition values each activation decision depends on, and the set of
// conditions whose value the element must receive at all.

// DispatchEntry is one decision rule of a local scheduler: activate Activity
// at time Start once the condition values of When are known to hold.
type DispatchEntry struct {
	Activity sched.Key
	When     cond.Cube
	Start    int64
}

// DispatchTable is the table used by the run-time scheduler of one processing
// element.
type DispatchTable struct {
	PE arch.PEID
	// Entries are ordered by activation time (ties by row then expression).
	Entries []DispatchEntry
	// Conditions lists the conditions whose values the local scheduler
	// consults, i.e. the values that must reach this processing element
	// through the broadcast mechanism.
	Conditions []cond.Cond
}

// Dispatch splits the schedule table of a result into per-processing-element
// dispatch tables. Condition broadcasts are assigned to the bus recorded in
// the optimal schedule of the first path that decides them, so it needs the
// result's Schedules: a result the scheduling service keeps has none, and a
// caller that wants its dispatch tables runs core.Schedule itself.
func Dispatch(res *Result) []*DispatchTable {
	byPE := map[arch.PEID]*DispatchTable{}
	get := func(pe arch.PEID) *DispatchTable {
		dt, ok := byPE[pe]
		if !ok {
			dt = &DispatchTable{PE: pe}
			byPE[pe] = dt
		}
		return dt
	}
	peOf := func(k sched.Key) arch.PEID {
		if !k.IsCond {
			return res.Graph.Process(k.Proc).PE
		}
		for _, ps := range res.Schedules {
			if ct, ok := ps.Cond(k.Cond); ok && ct.Bus != arch.NoPE {
				return ct.Bus
			}
		}
		return arch.NoPE
	}
	for _, k := range res.Table.Keys() {
		pe := peOf(k)
		if pe == arch.NoPE {
			continue
		}
		dt := get(pe)
		for _, e := range res.Table.Row(k) {
			dt.Entries = append(dt.Entries, DispatchEntry{Activity: k, When: e.Expr, Start: e.Start})
		}
	}
	out := make([]*DispatchTable, 0, len(byPE))
	for _, dt := range byPE {
		sort.Slice(dt.Entries, func(i, j int) bool {
			a, b := dt.Entries[i], dt.Entries[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.Activity != b.Activity {
				return a.Activity.Less(b.Activity)
			}
			return a.When.Compare(b.When) < 0
		})
		condSet := map[cond.Cond]bool{}
		for _, e := range dt.Entries {
			for _, c := range e.When.Conds() {
				condSet[c] = true
			}
		}
		for c := range condSet {
			dt.Conditions = append(dt.Conditions, c)
		}
		sort.Slice(dt.Conditions, func(i, j int) bool { return dt.Conditions[i] < dt.Conditions[j] })
		out = append(out, dt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PE < out[j].PE })
	return out
}

// RenderDispatch renders the per-processing-element dispatch tables as text.
func RenderDispatch(res *Result, tables []*DispatchTable) string {
	var b strings.Builder
	for _, dt := range tables {
		pe := res.Arch.PE(dt.PE)
		name := fmt.Sprintf("pe(%d)", int(dt.PE))
		if pe != nil {
			name = pe.Name
		}
		fmt.Fprintf(&b, "local scheduler on %s", name)
		if len(dt.Conditions) > 0 {
			names := make([]string, 0, len(dt.Conditions))
			for _, c := range dt.Conditions {
				names = append(names, res.Graph.CondName(c))
			}
			fmt.Fprintf(&b, " (needs conditions %s)", strings.Join(names, ", "))
		}
		b.WriteString(":\n")
		for _, e := range dt.Entries {
			fmt.Fprintf(&b, "  at %6d if %-20s activate %s\n",
				e.Start, e.When.Format(res.Graph.CondName), res.RowName(e.Activity))
		}
	}
	return b.String()
}
