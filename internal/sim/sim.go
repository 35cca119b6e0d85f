// Package sim re-enacts the distributed run-time scheduler of the paper: for
// a given combination of condition values it reads the schedule table,
// activates every active process at the activation time found in the
// applicable column and checks that the execution is deterministic and
// feasible:
//
//   - every active process (and condition broadcast) has exactly one
//     applicable activation time (requirements 2 and 3);
//   - data dependencies are respected (a process starts only after all of its
//     active predecessors terminated);
//   - sequential resources (processors, buses, memories) never execute two
//     activities at the same time;
//   - requirement 4 holds: the column expression used to activate a process
//     only contains condition values that are known, at the activation time,
//     on the processing element executing it.
//
// The worst-case delay δmax of a schedule table is the largest completion
// time over all alternative paths. The per-path re-enactments are
// independent, so WorstCaseSubgraphs fans them out over a bounded worker
// pool and collects the traces in path order, reusing the active subgraphs
// already built during path scheduling.
//
// A Trace lists its activations as a slice; a re-enactment looks them up
// through the dense activity index of package sched and reports resource
// overlaps one processing element at a time, in PEID order, so a trace and
// its violations are the same on every run.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/table"
)

// Violation describes one problem found while re-enacting a path.
type Violation struct {
	Path   cond.Cube
	Key    sched.Key
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("path %s, %s: %s", v.Path, v.Key, v.Reason)
}

// Activation is one activity of a re-enactment: the process or broadcast
// and the interval it executes in.
type Activation struct {
	Key        sched.Key
	Start, End int64
}

// Trace is the re-enactment of one alternative path.
type Trace struct {
	Label cond.Cube
	// Activations lists every activated activity: the processes in the
	// topological order of the path, then the condition broadcasts by
	// condition.
	Activations []Activation
	// Delay is the completion time of the path (activation time of the
	// sink, i.e. the time the last active process terminates).
	Delay      int64
	Violations []Violation
}

// OK reports whether the trace is free of violations.
func (t *Trace) OK() bool { return len(t.Violations) == 0 }

// Run re-enacts the execution selected by the given path.
func Run(g *cpg.Graph, a *arch.Architecture, tbl *table.Table, path *cpg.Path) (*Trace, error) {
	if g == nil || a == nil || tbl == nil || path == nil {
		return nil, errors.New("sim: nil argument")
	}
	return RunSubgraph(g.Subgraph(path), a, tbl)
}

// RunSubgraph re-enacts the execution of one alternative path given its
// prebuilt active subgraph, avoiding the subgraph extraction that Run
// performs. It only reads the subgraph and the table, so concurrent calls
// are safe.
func RunSubgraph(sub *cpg.Subgraph, a *arch.Architecture, tbl *table.Table) (*Trace, error) {
	if sub == nil || a == nil || tbl == nil {
		return nil, errors.New("sim: nil argument")
	}
	g := sub.G
	label := sub.Label
	active := sub.ActiveProcs()
	decided := sub.DecidedConds()
	np := g.NumProcs()
	tr := &Trace{
		Label:       label,
		Activations: make([]Activation, 0, len(active)+len(decided)),
	}
	// pos maps the dense activity index to 1 + the position of the key's
	// activation, 0 for an activity that was not activated.
	pos := make([]int32, sched.NumSlots(np))
	activate := func(k sched.Key, start, end int64) {
		tr.Activations = append(tr.Activations, Activation{Key: k, Start: start, End: end})
		pos[k.Slot(np)] = int32(len(tr.Activations))
	}
	activation := func(k sched.Key) (Activation, bool) {
		if i := pos[k.Slot(np)]; i != 0 {
			return tr.Activations[i-1], true
		}
		return Activation{}, false
	}

	addViolation := func(k sched.Key, format string, args ...interface{}) {
		tr.Violations = append(tr.Violations, Violation{Path: label, Key: k, Reason: fmt.Sprintf(format, args...)})
	}

	// Resolve the activation time of a key from the table; app is a shared
	// scratch buffer for the applicable entries.
	var app []table.Entry
	resolve := func(k sched.Key) (int64, bool) {
		app = tbl.AppendApplicable(app[:0], k, label)
		if len(app) == 0 {
			addViolation(k, "no applicable activation time (requirement 3)")
			return 0, false
		}
		first := app[0]
		for _, e := range app[1:] {
			if e.Start != first.Start {
				addViolation(k, "ambiguous activation times %d and %d (requirement 2)", first.Start, e.Start)
			}
		}
		return first.Start, true
	}

	// Activate processes.
	for _, p := range active {
		proc := g.Process(p)
		if proc.IsDummy() {
			continue
		}
		k := sched.ProcKey(p)
		start, ok := resolve(k)
		if !ok {
			continue
		}
		activate(k, start, start+a.EffectiveExec(proc.Exec, proc.PE))
	}
	// Activate condition broadcasts (when present in the table). A
	// condition without a decider activation keeps deciderEnd 0; hasBcast
	// marks the conditions with a broadcast end.
	var broadcastEnd, deciderEnd [cond.MaxConds]int64
	var hasBcast uint64
	for _, c := range decided {
		def := g.Condition(c)
		if act, ok := activation(sched.ProcKey(def.Decider)); ok {
			deciderEnd[c] = act.End
		}
		k := sched.CondKey(c)
		if len(tbl.RowView(k)) == 0 {
			// Single-processor systems do not broadcast.
			broadcastEnd[c] = deciderEnd[c]
			hasBcast |= 1 << uint(c)
			continue
		}
		start, ok := resolve(k)
		if !ok {
			continue
		}
		activate(k, start, start+a.CondTime)
		broadcastEnd[c] = start + a.CondTime
		hasBcast |= 1 << uint(c)
		if start < deciderEnd[c] {
			addViolation(k, "broadcast starts at %d before the disjunction process terminates at %d", start, deciderEnd[c])
		}
	}

	// knownAt reports when condition c becomes known on processing element pe.
	knownAt := func(c cond.Cond, pe arch.PEID) int64 {
		def := g.Condition(c)
		if def != nil && pe != arch.NoPE && g.Process(def.Decider).PE == pe {
			return deciderEnd[c]
		}
		if hasBcast&(1<<uint(c)) != 0 {
			return broadcastEnd[c]
		}
		return deciderEnd[c]
	}

	// Dependency and requirement-4 checks.
	for _, p := range active {
		proc := g.Process(p)
		if proc.IsDummy() {
			continue
		}
		k := sched.ProcKey(p)
		act, ok := activation(k)
		if !ok {
			continue
		}
		start := act.Start
		for _, q := range sub.Preds(p) {
			if g.Process(q).IsDummy() {
				continue
			}
			qAct, ok := activation(sched.ProcKey(q))
			if !ok {
				continue
			}
			if start < qAct.End {
				addViolation(k, "starts at %d before predecessor %s terminates at %d", start, g.Process(q).Name, qAct.End)
			}
		}
		// Requirement 4: every condition of the applicable column must be
		// known on the executing processing element at the start time.
		app = tbl.AppendApplicable(app[:0], k, label)
		if len(app) > 0 {
			expr := app[0].Expr
			for _, e := range app {
				if e.Expr.Len() > expr.Len() {
					expr = e.Expr
				}
			}
			for m := expr.Mask(); m != 0; m &= m - 1 {
				x := cond.Cond(bits.TrailingZeros64(m))
				if at := knownAt(x, proc.PE); start < at {
					addViolation(k, "activation at %d uses condition %s which is known on %s only at %d (requirement 4)",
						start, g.CondName(x), peName(a, proc.PE), at)
				}
			}
		}
	}

	// Resource exclusivity on sequential processing elements, checked one
	// element at a time in PEID order. The bus carrying a broadcast is
	// recorded in the path schedule, not in the table; for the simulation we
	// only check that the broadcasts on the (single) broadcast bus set do not
	// overlap when exactly one all-connecting bus exists.
	bcastBus := arch.NoPE
	if buses := a.BroadcastBuses(); len(buses) == 1 {
		bcastBus = buses[0]
	}
	type slot struct {
		pe  arch.PEID
		act int // position in tr.Activations
	}
	slots := make([]slot, 0, len(tr.Activations))
	for i, act := range tr.Activations {
		pe := bcastBus
		if !act.Key.IsCond {
			pe = g.Process(act.Key.Proc).PE
		}
		if pe != arch.NoPE && a.IsSequential(pe) && act.Start != act.End {
			slots = append(slots, slot{pe, i})
		}
	}
	// Group by element keeping the activation order within each group, then
	// order each group by start time.
	slices.SortStableFunc(slots, func(x, y slot) int { return cmp.Compare(x.pe, y.pe) })
	for len(slots) > 0 {
		n := 1
		for n < len(slots) && slots[n].pe == slots[0].pe {
			n++
		}
		group := slots[:n]
		slots = slots[n:]
		slices.SortFunc(group, func(x, y slot) int {
			return cmp.Compare(tr.Activations[x.act].Start, tr.Activations[y.act].Start)
		})
		for i := 1; i < len(group); i++ {
			prev, cur := tr.Activations[group[i-1].act], tr.Activations[group[i].act]
			if prev.End > cur.Start {
				addViolation(cur.Key, "overlaps %s on sequential element %s", prev.Key, peName(a, group[i].pe))
			}
		}
	}

	// Delay: completion time of the last active process.
	for _, act := range tr.Activations {
		if !act.Key.IsCond && act.End > tr.Delay {
			tr.Delay = act.End
		}
	}
	return tr, nil
}

func peName(a *arch.Architecture, id arch.PEID) string {
	if pe := a.PE(id); pe != nil {
		return pe.Name
	}
	return fmt.Sprintf("pe(%d)", int(id))
}

// Result aggregates the re-enactment of every alternative path.
type Result struct {
	Traces []*Trace
	// DeltaMax is the worst-case delay over all paths.
	DeltaMax int64
	// Violations collects the violations of all traces.
	Violations []Violation
}

// OK reports whether no path produced a violation.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// WorstCase re-enacts every alternative path sequentially and returns the
// worst-case delay together with the per-path traces.
func WorstCase(g *cpg.Graph, a *arch.Architecture, tbl *table.Table, paths []*cpg.Path) (*Result, error) {
	subs := make([]*cpg.Subgraph, len(paths))
	for i, p := range paths {
		subs[i] = g.Subgraph(p)
	}
	return WorstCaseSubgraphs(a, tbl, subs, 1)
}

// WorstCaseSubgraphs re-enacts every alternative path, given the prebuilt
// active subgraphs, over a bounded worker pool (0 = GOMAXPROCS, 1 =
// sequential). Traces, the worst-case delay and the violations are collected
// in path order, so the result is identical for every worker count.
func WorstCaseSubgraphs(a *arch.Architecture, tbl *table.Table, subs []*cpg.Subgraph, workers int) (*Result, error) {
	traces := make([]*Trace, len(subs))
	errs := make([]error, len(subs))
	pool.ForEachIndex(len(subs), workers, func(i int) {
		traces[i], errs[i] = RunSubgraph(subs[i], a, tbl)
	})
	res := &Result{Traces: traces}
	for i, tr := range traces {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if tr.Delay > res.DeltaMax {
			res.DeltaMax = tr.Delay
		}
		res.Violations = append(res.Violations, tr.Violations...)
	}
	return res, nil
}
