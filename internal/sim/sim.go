// Package sim re-enacts the distributed run-time scheduler of the paper: for
// a given combination of condition values it reads the schedule table,
// activates every active process at the activation time found in the
// applicable column and checks that the execution is deterministic and
// feasible. It is the only per-path check of a table (table.Validate checks
// the rows), and it resolves each row once per path:
//
//   - requirement 3 holds: every active process, and on an architecture
//     that broadcasts (arch.Architecture.Broadcasts) every decided
//     condition's broadcast, has an applicable activation time, and all of
//     them agree;
//   - data dependencies are respected (a process starts only after all of its
//     active predecessors terminated, a broadcast after its disjunction
//     process);
//   - sequential resources (processors, buses, memories) never execute two
//     activities at the same time;
//   - requirement 4 holds: the column expression used to activate a process
//     only contains condition values that are known, at the activation time,
//     on the processing element executing it. The column is the longest
//     applicable one, found while resolving the row.
//
// Each finding is one table.Violation, reported once.
//
// The worst-case delay δmax of a schedule table is the largest completion
// time over all alternative paths. The per-path re-enactments are
// independent, so WorstCaseSubgraphs fans them out over a bounded worker
// pool and collects the traces in path order, reusing the active subgraphs
// already built during path scheduling. Each worker takes one scratch from a
// pool shared across calls and keeps it for all its paths; the activations
// stay in the scratch, so a worst-case run allocates its traces once for all
// paths and nothing per activation.
//
// A Trace lists its activations as a slice; a re-enactment looks them up
// through the dense activity index of package sched and reports resource
// overlaps one processing element at a time, in PEID order, so a trace and
// its violations are the same on every run. The activations on sequential
// elements are grouped by element with a counting sort, which keeps their
// activation order within each element before the sort by start time.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/table"
)

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
	// condition. Traces of Run and RunSubgraph carry them; those of
	// WorstCaseSubgraphs leave them nil.
	Activations []Activation
	// Delay is the completion time of the path (activation time of the
	// sink, i.e. the time the last active process terminates).
	Delay      int64
	Violations []table.Violation
}

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
	var sc scratch
	tr := new(Trace)
	if err := sc.run(tr, sub, a, tbl); err != nil {
		return nil, err
	}
	// The scratch is this call's own, so the trace takes its activations.
	tr.Activations = sc.acts
	return tr, nil
}

// scratch holds the buffers of one re-enactment, reused by the next: the
// activations with their columns, the position index, the applicable table
// entries, the broadcast buses and the resource slots with their counting
// sort. A re-enactment with a warm scratch allocates only the text of any
// violation. A scratch is not safe for concurrent use.
type scratch struct {
	// acts lists the activations of the last run, and cols the column each
	// was resolved under, at the same positions.
	acts []Activation
	cols []cond.Cube
	// pos maps the dense activity index to 1 + the position of the key's
	// activation in acts, 0 for an activity that was not activated; it is
	// all zero between runs.
	pos   []int32
	app   []table.Entry
	buses []arch.PEID
	// slots lists the activations on sequential elements in activation
	// order, and byPE the same grouped by element; groupStart[pe] is where
	// element pe's group begins in byPE, and groupStart[NumPEs] is
	// len(byPE).
	slots      []resourceSlot
	byPE       []resourceSlot
	groupStart []int
}

// resourceSlot is an activation occupying a sequential processing element.
type resourceSlot struct {
	pe    arch.PEID
	start int64
	act   int // position in the scratch's activations
}

// scratchPool recycles the workers' scratches across WorstCaseSubgraphs
// calls.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// run re-enacts one path into tr (its label, delay and violations), leaving
// the activations in sc.acts.
func (sc *scratch) run(tr *Trace, sub *cpg.Subgraph, a *arch.Architecture, tbl *table.Table) error {
	if sub == nil || a == nil || tbl == nil {
		return errors.New("sim: nil argument")
	}
	g := sub.G
	label := sub.Label
	active := sub.ActiveProcs()
	decided := sub.DecidedConds()
	np := g.NumProcs()
	tr.Label = label
	sc.acts = slices.Grow(sc.acts[:0], len(active)+len(decided))
	sc.cols = slices.Grow(sc.cols[:0], len(active)+len(decided))
	if len(sc.pos) < sched.NumSlots(np) {
		sc.pos = make([]int32, sched.NumSlots(np))
	}
	pos := sc.pos
	activate := func(k sched.Key, start, end int64, col cond.Cube) {
		sc.acts = append(sc.acts, Activation{Key: k, Start: start, End: end})
		sc.cols = append(sc.cols, col)
		pos[k.Slot(np)] = int32(len(sc.acts))
	}
	activation := func(k sched.Key) (Activation, bool) {
		if i := pos[k.Slot(np)]; i != 0 {
			return sc.acts[i-1], true
		}
		return Activation{}, false
	}

	addViolation := func(kind table.Kind, k sched.Key, format string, args ...interface{}) {
		tr.Violations = append(tr.Violations, table.PathViolation(g, kind, label, k, fmt.Sprintf(format, args...)))
	}

	// resolve reads the row of k once: the activation time is the earliest
	// applicable one, and the column is the longest applicable expression,
	// the one requirement 4 checks. A row without an applicable time, or
	// with applicable times that disagree, fails requirement 3.
	resolve := func(k sched.Key) (int64, cond.Cube, bool) {
		sc.app = tbl.AppendApplicable(sc.app[:0], k, label)
		app := sc.app
		if len(app) == 0 {
			addViolation(table.Requirement3, k, "no applicable activation time")
			return 0, cond.Cube{}, false
		}
		// Rows are sorted by start time, so the applicable times agree iff
		// the first and the last do.
		first, last := app[0].Start, app[len(app)-1].Start
		if first != last {
			addViolation(table.Requirement3, k, "ambiguous activation times %d and %d", first, last)
		}
		col := app[0].Expr
		for _, e := range app[1:] {
			if e.Expr.Len() > col.Len() {
				col = e.Expr
			}
		}
		return first, col, true
	}

	// Activate processes.
	for _, p := range active {
		proc := g.Process(p)
		if proc.IsDummy() {
			continue
		}
		k := sched.ProcKey(p)
		start, col, ok := resolve(k)
		if !ok {
			continue
		}
		activate(k, start, start+a.EffectiveExec(proc.Exec, proc.PE), col)
	}
	// Activate condition broadcasts. An architecture that broadcasts (the
	// list scheduler's rule) needs a row for every decided condition, so a
	// missing one fails requirement 3 in resolve; without broadcasts a
	// condition is known everywhere when its decider ends. A condition
	// without a decider activation keeps deciderEnd 0; hasBcast marks the
	// conditions with a broadcast end.
	var broadcastEnd, deciderEnd [cond.MaxConds]int64
	var hasBcast uint64
	broadcasts := a.Broadcasts()
	for _, c := range decided {
		def := g.Condition(c)
		if act, ok := activation(sched.ProcKey(def.Decider)); ok {
			deciderEnd[c] = act.End
		}
		if !broadcasts {
			broadcastEnd[c] = deciderEnd[c]
			hasBcast |= 1 << uint(c)
			continue
		}
		k := sched.CondKey(c)
		start, col, ok := resolve(k)
		if !ok {
			continue
		}
		activate(k, start, start+a.CondTime, col)
		broadcastEnd[c] = start + a.CondTime
		hasBcast |= 1 << uint(c)
		if start < deciderEnd[c] {
			addViolation(table.Dependency, k, "starts at %d before its disjunction process %s terminates at %d",
				start, g.Process(def.Decider).Name, deciderEnd[c])
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
		i := pos[k.Slot(np)]
		if i == 0 {
			continue
		}
		start := sc.acts[i-1].Start
		for _, q := range sub.Preds(p) {
			if g.Process(q).IsDummy() {
				continue
			}
			qAct, ok := activation(sched.ProcKey(q))
			if !ok {
				continue
			}
			if start < qAct.End {
				addViolation(table.Dependency, k, "starts at %d before predecessor %s terminates at %d", start, g.Process(q).Name, qAct.End)
			}
		}
		// Requirement 4: every condition of the column the activation was
		// resolved under must be known on the executing processing element
		// at the start time.
		for m := sc.cols[i-1].Mask(); m != 0; m &= m - 1 {
			x := cond.Cond(bits.TrailingZeros64(m))
			if at := knownAt(x, proc.PE); start < at {
				addViolation(table.Requirement4, k, "activation at %d uses condition %s which is known on %s only at %d",
					start, g.CondName(x), peName(a, proc.PE), at)
			}
		}
	}

	// Resource exclusivity on sequential processing elements, checked one
	// element at a time in PEID order. The bus carrying a broadcast is
	// recorded in the path schedule, not in the table; for the simulation we
	// only check that the broadcasts on the (single) broadcast bus set do not
	// overlap when exactly one all-connecting bus exists.
	bcastBus := arch.NoPE
	if sc.buses = a.AppendBroadcastBuses(sc.buses[:0]); len(sc.buses) == 1 {
		bcastBus = sc.buses[0]
	}
	sc.slots = slices.Grow(sc.slots[:0], len(sc.acts))
	for i, act := range sc.acts {
		pe := bcastBus
		if !act.Key.IsCond {
			pe = g.Process(act.Key.Proc).PE
		}
		if pe != arch.NoPE && a.IsSequential(pe) && act.Start != act.End {
			sc.slots = append(sc.slots, resourceSlot{pe: pe, start: act.Start, act: i})
		}
	}
	// Group by element keeping the activation order within each group, then
	// order each group by start time.
	sc.groupByPE(a.NumPEs())
	for pe := 0; pe+1 < len(sc.groupStart); pe++ {
		group := sc.byPE[sc.groupStart[pe]:sc.groupStart[pe+1]]
		slices.SortFunc(group, func(x, y resourceSlot) int { return cmp.Compare(x.start, y.start) })
		for i := 1; i < len(group); i++ {
			prev, cur := sc.acts[group[i-1].act], sc.acts[group[i].act]
			if prev.End > cur.Start {
				addViolation(table.Overlap, cur.Key, "overlaps %s on sequential element %s",
					table.ActivityName(g, prev.Key), peName(a, group[i].pe))
			}
		}
	}

	// Delay: completion time of the last active process. Clear the
	// position index for the next run on the way.
	for _, act := range sc.acts {
		if !act.Key.IsCond && act.End > tr.Delay {
			tr.Delay = act.End
		}
		pos[act.Key.Slot(np)] = 0
	}
	return nil
}

// groupByPE fills byPE and groupStart from slots with a counting sort over
// the numPEs processing elements, which is stable by construction.
func (sc *scratch) groupByPE(numPEs int) {
	sc.groupStart = slices.Grow(sc.groupStart[:0], numPEs+1)[:numPEs+1]
	clear(sc.groupStart)
	for _, s := range sc.slots {
		sc.groupStart[s.pe]++
	}
	// Running sums turn the counts into the ends of the groups; filling
	// each group from its end backwards then leaves groupStart[pe] at its
	// start.
	for pe := 1; pe <= numPEs; pe++ {
		sc.groupStart[pe] += sc.groupStart[pe-1]
	}
	sc.byPE = slices.Grow(sc.byPE[:0], len(sc.slots))[:len(sc.slots)]
	for i := len(sc.slots) - 1; i >= 0; i-- {
		s := sc.slots[i]
		sc.groupStart[s.pe]--
		sc.byPE[sc.groupStart[s.pe]] = s
	}
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
	// Violations collects the violations of all traces, in path order.
	Violations []table.Violation
}

// WorstCaseSubgraphs re-enacts every alternative path, given the prebuilt
// active subgraphs, over a bounded worker pool (0 = GOMAXPROCS, 1 =
// sequential). Traces, the worst-case delay and the violations are collected
// in path order, so the result is identical for every worker count. The
// traces carry no activations.
func WorstCaseSubgraphs(a *arch.Architecture, tbl *table.Table, subs []*cpg.Subgraph, workers int) (*Result, error) {
	backing := make([]Trace, len(subs))
	traces := make([]*Trace, len(subs))
	errs := make([]error, len(subs))
	scratches := make([]*scratch, pool.Clamp(len(subs), workers))
	for w := range scratches {
		scratches[w] = scratchPool.Get().(*scratch)
	}
	pool.ForEachIndexWorker(len(subs), workers, func(worker, i int) {
		traces[i] = &backing[i]
		errs[i] = scratches[worker].run(traces[i], subs[i], a, tbl)
	})
	for _, sc := range scratches {
		scratchPool.Put(sc)
	}
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
