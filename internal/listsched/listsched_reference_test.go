package listsched_test

// This file keeps a faithful port of the original list scheduler — the
// O(n²·log n) implementation that rescanned and re-sorted the ready list on
// every iteration and kept all state in maps — and checks that the rewritten
// heap-based, slice-backed scheduler produces exactly the same schedules,
// condition timings, delays and diagnostics on the worked example of the
// paper and on a sweep of generated graphs, for both priority functions and
// with locked activation times.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/sched"
)

// refTimeline is the original linear-scan resource timeline.
type refTimeline struct {
	busy []sched.Interval
}

func (t *refTimeline) Reserve(start, dur int64) {
	if dur <= 0 {
		return
	}
	iv := sched.Interval{Start: start, End: start + dur}
	idx := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].Start >= iv.Start })
	t.busy = append(t.busy, sched.Interval{})
	copy(t.busy[idx+1:], t.busy[idx:])
	t.busy[idx] = iv
}

func (t *refTimeline) EarliestFit(earliest, dur int64) int64 {
	if dur <= 0 {
		return earliest
	}
	start := earliest
	for _, iv := range t.busy {
		if iv.End <= start {
			continue
		}
		if iv.Start >= start+dur {
			break
		}
		start = iv.End
	}
	return start
}

func (t *refTimeline) Overlaps() bool {
	for i := 1; i < len(t.busy); i++ {
		if t.busy[i-1].End > t.busy[i].Start {
			return true
		}
	}
	return false
}

// referenceSchedule is the seed implementation of listsched.Schedule.
func referenceSchedule(sub *cpg.Subgraph, a *arch.Architecture, opt listsched.Options) (*sched.PathSchedule, *listsched.Diagnostics, error) {
	g := sub.G
	diag := &listsched.Diagnostics{}
	ps := sched.NewPathSchedule(sub.Label, g.NumProcs(), 0, 0)

	// The reference keeps its map state: read the dense options back into
	// maps keyed by activity.
	order := map[sched.Key]int64{}
	for p, v := range opt.Order {
		order[sched.ProcKey(cpg.ProcID(p))] = v
	}
	locked := map[sched.Key]listsched.Lock{}
	for k, l := range opt.Locked.All() {
		locked[k] = l
	}

	active := sub.ActiveProcs()
	if len(active) == 0 {
		return ps, diag, nil
	}

	exec := func(p cpg.ProcID) int64 {
		return a.EffectiveExec(g.Process(p).Exec, g.Process(p).PE)
	}

	cp := sub.CriticalPathLengths(exec)
	prio := func(p cpg.ProcID) float64 {
		switch opt.Priority {
		case listsched.PriorityFixedOrder:
			if v, ok := order[sched.ProcKey(p)]; ok {
				return float64(v)
			}
			return math.MaxFloat64/2 - float64(cp[p])
		default:
			return -float64(cp[p])
		}
	}

	timelines := map[arch.PEID]*refTimeline{}
	timeline := func(pe arch.PEID) *refTimeline {
		tl, ok := timelines[pe]
		if !ok {
			tl = &refTimeline{}
			timelines[pe] = tl
		}
		return tl
	}
	for key, lock := range locked {
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

	deciders := map[cpg.ProcID][]*cpg.CondDef{}
	for _, c := range sub.DecidedConds() {
		def := g.Condition(c)
		deciders[def.Decider] = append(deciders[def.Decider], def)
	}
	broadcastBuses := a.BroadcastBuses()
	needBroadcast := len(a.ComputePEs()) > 1 && len(broadcastBuses) > 0

	guardCube := map[cpg.ProcID]cond.Cube{}
	for _, p := range active {
		if c, ok := g.Guard(p).SatisfiedCube(sub.Label); ok {
			guardCube[p] = c
		} else {
			guardCube[p] = cond.True()
		}
	}

	scheduleBroadcast := func(def *cpg.CondDef, decEnd int64, deciderPE arch.PEID) {
		value, _ := sub.Label.Value(def.ID)
		key := sched.CondKey(def.ID)
		if lock, ok := locked[key]; ok {
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
				diag.LockViolations = append(diag.LockViolations, listsched.LockViolation{Key: key, Locked: lock.Start, Earliest: decEnd})
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

	remaining := map[cpg.ProcID]int{}
	scheduled := map[cpg.ProcID]bool{}
	endOf := map[cpg.ProcID]int64{}
	for _, p := range active {
		remaining[p] = len(sub.Preds(p))
	}

	readyList := func() []cpg.ProcID {
		var out []cpg.ProcID
		for _, p := range active {
			if !scheduled[p] && remaining[p] == 0 {
				out = append(out, p)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			pi, pj := prio(out[i]), prio(out[j])
			if pi != pj {
				return pi < pj
			}
			return out[i] < out[j]
		})
		return out
	}

	for count := 0; count < len(active); count++ {
		ready := readyList()
		if len(ready) == 0 {
			return nil, diag, errReferenceStuck
		}
		p := ready[0]
		proc := g.Process(p)
		dur := exec(p)

		est := int64(0)
		for _, q := range sub.Preds(p) {
			if endOf[q] > est {
				est = endOf[q]
			}
		}
		if proc.PE != arch.NoPE {
			for _, l := range guardCube[p].Lits() {
				if at, ok := ps.KnownTime(l.Cond, proc.PE); ok && at > est {
					est = at
				}
			}
		}

		var start int64
		if lock, isLocked := locked[sched.ProcKey(p)]; isLocked {
			start = lock.Start
			if est > start {
				diag.LockViolations = append(diag.LockViolations, listsched.LockViolation{Key: sched.ProcKey(p), Locked: start, Earliest: est})
				start = est
			}
		} else if a.IsSequential(proc.PE) {
			start = timeline(proc.PE).EarliestFit(est, dur)
			timeline(proc.PE).Reserve(start, dur)
		} else {
			start = est
		}
		end := start + dur
		ps.Set(sched.Entry{Key: sched.ProcKey(p), Start: start, End: end, PE: proc.PE})
		scheduled[p] = true
		endOf[p] = end

		for _, def := range deciders[p] {
			scheduleBroadcast(def, end, proc.PE)
		}

		for _, q := range sub.Succs(p) {
			remaining[q]--
		}
	}

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

	for pe, tl := range timelines {
		if tl.Overlaps() {
			diag.ResourceOverlaps = append(diag.ResourceOverlaps, pe)
		}
	}
	sort.Slice(diag.ResourceOverlaps, func(i, j int) bool { return diag.ResourceOverlaps[i] < diag.ResourceOverlaps[j] })
	return ps, diag, nil
}

var errReferenceStuck = &referenceError{}

type referenceError struct{}

func (*referenceError) Error() string { return "reference: no ready process" }

// comparable projections of a schedule.
func entriesOf(ps *sched.PathSchedule) []sched.Entry {
	return append([]sched.Entry(nil), ps.Entries()...)
}

func condsOf(ps *sched.PathSchedule) []sched.CondTiming {
	return append([]sched.CondTiming(nil), ps.Conds()...)
}

// compareRun schedules the subgraph with both implementations and fails the
// test on any observable difference.
func compareRun(t *testing.T, name string, sub *cpg.Subgraph, a *arch.Architecture, sc *listsched.Scratch, opt listsched.Options) *sched.PathSchedule {
	t.Helper()
	got, gotDiag, gotErr := sc.Schedule(sub, a, opt)
	want, wantDiag, wantErr := referenceSchedule(sub, a, opt)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error mismatch: heap=%v reference=%v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.Delay != want.Delay {
		t.Fatalf("%s: delay %d, reference %d", name, got.Delay, want.Delay)
	}
	if ge, we := entriesOf(got), entriesOf(want); !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: entries differ:\nheap:      %v\nreference: %v", name, ge, we)
	}
	if gc, wc := condsOf(got), condsOf(want); !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: condition timings differ:\nheap:      %v\nreference: %v", name, gc, wc)
	}
	if !reflect.DeepEqual(gotDiag.LockViolations, wantDiag.LockViolations) {
		t.Fatalf("%s: lock violations differ: %v vs %v", name, gotDiag.LockViolations, wantDiag.LockViolations)
	}
	if !reflect.DeepEqual(gotDiag.ResourceOverlaps, wantDiag.ResourceOverlaps) {
		t.Fatalf("%s: resource overlaps differ: %v vs %v", name, gotDiag.ResourceOverlaps, wantDiag.ResourceOverlaps)
	}
	return got
}

// compareGraph exercises both priority functions and locked activation times
// on every alternative path of the graph.
func compareGraph(t *testing.T, name string, g *cpg.Graph, a *arch.Architecture) {
	t.Helper()
	paths, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("%s: AlternativePaths: %v", name, err)
	}
	sc := listsched.NewScratch()
	for i, p := range paths {
		sub := g.Subgraph(p)
		optimal := compareRun(t, name, sub, a, sc, listsched.Options{Priority: listsched.PriorityCriticalPath})
		if optimal == nil {
			continue
		}
		// Fixed-order rescheduling with every third activity locked at its
		// optimal time — the shape the merging algorithm produces.
		order := make([]int64, g.NumProcs())
		locked := listsched.NewLocks(g.NumProcs())
		for j, e := range optimal.Entries() {
			if !e.Key.IsCond {
				order[e.Key.Proc] = e.Start
			}
			if j%3 == 0 {
				l := listsched.Lock{Start: e.Start, Bus: arch.NoPE}
				if e.Key.IsCond {
					l.Bus = e.PE
				}
				locked.Set(e.Key, l)
			}
		}
		compareRun(t, name+"/locked", sub, a, sc, listsched.Options{
			Priority: listsched.PriorityFixedOrder,
			Order:    order,
			Locked:   locked,
		})
		_ = i
	}
}

// TestHeapSchedulerMatchesReferenceFigure1 compares the rewritten scheduler
// against the seed implementation on the six alternative paths of the worked
// example.
func TestHeapSchedulerMatchesReferenceFigure1(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	compareGraph(t, "figure1", g, a)
}

// TestHeapSchedulerMatchesReferenceGenerated compares the two implementations
// across a sweep of generated graphs of varying size, path count and
// architecture.
func TestHeapSchedulerMatchesReferenceGenerated(t *testing.T) {
	graphs := 120
	if testing.Short() {
		graphs = 20
	}
	for i := 0; i < graphs; i++ {
		nodes := []int{20, 40, 60, 80}[i%4]
		target := []int{4, 6, 10, 16}[i%4]
		r := rand.New(rand.NewSource(int64(4200 + i)))
		inst, err := gen.Generate(gen.RandomConfig(r, nodes, target))
		if err != nil {
			t.Fatalf("Generate(%d): %v", i, err)
		}
		compareGraph(t, inst.Graph.Name(), inst.Graph, inst.Arch)
	}
}
