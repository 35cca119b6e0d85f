package sched

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
)

func TestKeyBasics(t *testing.T) {
	p := ProcKey(3)
	c := CondKey(1)
	if p.IsCond || !c.IsCond {
		t.Fatalf("key kinds wrong: %v %v", p, c)
	}
	if !p.Less(c) {
		t.Fatalf("process keys must sort before condition keys")
	}
	if c.Less(p) {
		t.Fatalf("ordering must be asymmetric")
	}
	if !ProcKey(1).Less(ProcKey(2)) || ProcKey(2).Less(ProcKey(1)) {
		t.Fatalf("process key ordering wrong")
	}
	if !CondKey(0).Less(CondKey(1)) {
		t.Fatalf("condition key ordering wrong")
	}
	if !strings.Contains(p.String(), "proc") || !strings.Contains(c.String(), "bcast") {
		t.Fatalf("String() unexpected: %q %q", p.String(), c.String())
	}
	if ProcKey(5) != ProcKey(5) {
		t.Fatalf("keys must be comparable")
	}
}

func TestEntryDuration(t *testing.T) {
	e := Entry{Key: ProcKey(1), Start: 4, End: 9}
	if e.Duration() != 5 {
		t.Fatalf("Duration = %d, want 5", e.Duration())
	}
}

func TestPathScheduleEntriesSorted(t *testing.T) {
	ps := NewPathSchedule(cond.True(), 4, 0, 0)
	ps.Set(Entry{Key: ProcKey(2), Start: 10, End: 12, PE: 0})
	ps.Set(Entry{Key: ProcKey(1), Start: 0, End: 3, PE: 0})
	ps.Set(Entry{Key: CondKey(0), Start: 3, End: 4, PE: 1})
	ps.Set(Entry{Key: ProcKey(3), Start: 3, End: 5, PE: 0})
	entries := ps.Entries()
	if len(entries) != 4 || ps.Len() != 4 {
		t.Fatalf("Len/Entries wrong: %d", len(entries))
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Start < entries[j].Start }) {
		t.Fatalf("entries not sorted by start: %v", entries)
	}
	// Ties are broken by key: process 3 before the condition broadcast.
	if entries[1].Key != ProcKey(3) || entries[2].Key != CondKey(0) {
		t.Fatalf("tie break wrong: %v", entries)
	}
	// Replacing an entry keeps a single record.
	ps.Set(Entry{Key: ProcKey(1), Start: 1, End: 4, PE: 0})
	if ps.Len() != 4 {
		t.Fatalf("Set must replace, not append")
	}
	if e, ok := ps.Entry(ProcKey(1)); !ok || e.Start != 1 {
		t.Fatalf("Entry lookup after replace wrong: %v %v", e, ok)
	}
	if _, ok := ps.Entry(ProcKey(99)); ok {
		t.Fatalf("missing entry should not be found")
	}
}

func TestCondTimingOrderAndLookup(t *testing.T) {
	ps := NewPathSchedule(cond.True(), 4, 0, 0)
	ps.SetCond(CondTiming{Cond: 1, Value: false, DecidedAt: 9, DeciderPE: 0, BroadcastStart: 9, BroadcastEnd: 10, Bus: 3})
	ps.SetCond(CondTiming{Cond: 0, Value: true, DecidedAt: 6, DeciderPE: 1, BroadcastStart: 6, BroadcastEnd: 7, Bus: 3})
	ps.SetCond(CondTiming{Cond: 2, Value: true, DecidedAt: 9, DeciderPE: 1, BroadcastStart: 10, BroadcastEnd: 11, Bus: 3})
	order := ps.Conds()
	if len(order) != 3 || order[0].Cond != 0 || order[1].Cond != 1 || order[2].Cond != 2 {
		t.Fatalf("Conds order wrong: %v", order)
	}
	if ct, ok := ps.Cond(1); !ok || ct.DecidedAt != 9 {
		t.Fatalf("Cond lookup wrong: %v %v", ct, ok)
	}
	if _, ok := ps.Cond(7); ok {
		t.Fatalf("unknown condition must not be found")
	}
}

func TestKnownAt(t *testing.T) {
	ps := NewPathSchedule(cond.True(), 4, 0, 0)
	// Condition 0 decided by PE 1 at t=6, broadcast on bus 3 during [6,7).
	ps.SetCond(CondTiming{Cond: 0, Value: true, DecidedAt: 6, DeciderPE: 1, BroadcastStart: 6, BroadcastEnd: 7, Bus: 3})
	// On the decider it is known from t=6.
	if k := ps.KnownAt(1, 6); !k.Has(0) {
		t.Fatalf("condition must be known on its decider at decision time")
	}
	if k := ps.KnownAt(1, 5); k.Has(0) {
		t.Fatalf("condition must not be known before decision time")
	}
	// On another processor it is known only from the broadcast end.
	if k := ps.KnownAt(0, 6); k.Has(0) {
		t.Fatalf("condition must not be known remotely before the broadcast ends")
	}
	if k := ps.KnownAt(0, 7); !k.Has(0) {
		t.Fatalf("condition must be known remotely after the broadcast")
	}
	if v, _ := ps.KnownAt(0, 7).Value(0); !v {
		t.Fatalf("known value must match the path value")
	}
	// KnownTime agrees.
	if at, ok := ps.KnownTime(0, 1); !ok || at != 6 {
		t.Fatalf("KnownTime on decider = %d,%v", at, ok)
	}
	if at, ok := ps.KnownTime(0, 0); !ok || at != 7 {
		t.Fatalf("KnownTime remote = %d,%v", at, ok)
	}
	if _, ok := ps.KnownTime(5, 0); ok {
		t.Fatalf("KnownTime of undecided condition must report false")
	}
}

func TestKnownAtWithoutBroadcast(t *testing.T) {
	// A single-processor system needs no broadcast: Bus == NoPE means the
	// value is globally known from the decision moment.
	ps := NewPathSchedule(cond.True(), 4, 0, 0)
	ps.SetCond(CondTiming{Cond: 0, Value: false, DecidedAt: 4, DeciderPE: 0, Bus: arch.NoPE})
	if k := ps.KnownAt(0, 4); !k.Has(0) {
		t.Fatalf("value must be known on the decider")
	}
	if k := ps.KnownAt(2, 4); !k.Has(0) {
		t.Fatalf("without a broadcast the value is known everywhere at decision time")
	}
	if at, ok := ps.KnownTime(0, 2); !ok || at != 4 {
		t.Fatalf("KnownTime without broadcast = %d,%v", at, ok)
	}
}

func TestCloneIndependence(t *testing.T) {
	ps := NewPathSchedule(cond.MustCube(cond.Lit{Cond: 0, Val: true}), 4, 0, 0)
	ps.Set(Entry{Key: ProcKey(1), Start: 0, End: 2, PE: 0})
	ps.SetCond(CondTiming{Cond: 0, Value: true, DecidedAt: 2, DeciderPE: 0, BroadcastStart: 2, BroadcastEnd: 3, Bus: 1})
	ps.Delay = 17
	cl := ps.Clone()
	cl.Set(Entry{Key: ProcKey(1), Start: 5, End: 7, PE: 0})
	cl.Delay = 3
	if e, _ := ps.Entry(ProcKey(1)); e.Start != 0 || ps.Delay != 17 {
		t.Fatalf("Clone shares storage with the original")
	}
	if cl.Label.Key() != ps.Label.Key() {
		t.Fatalf("Clone must keep the label")
	}
}

func TestGanttRendering(t *testing.T) {
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	bus := a.AddBus("bus", true)
	g := cpg.New("g")
	p := g.AddProcess("P1", 2, pe1)
	ps := NewPathSchedule(cond.True(), 4, 0, 0)
	ps.Set(Entry{Key: ProcKey(p), Start: 0, End: 2, PE: pe1})
	ps.Set(Entry{Key: CondKey(0), Start: 2, End: 3, PE: bus})
	ps.Delay = 3
	out := ps.Gantt(a, func(k Key) string {
		if k.IsCond {
			return "C"
		}
		return g.Process(k.Proc).Name
	})
	if !strings.Contains(out, "pe1") || !strings.Contains(out, "P1[0,2)") || !strings.Contains(out, "C[2,3)") {
		t.Fatalf("Gantt output unexpected:\n%s", out)
	}
	// Default naming path.
	out2 := ps.Gantt(a, nil)
	if !strings.Contains(out2, "proc(") {
		t.Fatalf("Gantt default naming unexpected:\n%s", out2)
	}
}

func TestTimelineReserveAndFreeAt(t *testing.T) {
	var tl Timeline
	tl.Reserve(5, 3) // [5,8)
	tl.Reserve(0, 2) // [0,2)
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	if !tl.FreeAt(2, 3) {
		t.Fatalf("[2,5) should be free")
	}
	if tl.FreeAt(4, 2) {
		t.Fatalf("[4,6) overlaps [5,8)")
	}
	if tl.FreeAt(7, 1) {
		t.Fatalf("[7,8) overlaps [5,8)")
	}
	if !tl.FreeAt(8, 10) {
		t.Fatalf("[8,18) should be free")
	}
	if !tl.FreeAt(100, 0) {
		t.Fatalf("zero-duration intervals are always free")
	}
	if tl.Overlaps() {
		t.Fatalf("disjoint reservations must not report overlap")
	}
	tl.Reserve(7, 2)
	if !tl.Overlaps() {
		t.Fatalf("overlapping reservations must be detected")
	}
}

func TestTimelineEarliestFit(t *testing.T) {
	var tl Timeline
	tl.Reserve(2, 3)  // [2,5)
	tl.Reserve(8, 2)  // [8,10)
	tl.Reserve(10, 5) // [10,15)
	if got := tl.EarliestFit(0, 2); got != 0 {
		t.Fatalf("EarliestFit(0,2) = %d, want 0", got)
	}
	if got := tl.EarliestFit(0, 3); got != 5 {
		t.Fatalf("EarliestFit(0,3) = %d, want 5", got)
	}
	if got := tl.EarliestFit(3, 1); got != 5 {
		t.Fatalf("EarliestFit(3,1) = %d, want 5", got)
	}
	if got := tl.EarliestFit(6, 4); got != 15 {
		t.Fatalf("EarliestFit(6,4) = %d, want 15", got)
	}
	if got := tl.EarliestFit(20, 3); got != 20 {
		t.Fatalf("EarliestFit(20,3) = %d, want 20", got)
	}
	if got := tl.EarliestFit(1, 0); got != 1 {
		t.Fatalf("EarliestFit with zero duration = %d, want 1", got)
	}
	if at, ok := tl.NextBusyAfter(6); !ok || at != 8 {
		t.Fatalf("NextBusyAfter(6) = %d,%v", at, ok)
	}
	if _, ok := tl.NextBusyAfter(16); ok {
		t.Fatalf("NextBusyAfter past the last reservation must report false")
	}
}

func TestPropertyEarliestFitIsFreeAndMinimal(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		var tl Timeline
		// Build a random non-overlapping timeline.
		at := int64(0)
		for i := 0; i < 6; i++ {
			gap := int64(r.Intn(4))
			dur := int64(1 + r.Intn(4))
			at += gap
			tl.Reserve(at, dur)
			at += dur
		}
		earliest := int64(r.Intn(10))
		dur := int64(1 + r.Intn(5))
		got := tl.EarliestFit(earliest, dur)
		if got < earliest {
			return false
		}
		if !tl.FreeAt(got, dur) {
			return false
		}
		// Minimality: no earlier feasible start.
		for s := earliest; s < got; s++ {
			if tl.FreeAt(s, dur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReserveKeepsSortedWhenDisjoint(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		var tl Timeline
		at := int64(0)
		starts := []int64{}
		for i := 0; i < 8; i++ {
			at += int64(1 + r.Intn(5))
			dur := int64(1 + r.Intn(3))
			starts = append(starts, at)
			tl.Reserve(at, dur)
			at += dur
		}
		busy := tl.Busy()
		if len(busy) != len(starts) {
			return false
		}
		return !tl.Overlaps() && sort.SliceIsSorted(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
