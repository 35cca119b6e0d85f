package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cond"
	"repro/internal/cpg"
)

// randomSchedule fills ps with a random schedule of a graph with numProcs
// processes: a random subset of the processes and conditions, starts drawn
// from [base, base+span) so that ties occur, in random insertion order.
func randomSchedule(ps *PathSchedule, r *rand.Rand, numProcs int, base, span int64) {
	for _, p := range r.Perm(numProcs) {
		if r.Intn(3) == 0 {
			continue
		}
		start := base + r.Int63n(span)
		ps.Set(Entry{Key: ProcKey(cpg.ProcID(p)), Start: start, End: start + r.Int63n(5), PE: 0})
	}
	for _, c := range r.Perm(8) {
		if r.Intn(2) == 0 {
			continue
		}
		at := base + r.Int63n(span)
		ps.Set(Entry{Key: CondKey(cond.Cond(c)), Start: at, End: at + 1, PE: 1})
		ps.SetCond(CondTiming{Cond: cond.Cond(c), Value: c%2 == 0, DecidedAt: at, BroadcastStart: at, BroadcastEnd: at + 1, Bus: 1})
	}
	ps.Delay = base + span
}

// sameSchedule reports the first observable difference between two sealed
// schedules of a graph with numProcs processes: the sorted views, the delay
// and a lookup of every activity and condition.
func sameSchedule(t *testing.T, got, want *PathSchedule, numProcs int) {
	t.Helper()
	if !slices.Equal(got.Entries(), want.Entries()) {
		t.Fatalf("Entries differ:\ngot  %v\nwant %v", got.Entries(), want.Entries())
	}
	if !slices.Equal(got.Conds(), want.Conds()) {
		t.Fatalf("Conds differ:\ngot  %v\nwant %v", got.Conds(), want.Conds())
	}
	if got.Delay != want.Delay || got.Label != want.Label || got.Len() != want.Len() {
		t.Fatalf("delay/label/len %d/%v/%d, want %d/%v/%d", got.Delay, got.Label, got.Len(), want.Delay, want.Label, want.Len())
	}
	for s := 0; s < NumSlots(numProcs); s++ {
		k := SlotKey(s, numProcs)
		ge, gok := got.Entry(k)
		we, wok := want.Entry(k)
		if gok != wok || ge != we {
			t.Fatalf("Entry(%v) = %v,%v, want %v,%v", k, ge, gok, we, wok)
		}
	}
	for c := cond.Cond(0); c < cond.MaxConds; c++ {
		gc, gok := got.Cond(c)
		wc, wok := want.Cond(c)
		if gok != wok || gc != wc {
			t.Fatalf("Cond(%d) = %v,%v, want %v,%v", c, gc, gok, wc, wok)
		}
	}
}

// TestResetRefillEqualsFresh refills one recycled schedule with a sequence of
// random schedules, some of other graph sizes, and checks every refill
// against a freshly built schedule of the same content. Lookups of keys that
// only the previous content had must miss: a stale slot of the dense index
// would return the old entry.
func TestResetRefillEqualsFresh(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var keys []uint64
	recycled := NewPathSchedule(cond.True(), 40, 0, 0)
	randomSchedule(recycled, rand.New(rand.NewSource(1)), 40, 0, 50)
	keys = recycled.Sort(keys)
	for i := 0; i < 200; i++ {
		numProcs := []int{40, 40, 12, 90}[i%4]
		label := cond.True().MustWith(cond.Cond(i%5), i%2 == 0)
		seed := r.Int63()

		fresh := NewPathSchedule(label, numProcs, 0, 0)
		randomSchedule(fresh, rand.New(rand.NewSource(seed)), numProcs, 0, 30)
		keys = fresh.Sort(keys)

		recycled.Reset(label, numProcs, 0, 0)
		if recycled.Len() != 0 || len(recycled.Conds()) != 0 || recycled.Delay != 0 {
			t.Fatalf("refill %d: Reset left %d entries, %d conds, delay %d", i, recycled.Len(), len(recycled.Conds()), recycled.Delay)
		}
		randomSchedule(recycled, rand.New(rand.NewSource(seed)), numProcs, 0, 30)
		keys = recycled.Sort(keys)
		sameSchedule(t, recycled, fresh, numProcs)
	}
}

// TestPackedSortMatchesComparator checks the two ways Sort orders entries:
// the packed integer keys and, for starts too large to pack or negative, the
// comparator. Both must give the same order and a consistent index.
func TestPackedSortMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		numProcs := 1 + r.Intn(200)
		packed := NewPathSchedule(cond.True(), numProcs, 0, 0)
		randomSchedule(packed, r, numProcs, 0, int64(1+r.Intn(40)))
		byFunc := *packed
		byFunc.at, byFunc.entries, byFunc.conds = slices.Clone(packed.at), slices.Clone(packed.entries), slices.Clone(packed.conds)
		if _, ok := packed.appendSortKeys(nil); !ok {
			t.Fatalf("schedule %d: small starts must pack", i)
		}
		packed.Sort(nil)
		byFunc.sortEntriesFunc()
		if !slices.Equal(packed.entries, byFunc.entries) || !slices.Equal(packed.at, byFunc.at) {
			t.Fatalf("schedule %d: packed order %v, comparator order %v", i, packed.entries, byFunc.entries)
		}
	}
	// Starts that do not fit beside the slot bits, or are negative, take the
	// comparator branch of Sort.
	for _, base := range []int64{math.MaxInt64 - 100, 1 << 58, -50} {
		numProcs := 30
		ps := NewPathSchedule(cond.True(), numProcs, 0, 0)
		randomSchedule(ps, r, numProcs, base, 40)
		if _, ok := ps.appendSortKeys(nil); ok {
			t.Fatalf("base %d: starts must not pack", base)
		}
		want := slices.Clone(ps.entries)
		slices.SortFunc(want, func(a, b Entry) int {
			if a.Start != b.Start {
				if a.Start < b.Start {
					return -1
				}
				return 1
			}
			if a.Key.Less(b.Key) {
				return -1
			}
			return 1
		})
		ps.Sort(nil)
		if !slices.Equal(ps.Entries(), want) {
			t.Fatalf("base %d: comparator branch order %v, want %v", base, ps.Entries(), want)
		}
		for i, e := range ps.Entries() {
			if got, ok := ps.Entry(e.Key); !ok || got != ps.Entries()[i] {
				t.Fatalf("base %d: index of %v stale after Sort", base, e.Key)
			}
		}
	}
}

// TestUnsortedReadsDoNotMutate pins that reading a schedule never changes
// it: before Sort, Entries and Conds return sorted copies and leave the
// records as they were set.
func TestUnsortedReadsDoNotMutate(t *testing.T) {
	ps := NewPathSchedule(cond.True(), 4, 0, 0)
	ps.Set(Entry{Key: ProcKey(2), Start: 10, End: 12})
	ps.Set(Entry{Key: ProcKey(1), Start: 0, End: 3})
	ps.SetCond(CondTiming{Cond: 1, DecidedAt: 9})
	ps.SetCond(CondTiming{Cond: 0, DecidedAt: 6})
	if e := ps.Entries(); e[0].Key != ProcKey(1) {
		t.Fatalf("Entries not sorted: %v", e)
	}
	if c := ps.Conds(); c[0].Cond != 0 {
		t.Fatalf("Conds not sorted: %v", c)
	}
	if ps.entries[0].Key != ProcKey(2) || ps.conds[0].Cond != 1 {
		t.Fatalf("reading an unsorted schedule reordered its records: %v %v", ps.entries, ps.conds)
	}
	ps.Sort(nil)
	if ps.entries[0].Key != ProcKey(1) || ps.conds[0].Cond != 0 {
		t.Fatalf("Sort did not order the records: %v %v", ps.entries, ps.conds)
	}
}
