package sched

import "sort"

// Interval is a half-open busy interval [Start, End) on a resource.
type Interval struct {
	Start, End int64
}

// Timeline tracks the busy intervals of one sequential resource (a
// programmable processor, a bus or a memory module). Hardware processors do
// not need a timeline because they execute processes in parallel.
//
// The busy list is kept sorted by start time. As long as the reservations do
// not overlap (the normal case — the list scheduler always finds a free slot
// first), the interval end times are monotone too and every query runs a
// binary search. Overlapping reservations can only be introduced by locked
// activation times that are themselves in conflict; the timeline detects the
// broken invariant on insert and falls back to the original linear scans, so
// behavior stays identical to the reference implementation in that case.
//
// The zero value is an empty timeline ready to use.
type Timeline struct {
	busy []Interval // kept sorted by Start
	// nonMonotone is set when an insertion broke the "End sorted too"
	// invariant; queries then use linear scans.
	nonMonotone bool
}

// Reset empties the timeline, retaining the allocated capacity so one
// timeline can be reused across many scheduling runs.
func (t *Timeline) Reset() {
	t.busy = t.busy[:0]
	t.nonMonotone = false
}

// insertAt places iv at index idx (which must be the first index with
// Start >= iv.Start) and updates the monotonicity flag.
func (t *Timeline) insertAt(idx int, iv Interval) {
	if idx > 0 && t.busy[idx-1].End > iv.End {
		t.nonMonotone = true
	}
	if idx < len(t.busy) && iv.End > t.busy[idx].End {
		t.nonMonotone = true
	}
	t.busy = append(t.busy, Interval{})
	copy(t.busy[idx+1:], t.busy[idx:])
	t.busy[idx] = iv
}

// Reserve marks [start, start+dur) as busy. Zero-duration reservations are
// ignored. Reserve does not check for overlaps; use EarliestFit to find a
// conflict-free slot first (or ReserveEarliest, which does both).
func (t *Timeline) Reserve(start, dur int64) {
	if dur <= 0 {
		return
	}
	iv := Interval{Start: start, End: start + dur}
	idx := sort.Search(len(t.busy), func(i int) bool { return t.busy[i].Start >= iv.Start })
	t.insertAt(idx, iv)
}

// earliestFit returns the earliest feasible start >= earliest for an interval
// of the given duration, together with the index at which the corresponding
// reservation would be inserted (the first busy interval starting at or after
// the returned time).
func (t *Timeline) earliestFit(earliest, dur int64) (int64, int) {
	start := earliest
	i := 0
	if !t.nonMonotone {
		// Skip every interval that ends before the candidate start.
		i = sort.Search(len(t.busy), func(i int) bool { return t.busy[i].End > start })
	}
	for ; i < len(t.busy); i++ {
		iv := t.busy[i]
		if iv.End <= start {
			continue
		}
		if iv.Start >= start+dur {
			break
		}
		// Overlaps (or would overlap); push past this interval.
		start = iv.End
	}
	if t.nonMonotone {
		// The scan index is not a valid insertion point when the list is
		// degenerate; recompute it.
		i = sort.Search(len(t.busy), func(i int) bool { return t.busy[i].Start >= start })
	}
	return start, i
}

// EarliestFit returns the earliest time >= earliest at which an interval of
// the given duration fits between existing reservations.
func (t *Timeline) EarliestFit(earliest, dur int64) int64 {
	if dur <= 0 {
		return earliest
	}
	start, _ := t.earliestFit(earliest, dur)
	return start
}

// ReserveEarliest finds the earliest feasible start >= earliest, reserves
// [start, start+dur) and returns the start. It is EarliestFit followed by
// Reserve sharing a single search.
func (t *Timeline) ReserveEarliest(earliest, dur int64) int64 {
	if dur <= 0 {
		return earliest
	}
	start, idx := t.earliestFit(earliest, dur)
	t.insertAt(idx, Interval{Start: start, End: start + dur})
	return start
}

// Overlaps reports whether any two reservations overlap; a correct
// non-preemptive schedule never lets this happen on a sequential resource.
func (t *Timeline) Overlaps() bool {
	for i := 1; i < len(t.busy); i++ {
		if t.busy[i-1].End > t.busy[i].Start {
			return true
		}
	}
	return false
}
