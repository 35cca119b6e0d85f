// Package cond is a detmap fixture named after a real in-scope package.
//
// Regression notes — violations this analyzer caught in the tree when it was
// first run, each fixed in the same PR that added the check:
//   - internal/stats (Series.Keys-style map iteration collected into a slice
//     without sorting before CSV emission) — the collect-then-sort pattern in
//     SortedCollect below pins the accepted fix shape.
package cond

import (
	"fmt"
	"sort"
	"strings"
)

// UnsortedCollect appends map keys to an outer slice and never sorts: the
// result order changes run to run.
func UnsortedCollect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside range over map"
	}
	return keys
}

// SortedCollect is the canonical deterministic pattern: collect, then sort in
// the same block. Not flagged.
func SortedCollect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HelperSorted collects into a struct field and sorts through a package-local
// sort-named helper — the shape a handler uses to sort a document's
// entries. Accepted.
func HelperSorted(m map[string]int) []string {
	type doc struct{ names []string }
	var d doc
	for k := range m {
		d.names = append(d.names, k)
	}
	sortNames(d.names)
	return d.names
}

func sortNames(v []string) { sort.Strings(v) }

// SliceSorted uses sort.Slice with a comparator; also accepted.
func SliceSorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// WriterInLoop emits directly from map iteration: no post-hoc sort can fix
// the emitted order.
func WriterInLoop(m map[string]int, b *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(b, "%s=%d\n", k, v) // want "fmt.Fprintf inside range over map"
	}
}

// BuilderWrite flags Write-shaped methods too.
func BuilderWrite(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // want "Builder.WriteString inside range over map"
	}
}

// StringConcat accumulates a string across iterations.
func StringConcat(m map[string]int) string {
	out := ""
	for k := range m {
		out += k // want "string concatenation into out inside range over map"
	}
	return out
}

// InnerAppend appends to a variable scoped inside the loop body: order cannot
// leak out, so it is not flagged.
func InnerAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, 2*v)
		}
		total += len(doubled)
	}
	return total
}

// CommutativeFold aggregates order-insensitively; not flagged.
func CommutativeFold(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// AllowedByDirective documents why the order genuinely does not matter.
func AllowedByDirective(m map[string]int) []string {
	var keys []string
	for k := range m {
		//lint:allow detmap order re-established by the caller's canonical merge
		keys = append(keys, k)
	}
	return keys
}
