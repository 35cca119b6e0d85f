// Package table implements the schedule table of the paper: one row per
// ordinary or communication process (plus one row per condition broadcast),
// one column per conjunction of condition values, and activation times in the
// cells. A simple non-preemptive run-time scheduler on every processing
// element reads the table and activates a process at the time found in the
// column whose expression matches the condition values it currently knows.
//
// The package offers placement with conflict detection (requirement 2 of
// section 3 of the paper), the row checks of requirements 1 and 2, the one
// violation type of every table check and a text rendering in the style of
// Table 1. The per-path requirements are checked by the re-enactment of
// package sim, the only per-path check of a table.
//
// Rows sit in a slice indexed by the dense activity index of package sched
// (sched.Key.Slot) and keep their entries sorted by (activation time,
// expression). Rows are short, so the merging algorithm's inner loop
// (deriveLocks, covered, Conflicts, Place) scans them in place, without
// hashing or copying.
package table

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cond"
	"repro/internal/cpg"
	"repro/internal/sched"
)

// Entry is one cell of the schedule table: the process (or broadcast) of its
// row is activated at time Start when the column expression Expr is true.
type Entry struct {
	Expr  cond.Cube
	Start int64
}

// row stores the entries of one table row sorted by (Start, Expr).
type row struct {
	entries []Entry
	listed  bool // the row is in keys
}

// Table is a schedule table under construction or completed. Mutating methods
// are not safe for concurrent use; concurrent readers are.
type Table struct {
	numProcs int
	rows     []row       // by sched.Key.Slot
	keys     []sched.Key // insertion order of the listed rows
}

// New returns an empty schedule table for a graph with numProcs processes.
func New(numProcs int) *Table {
	return &Table{numProcs: numProcs, rows: make([]row, sched.NumSlots(numProcs))}
}

// listedRow returns the row of k, listing it in insertion order if it is
// new. k must be in the table's index.
func (t *Table) listedRow(k sched.Key) *row {
	r := &t.rows[k.Slot(t.numProcs)]
	if !r.listed {
		r.listed = true
		t.keys = append(t.keys, k)
	}
	return r
}

// Keys returns a copy of the row keys in insertion order.
func (t *Table) Keys() []sched.Key { return append([]sched.Key(nil), t.keys...) }

// KeysView returns the row keys in insertion order without copying. The
// returned slice is shared with the table and must not be modified.
func (t *Table) KeysView() []sched.Key { return t.keys }

// Row returns a copy of the entries of a row (possibly nil).
func (t *Table) Row(k sched.Key) []Entry { return append([]Entry(nil), t.RowView(k)...) }

// RowView returns the entries of a row sorted by (Start, Expr) without
// copying. The returned slice is shared with the table and must not be
// modified; it is invalidated by the next Place on the same row.
func (t *Table) RowView(k sched.Key) []Entry {
	if s := k.Slot(t.numProcs); s >= 0 {
		return t.rows[s].entries
	}
	return nil
}

// NumEntries returns the total number of cells.
func (t *Table) NumEntries() int {
	n := 0
	for _, r := range t.rows {
		n += len(r.entries)
	}
	return n
}

// Columns returns the distinct column expressions used anywhere in the table,
// ordered deterministically (fewer literals first, then lexicographically).
func (t *Table) Columns() []cond.Cube {
	cols, _ := t.ColumnIndex()
	return cols
}

// ColumnIndex returns the columns in Columns order together with the
// position of each column expression in that order.
func (t *Table) ColumnIndex() ([]cond.Cube, map[cond.Cube]int) {
	pos := map[cond.Cube]int{}
	for _, r := range t.rows {
		for _, e := range r.entries {
			if _, ok := pos[e.Expr]; !ok {
				pos[e.Expr] = 0
			}
		}
	}
	cols := make([]cond.Cube, 0, len(pos))
	for c := range pos {
		cols = append(cols, c)
	}
	slices.SortFunc(cols, func(a, b cond.Cube) int {
		if a.Len() != b.Len() {
			return a.Len() - b.Len()
		}
		return a.Compare(b)
	})
	for i, c := range cols {
		pos[c] = i
	}
	return cols, pos
}

// Conflict describes a violation of requirement 2: two activation times of
// the same row whose column expressions can be true simultaneously.
type Conflict struct {
	Key      sched.Key
	New      Entry
	Existing Entry
}

// Error renders the conflict.
func (c Conflict) Error() string {
	return fmt.Sprintf("table: conflicting activation times for %s: %d under %s vs %d under %s",
		c.Key, c.New.Start, c.New.Expr, c.Existing.Start, c.Existing.Expr)
}

// AppendApplicable appends to dst the entries of row k whose expression is
// implied by the given (full) condition assignment, the entries the run-time
// scheduler would fire on that path, and returns it. Callers that resolve
// many keys reuse one buffer.
func (t *Table) AppendApplicable(dst []Entry, k sched.Key, label cond.Cube) []Entry {
	for _, e := range t.RowView(k) {
		if label.Implies(e.Expr) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Conflicts returns the existing entries of row k that conflict with placing
// an activation time start under expression expr: entries with a compatible
// expression but a different activation time (requirement 2).
func (t *Table) Conflicts(k sched.Key, expr cond.Cube, start int64) []Entry {
	var out []Entry
	for _, e := range t.RowView(k) {
		if e.Start != start && e.Expr.Compatible(expr) {
			out = append(out, e)
		}
	}
	return out
}

// Place records an activation time without checking for conflicts (callers
// resolve conflicts first, see the merging algorithm). Placing an entry that
// already exists with the same expression and time is a no-op; placing a
// different time under an identical expression replaces nothing and returns a
// Conflict error. k must be an activity of the graph the table was made for.
func (t *Table) Place(k sched.Key, expr cond.Cube, start int64) error {
	r := t.listedRow(k)
	for _, existing := range r.entries {
		if existing.Expr != expr {
			continue
		}
		if existing.Start == start {
			return nil
		}
		return Conflict{Key: k, New: Entry{Expr: expr, Start: start}, Existing: existing}
	}
	e := Entry{Expr: expr, Start: start}
	// Insert keeping the row sorted by (Start, Expr).
	idx := sort.Search(len(r.entries), func(i int) bool {
		if r.entries[i].Start != start {
			return r.entries[i].Start > start
		}
		return r.entries[i].Expr.Compare(expr) >= 0
	})
	r.entries = append(r.entries, Entry{})
	copy(r.entries[idx+1:], r.entries[idx:])
	r.entries[idx] = e
	return nil
}

// Kind says which check a Violation fails.
type Kind uint8

// The kinds of violation. Requirements 1 and 2 of section 3 of the paper are
// properties of a row, checked by Validate. The others hold or fail on one
// alternative path at a time and are checked by the re-enactment of package
// sim.
const (
	// Requirement1: a column expression of a process row does not imply the
	// process guard.
	Requirement1 Kind = iota + 1
	// Requirement2: two different activation times of a row have compatible
	// column expressions.
	Requirement2
	// Requirement3: on a path, an active process or broadcast has no
	// applicable activation time, or applicable times that disagree.
	Requirement3
	// Requirement4: a process is activated under a column naming a condition
	// that its processing element does not know yet.
	Requirement4
	// Dependency: a process starts before an active predecessor terminates,
	// or a broadcast before its disjunction process does.
	Dependency
	// Overlap: two activities overlap on a sequential processing element.
	Overlap
)

var kindNames = [...]string{
	Requirement1: "requirement 1",
	Requirement2: "requirement 2",
	Requirement3: "requirement 3",
	Requirement4: "requirement 4",
	Dependency:   "dependency",
	Overlap:      "overlap",
}

func (k Kind) String() string { return kindNames[k] }

// Violation is one finding of the checks of a table: a row check of Validate
// or a per-path check of the re-enactment in package sim. Each finding is
// reported once.
type Violation struct {
	Kind Kind
	// Path is the label of the alternative path a per-path finding is on;
	// the row findings of requirements 1 and 2 leave it zero.
	Path cond.Cube
	Key  sched.Key
	// Text renders the finding with the graph's condition and process names.
	Text string
}

func (v Violation) String() string { return v.Text }

// PathViolation returns the finding of the given kind for activity k on the
// alternative path labelled label; its text names both with the graph's
// names, followed by the detail.
func PathViolation(g *cpg.Graph, kind Kind, label cond.Cube, k sched.Key, detail string) Violation {
	return Violation{Kind: kind, Path: label, Key: k,
		Text: fmt.Sprintf("path %s, %s: %s: %s", label.Format(g.CondName), ActivityName(g, k), kind, detail)}
}

// rowViolation returns the finding of the given kind for row k.
func rowViolation(g *cpg.Graph, kind Kind, k sched.Key, detail string) Violation {
	return Violation{Kind: kind, Key: k, Text: fmt.Sprintf("%s: %s: %s", ActivityName(g, k), kind, detail)}
}

// ActivityName names the activity of a row with the graph's names: a process
// by its name, a condition broadcast as "broadcast" and the condition name.
func ActivityName(g *cpg.Graph, k sched.Key) string {
	if k.IsCond {
		return "broadcast " + g.CondName(k.Cond)
	}
	return g.Process(k.Proc).Name
}

// Validate checks the row requirements of section 3 of the paper against the
// graph:
//
//  1. every column expression of a process row implies the process guard;
//  2. activation times are uniquely determined: two different activation
//     times of the same row never have compatible column expressions.
//
// Requirements 3 (on every alternative path, every active process has an
// applicable activation time, and all of them agree) and 4 (activation
// depends only on condition values known on the executing processing element
// at that moment) hold or fail path by path; the re-enactment of package sim
// checks them while it resolves each row on each path.
func (t *Table) Validate(g *cpg.Graph) []Violation {
	var out []Violation
	for _, k := range t.keys {
		if k.IsCond {
			continue
		}
		guard := g.Guard(k.Proc)
		for _, e := range t.RowView(k) {
			if !guard.ImpliedByCube(e.Expr) {
				out = append(out, rowViolation(g, Requirement1, k,
					fmt.Sprintf("column %s does not imply guard %s", e.Expr.Format(g.CondName), guard.Format(g.CondName))))
			}
		}
	}
	for _, k := range t.keys {
		row := t.RowView(k)
		for i := 0; i < len(row); i++ {
			for j := i + 1; j < len(row); j++ {
				if row[i].Start != row[j].Start && row[i].Expr.Compatible(row[j].Expr) {
					out = append(out, rowViolation(g, Requirement2, k,
						fmt.Sprintf("times %d (%s) and %d (%s) are not mutually exclusive",
							row[i].Start, row[i].Expr.Format(g.CondName), row[j].Start, row[j].Expr.Format(g.CondName))))
				}
			}
		}
	}
	return out
}

// ValidateParallel is Validate. The row checks need neither the paths nor a
// worker pool, so both are ignored. It keeps its signature because the
// benchmark module (perfbench) times it as its own layer.
func (t *Table) ValidateParallel(g *cpg.Graph, _ []*cpg.Path, _ int) []Violation {
	return t.Validate(g)
}

// RenderOptions controls the text rendering of a table.
type RenderOptions struct {
	// Namer translates condition identifiers to names; defaults to c<N>.
	Namer cond.Namer
	// RowName translates row keys to names; defaults to Key.String.
	RowName func(sched.Key) string
}

// Render produces a fixed-width text table in the style of Table 1 of the
// paper: one column per expression, one row per process and per condition.
//
// It makes two passes over the table. The first measures the column widths
// from the headings, the row names and the digit counts of the activation
// times; the second writes every line into one builder, sized exactly unless
// a width is above fmt's limit. Cells are padded exactly as fmt's "%-*s"
// pads them, so the text stays byte-identical to the fmt rendering the
// goldens were made with: widths are measured in bytes but padding counts
// runes, so a non-ASCII name is over-padded, and a width above fmt's limit
// of 10^6 writes "%!(BADWIDTH)" and the cell unpadded.
func (t *Table) Render(opt RenderOptions) string {
	name := opt.RowName
	if name == nil {
		name = sched.Key.String
	}
	cols, pos := t.ColumnIndex()
	// The heading line, formatted once into one string: cell i of it is
	// head[ends[i]:ends[i+1]].
	buf := append(make([]byte, 0, len("process")+16*len(cols)), "process"...)
	ends := make([]int, 0, len(cols)+2)
	ends = append(ends, 0, len(buf))
	for _, c := range cols {
		buf = c.AppendFormat(buf, opt.Namer)
		ends = append(ends, len(buf))
	}
	head := string(buf)

	// Pass 1: widths and the bytes that rune padding adds beyond them.
	widths := make([]int, len(cols)+1)
	extra := 0
	for i := range widths {
		cell := head[ends[i]:ends[i+1]]
		widths[i] = len(cell)
		extra += len(cell) - utf8.RuneCountInString(cell)
	}
	var digits [20]byte
	lines := 2 + len(t.keys) // the heading, the rule and one line per row
	for _, k := range t.keys {
		n := name(k)
		widths[0] = max(widths[0], len(n))
		extra += len(n) - utf8.RuneCountInString(n)
		for _, e := range t.RowView(k) {
			i := pos[e.Expr] + 1
			widths[i] = max(widths[i], len(strconv.AppendInt(digits[:0], e.Start, 10)))
		}
	}
	lineLen := 3*len(cols) + 1
	for _, w := range widths {
		lineLen += w
	}

	// Pass 2, into a builder of the exact output size. Above fmt's limit a
	// column is not padded, so its width says nothing about the size; there
	// the builder grows with what is written instead.
	var b strings.Builder
	if slices.Max(widths) <= maxFmtWidth {
		b.Grow(lines*lineLen + extra)
	}
	for i, w := range widths {
		if i > 0 {
			b.WriteString(" | ")
		}
		writeCell(&b, head[ends[i]:ends[i+1]], w)
	}
	b.WriteByte('\n')
	writeRun(&b, dashes, lineLen-1)
	b.WriteByte('\n')
	// Empty cells are copied from blank, the data cells of a row without
	// entries: the cell of column i, its separator included, is
	// blank[at[i]:at[i+1]].
	var bb strings.Builder
	bb.Grow(lineLen - widths[0] - 1)
	at := make([]int, len(cols)+1)
	for i, w := range widths[1:] {
		at[i] = bb.Len()
		bb.WriteString(" | ")
		writeCell(&bb, "", w)
	}
	at[len(cols)] = bb.Len()
	blank := bb.String()
	slot := make([]int, len(cols)) // 1 + index of the row's entry in each column, 0 if none
	for _, k := range t.keys {
		entries := t.RowView(k)
		for j, e := range entries {
			slot[pos[e.Expr]] = j + 1
		}
		writeCell(&b, name(k), widths[0])
		done := 0
		for i, s := range slot {
			if s == 0 {
				continue
			}
			slot[i] = 0
			b.WriteString(blank[done:at[i]])
			b.WriteString(" | ")
			writeCell(&b, string(strconv.AppendInt(digits[:0], entries[s-1].Start, 10)), widths[i+1])
			done = at[i+1]
		}
		b.WriteString(blank[done:])
		b.WriteByte('\n')
	}
	return b.String()
}

// maxFmtWidth is the largest width fmt accepts; beyond it fmt writes
// badWidth and leaves the cell unpadded.
const (
	maxFmtWidth = 1e6
	badWidth    = "%!(BADWIDTH)"
)

// writeCell writes cell left-aligned in a field of width w the way fmt's
// "%-*s" does: padded to w runes.
func writeCell(b *strings.Builder, cell string, w int) {
	if w > maxFmtWidth {
		b.WriteString(badWidth)
		w = 0
	}
	b.WriteString(cell)
	writeRun(b, spaces, w-utf8.RuneCountInString(cell))
}

const (
	spaces = "                                "
	dashes = "--------------------------------"
)

// writeRun writes n bytes of run, a string of one repeated byte, or nothing
// if n <= 0.
func writeRun(b *strings.Builder, run string, n int) {
	for ; n > len(run); n -= len(run) {
		b.WriteString(run)
	}
	if n > 0 {
		b.WriteString(run[:n])
	}
}
