package table_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/table"
)

// renderReference is the fmt-based Render that the two-pass renderer
// replaced, kept verbatim as the oracle its output must match byte for byte.
func renderReference(t *table.Table, opt table.RenderOptions) string {
	name := opt.RowName
	if name == nil {
		name = func(k sched.Key) string { return k.String() }
	}
	cols := t.Columns()
	header := make([]string, 0, len(cols)+1)
	header = append(header, "process")
	for _, c := range cols {
		header = append(header, c.Format(opt.Namer))
	}
	rows := [][]string{header}
	for _, k := range t.Keys() {
		entries := t.Row(k)
		row := make([]string, len(cols)+1)
		row[0] = name(k)
		for i, c := range cols {
			for _, e := range entries {
				if e.Expr.Equal(c) {
					row[i+1] = fmt.Sprintf("%d", e.Start)
					break
				}
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(cols)+1)
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, cell := range r {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w
			}
			b.WriteString(strings.Repeat("-", total+3*len(cols)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// scheduled returns the table of a scheduled instance with the render
// options every production caller uses.
func scheduled(t *testing.T, nodes, paths int, seed int64) (*table.Table, table.RenderOptions) {
	t.Helper()
	var res *core.Result
	var err error
	if nodes == 0 {
		g, a, ferr := expr.Figure1()
		if ferr != nil {
			t.Fatalf("Figure1: %v", ferr)
		}
		res, err = core.Schedule(g, a, core.Options{})
	} else {
		inst, gerr := gen.Generate(gen.RandomConfig(rand.New(rand.NewSource(seed)), nodes, paths))
		if gerr != nil {
			t.Fatalf("Generate: %v", gerr)
		}
		res, err = core.Schedule(inst.Graph, inst.Arch, core.Options{})
	}
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return res.Table, table.RenderOptions{Namer: res.Graph.CondName, RowName: res.RowName}
}

// TestRenderMatchesReference compares Render with the fmt rendering on
// scheduled tables and on random tables whose names mix ASCII, multi-byte
// runes and invalid UTF-8, with and without default names.
func TestRenderMatchesReference(t *testing.T) {
	check := func(label string, tbl *table.Table, opt table.RenderOptions) {
		t.Helper()
		if got, want := tbl.Render(opt), renderReference(tbl, opt); got != want {
			t.Fatalf("%s: Render differs from the fmt rendering:\n--- got\n%q\n--- want\n%q", label, got, want)
		}
	}
	check("empty", table.New(0), table.RenderOptions{})
	for _, c := range []struct{ nodes, paths int }{{0, 0}, {60, 10}, {120, 32}} {
		tbl, opt := scheduled(t, c.nodes, c.paths, 1)
		check(fmt.Sprintf("%d nodes, %d paths", c.nodes, c.paths), tbl, opt)
	}
	names := []string{"P", "τ1", "Ü", "\xff\xfe", "日本語", "a|b", ""}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		tbl := table.New(8)
		for k := 0; k < 1+r.Intn(6); k++ {
			key := sched.ProcKey(cpg.ProcID(k))
			if r.Intn(4) == 0 {
				key = sched.CondKey(cond.Cond(k))
			}
			for n := r.Intn(5); n > 0; n-- {
				c := cond.True()
				for x := 0; x < 3; x++ {
					if r.Intn(2) == 0 {
						c = c.MustWith(cond.Cond(x), r.Intn(2) == 0)
					}
				}
				_ = tbl.Place(key, c, r.Int63n(1_000_000)-10)
			}
		}
		pick := func(int) string { return names[r.Intn(len(names))] }
		rowNames, condNames := map[sched.Key]string{}, map[cond.Cond]string{}
		for _, k := range tbl.KeysView() {
			rowNames[k] = pick(0) + pick(0)
		}
		for x := cond.Cond(0); x < 3; x++ {
			condNames[x] = pick(0)
		}
		var opt table.RenderOptions
		if r.Intn(3) > 0 {
			opt.Namer = func(c cond.Cond) string { return condNames[c] }
			opt.RowName = func(k sched.Key) string { return rowNames[k] }
		}
		check(fmt.Sprintf("random table %d", i), tbl, opt)
	}
	// fmt refuses widths above 10^6: a name that long makes every cell of
	// its column "%!(BADWIDTH)" plus the cell, unpadded.
	tbl := table.New(8)
	long := strings.Repeat("x", 1_000_001)
	_ = tbl.Place(sched.ProcKey(1), cond.True(), 7)
	_ = tbl.Place(sched.ProcKey(2), cond.MustCube(cond.Lit{Cond: 0, Val: true}), 12)
	check("width above fmt's limit", tbl, table.RenderOptions{
		Namer: func(cond.Cond) string { return long },
		RowName: func(k sched.Key) string {
			if k.Proc == 1 {
				return long
			}
			return "P2"
		},
	})
}

// TestRenderAboveWidthLimitAllocates checks that Render's memory follows
// the bytes it writes when a name is longer than fmt's width limit. Such a
// column is not padded, so a reservation sized from the widths would be a
// megabyte for each of the 200 rows here, 200 MB for 2 MB of output.
func TestRenderAboveWidthLimitAllocates(t *testing.T) {
	tbl := table.New(200)
	names := map[sched.Key]string{}
	for k := 0; k < 200; k++ {
		key := sched.ProcKey(cpg.ProcID(k))
		_ = tbl.Place(key, cond.True(), int64(k))
		names[key] = fmt.Sprintf("P%d", k)
	}
	names[sched.ProcKey(0)] = strings.Repeat("x", 1_000_001)
	opt := table.RenderOptions{RowName: func(k sched.Key) string { return names[k] }}
	if got, want := tbl.Render(opt), renderReference(tbl, opt); got != want {
		t.Fatalf("Render differs from the fmt rendering")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := tbl.Render(opt)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d output bytes, %d allocated", len(out), alloc)
	if alloc > 8*uint64(len(out)) {
		t.Errorf("Render allocated %d bytes for %d bytes of output", alloc, len(out))
	}
}

// TestRenderNonASCIIPadding pins Render's padding of non-ASCII names.
// Widths are measured in bytes but padding counts runes, as fmt's %-*s did,
// so "τ1" (3 bytes, 2 runes) gets five spaces in a 7-byte column and "Ü"
// and "!Ü" overshoot their columns by one byte. Aligning them would be an
// output change of its own.
func TestRenderNonASCIIPadding(t *testing.T) {
	tbl := table.New(8)
	u := cond.Cond(0)
	tau, p2 := sched.ProcKey(1), sched.ProcKey(2)
	for _, e := range []struct {
		k     sched.Key
		expr  cond.Cube
		start int64
	}{
		{tau, cond.True(), 0},
		{p2, cond.MustCube(cond.Lit{Cond: u, Val: true}), 3},
		{p2, cond.MustCube(cond.Lit{Cond: u, Val: false}), 5},
		{sched.CondKey(u), cond.True(), 2},
	} {
		if err := tbl.Place(e.k, e.expr, e.start); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	got := tbl.Render(table.RenderOptions{
		Namer: func(cond.Cond) string { return "Ü" },
		RowName: func(k sched.Key) string {
			switch {
			case k.IsCond:
				return "Ü"
			case k == tau:
				return "τ1"
			}
			return "P2"
		},
	})
	const want = "process | true | Ü  | !Ü \n" +
		"-------------------------\n" +
		"τ1      | 0    |    |    \n" +
		"P2      |      | 3  | 5  \n" +
		"Ü       | 2    |    |    \n"
	if got != want {
		t.Fatalf("non-ASCII rendering changed:\n--- got\n%q\n--- want\n%q", got, want)
	}
}

// TestRenderAllocs pins Render's allocations under one ceiling for the
// Figure-1 table (11 columns) and a 120-node, 32-path one (several times
// the columns and cells): allocations no longer grow with the cells, and
// column headings are formatted into one shared buffer.
func TestRenderAllocs(t *testing.T) {
	const ceiling = 24
	for _, c := range []struct{ nodes, paths int }{{0, 0}, {120, 32}} {
		tbl, opt := scheduled(t, c.nodes, c.paths, 1)
		n := testing.AllocsPerRun(20, func() { _ = tbl.Render(opt) })
		t.Logf("%d nodes, %d paths: %d columns, %d entries, %.0f allocs", c.nodes, c.paths, len(tbl.Columns()), tbl.NumEntries(), n)
		if n > ceiling {
			t.Errorf("%d nodes, %d paths: Render allocates %.0f times, ceiling %d", c.nodes, c.paths, n, ceiling)
		}
	}
}
