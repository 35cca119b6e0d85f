package textio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/gen"
	"repro/internal/table"
)

// encoderJSON is the rendering writeIndented replaces: a json.Encoder with
// SetIndent("", "  ").
func encoderJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return buf.Bytes()
}

// compactJSON is the rendering RenderJSON replaces: a json.Encoder without
// indentation.
func compactJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return buf.Bytes()
}

// sameBytes fails the test at the first byte where got and want differ.
func sameBytes(t testing.TB, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	t.Fatalf("%s: output differs from encoding/json at byte %d of %d/%d:\n got %q\nwant %q",
		label, i, len(got), len(want), got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}

// encodeTableReference is the per-entry EncodeTable that formatted every
// cell's expression anew, kept as the oracle for the shared column strings.
func encodeTableReference(g *cpg.Graph, tbl *table.Table) *TableDoc {
	doc := &TableDoc{Graph: g.Name()}
	for _, c := range tbl.Columns() {
		doc.Columns = append(doc.Columns, c.Format(g.CondName))
	}
	for _, k := range tbl.Keys() {
		for _, e := range tbl.Row(k) {
			doc.Entries = append(doc.Entries, TableEntryDoc{
				Row:       rowName(g, k),
				Broadcast: k.IsCond,
				When:      e.Expr.Format(g.CondName),
				Start:     e.Start,
			})
		}
	}
	return doc
}

// checkSolution asserts that the solution document of res, with the cache
// block cache (nil for none), is written byte-identically to encoding/json's
// renderings of EncodeSolution's document: the indented one by
// WriteSolution, and the compact one by AppendSolution and RenderSolution,
// the writer of /v1/schedule. It also checks the table against the
// reference encoding.
func checkSolution(t testing.TB, label string, res *core.Result, cache *CacheDoc) {
	t.Helper()
	if got, want := EncodeTable(res.Graph, res.Table), encodeTableReference(res.Graph, res.Table); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: EncodeTable differs from the per-entry encoding", label)
	}
	d := EncodeSolution(res)
	d.Cache = cache
	var got bytes.Buffer
	if err := WriteSolution(&got, d); err != nil {
		t.Fatalf("%s: WriteSolution: %v", label, err)
	}
	sameBytes(t, label, got.Bytes(), encoderJSON(t, d))
	checkServed(t, label, res, cache, compactJSON(t, d))
}

// checkServed asserts that AppendSolution, after what the buffer already
// holds, and RenderSolution write want.
func checkServed(t testing.TB, label string, res *core.Result, cache *CacheDoc, want []byte) {
	t.Helper()
	const prefix = "held"
	doc, err := AppendSolution([]byte(prefix), res, cache)
	if err != nil {
		t.Fatalf("%s: AppendSolution: %v", label, err)
	}
	if string(doc[:len(prefix)]) != prefix {
		t.Fatalf("%s: AppendSolution overwrote the buffer's content", label)
	}
	sameBytes(t, label+" (AppendSolution)", doc[len(prefix):], want)
	if err := RenderSolution(res, cache, func(doc []byte) error {
		sameBytes(t, label+" (RenderSolution)", doc, want)
		return nil
	}); err != nil {
		t.Fatalf("%s: RenderSolution: %v", label, err)
	}
}

// testCache is the cache block the oracle tests add, as the server does.
var testCache = &CacheDoc{Hit: true, Hits: 3, Misses: 1, ProblemHash: "0123abcd"}

// hostileNames renames every process and condition of a problem document
// with bytes encoding/json must escape: quotes, backslashes, control bytes,
// invalid UTF-8, U+2028/U+2029 and the HTML-sensitive <>&.
func hostileNames(d *ProblemDoc) *ProblemDoc {
	rename := func(s string) string { return "\"\\\x01\t\n\xff\u2028\u2029<>&" + s }
	c := *d
	c.Processes = append([]ProcDoc(nil), d.Processes...)
	for i := range c.Processes {
		c.Processes[i].Name = rename(c.Processes[i].Name)
	}
	c.Conditions = append([]CondDoc(nil), d.Conditions...)
	for i := range c.Conditions {
		c.Conditions[i].Name = rename(c.Conditions[i].Name)
		c.Conditions[i].Decider = rename(c.Conditions[i].Decider)
	}
	c.Edges = append([]EdgeDoc(nil), d.Edges...)
	for i := range c.Edges {
		e := &c.Edges[i]
		e.From, e.To = rename(e.From), rename(e.To)
		if e.Condition != "" {
			e.Condition = rename(e.Condition)
		}
	}
	return &c
}

// TestWriteSolutionMatchesEncoder is the byte-identity oracle of the
// solution codec: WriteSolution writes exactly what json.Encoder with
// SetIndent("", "  ") writes for EncodeSolution's document, and
// AppendSolution and RenderSolution, which write /v1/schedule's bodies
// straight from the result, exactly what a compact json.Encoder writes for
// it. The corpus is the worked example, with and without the cache block,
// with hostile names and with an empty table; generated 60/80/120-node
// problems of 2-32 paths on three seeds; and grid seed 101's 80-node,
// 10-path problem, whose table has two violations.
func TestWriteSolutionMatchesEncoder(t *testing.T) {
	fig := figure1Result(t)
	checkSolution(t, "figure1", fig, testCache)
	checkSolution(t, "figure1 without a cache block", fig, nil)

	empty := *fig
	empty.Table = table.New(fig.Graph.NumProcs())
	checkSolution(t, "figure1 with an empty table", &empty, testCache)
	if err := RenderSolution(&empty, nil, func(doc []byte) error {
		if !bytes.Contains(doc, []byte(`"columns":null,"entries":null`)) {
			t.Errorf("an empty table's columns and entries are not null: %s", doc)
		}
		return nil
	}); err != nil {
		t.Fatalf("RenderSolution(empty table): %v", err)
	}

	g, a, opts, err := DecodeProblem(hostileNames(EncodeProblem(fig.Graph, fig.Arch, core.Options{})))
	if err != nil {
		t.Fatalf("DecodeProblem(hostile names): %v", err)
	}
	hostile, err := core.Schedule(g, a, opts)
	if err != nil {
		t.Fatalf("Schedule(hostile names): %v", err)
	}
	checkSolution(t, "figure1 with hostile names", hostile, testCache)

	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, nodes := range []int{60, 80, 120} {
			for _, paths := range []int{2, 8, 16, 32} {
				inst, err := gen.Generate(gen.RandomConfig(r, nodes, paths))
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
				if err != nil {
					t.Fatalf("Schedule: %v", err)
				}
				checkSolution(t, fmt.Sprintf("seed %d, %d nodes, %d paths", seed, nodes, paths), res, testCache)
			}
		}
	}

	// The grid's draw order: for seed s, one rand source drawing the cells
	// 60, 80 and 120 nodes by 10, 12, 18, 24 and 32 paths in turn.
	r := rand.New(rand.NewSource(101))
	var cfg gen.Config
	for _, nodes := range []int{60, 80, 120} {
		for _, paths := range []int{10, 12, 18, 24, 32} {
			if c := gen.RandomConfig(r, nodes, paths); nodes == 80 && paths == 10 {
				cfg = c
			}
		}
	}
	inst, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(grid seed 101): %v", err)
	}
	res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
	if err != nil {
		t.Fatalf("Schedule(grid seed 101): %v", err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("grid seed 101, 80 nodes, 10 paths: %d violations, want 2", len(res.Violations))
	}
	checkSolution(t, "grid seed 101, 80 nodes, 10 paths", res, testCache)
}

// TestRenderJSONConcurrent renders documents from several goroutines at
// once, some of which encoding/json rejects: the pooled buffers must never
// be shared between renders, and a failed encoding must not leave a pooled
// encoder unusable.
func TestRenderJSONConcurrent(t *testing.T) {
	type doc struct {
		Worker int       `json:"worker"`
		Values []float64 `json:"values"`
	}
	want := make([][]byte, 4)
	for w := range want {
		want[w] = compactJSON(t, doc{Worker: w, Values: []float64{float64(w), 0.5}})
	}
	var wg sync.WaitGroup
	for w := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					if err := RenderJSON(doc{Worker: w, Values: []float64{math.NaN()}}, func([]byte) error {
						t.Error("emit called for an unencodable value")
						return nil
					}); err == nil {
						t.Error("RenderJSON accepted NaN")
					}
					continue
				}
				if err := RenderJSON(doc{Worker: w, Values: []float64{float64(w), 0.5}}, func(got []byte) error {
					if !bytes.Equal(got, want[w]) {
						t.Errorf("worker %d: rendered %q, want %q", w, got, want[w])
					}
					return nil
				}); err != nil {
					t.Errorf("worker %d: RenderJSON: %v", w, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeTableEmpty pins that a table without entries keeps null columns
// and entries, as the append-built encoding did.
func TestEncodeTableEmpty(t *testing.T) {
	res := figure1Result(t)
	var buf bytes.Buffer
	if err := WriteTableJSON(&buf, res.Graph, table.New(res.Graph.NumProcs())); err != nil {
		t.Fatalf("WriteTableJSON: %v", err)
	}
	if want := "{\n  \"graph\": \"figure1\",\n  \"columns\": null,\n  \"entries\": null\n}\n"; buf.String() != want {
		t.Fatalf("empty table encodes as %q, want %q", buf.String(), want)
	}
}

// TestSolutionCodecAllocs pins the allocations of encoding and writing the
// worked example's solution document.
func TestSolutionCodecAllocs(t *testing.T) {
	ceiling := 60.0
	if raceEnabled {
		// Under the race detector sync.Pool drops a random quarter of the
		// values put back, and each drop costs a fresh set of buffers.
		ceiling = 80
	}
	res := figure1Result(t)
	n := testing.AllocsPerRun(50, func() {
		if err := WriteSolution(io.Discard, EncodeSolution(res)); err != nil {
			t.Fatalf("WriteSolution: %v", err)
		}
	})
	t.Logf("EncodeSolution+WriteSolution(figure1): %.0f allocs", n)
	if n > ceiling {
		t.Errorf("EncodeSolution+WriteSolution(figure1) allocates %.0f times, ceiling %.0f", n, ceiling)
	}
}

// FuzzServedSolutionMatchesStdlib renames every process and condition of
// the worked example, and the problem, with fuzzed prefixes, schedules it,
// and compares the served writer (AppendSolution and RenderSolution) with a
// compact json.Encoder on EncodeSolution's document, whose cache block
// carries the fuzzed process prefix as its problem hash. Run with
// `go test -fuzz FuzzServedSolutionMatchesStdlib ./internal/textio`.
func FuzzServedSolutionMatchesStdlib(f *testing.F) {
	f.Add("", "")
	f.Add("\"\\\x01\t\n\xff\u2028\u2029<>&", "</script>")
	f.Add("\xed\xa0\x80\xc3(", "\x7f\x00")
	f.Add("τ", "Ü&")
	fig := figure1Result(f)
	doc := EncodeProblem(fig.Graph, fig.Arch, core.Options{})
	f.Fuzz(func(t *testing.T, proc, cond string) {
		d := *doc
		d.Name = proc + d.Name
		d.Processes = slices.Clone(doc.Processes)
		for i := range d.Processes {
			d.Processes[i].Name = proc + d.Processes[i].Name
		}
		d.Conditions = slices.Clone(doc.Conditions)
		for i := range d.Conditions {
			d.Conditions[i].Name = cond + d.Conditions[i].Name
			d.Conditions[i].Decider = proc + d.Conditions[i].Decider
		}
		d.Edges = slices.Clone(doc.Edges)
		for i := range d.Edges {
			e := &d.Edges[i]
			e.From, e.To = proc+e.From, proc+e.To
			if e.Condition != "" {
				e.Condition = cond + e.Condition
			}
		}
		g, a, opts, err := DecodeProblem(&d)
		if err != nil {
			return // a name over the limit
		}
		res, err := core.Schedule(g, a, opts)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		cache := &CacheDoc{Misses: 1, ProblemHash: proc}
		sol := EncodeSolution(res)
		sol.Cache = cache
		checkServed(t, "renamed figure1", res, cache, compactJSON(t, sol))
	})
}

// FuzzIndentMatchesStdlib compares the one-pass indenter with json.Indent on
// json.Marshal output, and writeIndented and RenderJSON with the json.Encoder
// renderings they replace. The
// fuzzed JSON text shapes the document; the fuzzed name lands in strings
// and object keys unescaped, the way process and condition names from
// request bodies reach solution documents. Run with
// `go test -fuzz FuzzIndentMatchesStdlib ./internal/textio`.
func FuzzIndentMatchesStdlib(f *testing.F) {
	f.Add([]byte(`{"a":"q\"uote","b\\":[1,{}],"c":[]}`), `x"y\z\\"`)
	f.Add([]byte(`"\u0000\u001f\t\n"`), "\x00\x01\x1f\x7f\r\n")
	f.Add([]byte("\"\xff\xfe\""), "\xff\xfe\xc3(\xed\xa0\x80")
	f.Add([]byte(`"\u2028\u2029"`), "\u2028\u2029")
	f.Add([]byte(`{"<a>":"&amp;"}`), "</script><>&")
	f.Add([]byte(`{"a":{},"b":[],"c":null,"d":[[],[{}]],"e":{"f":{"g":{}}}}`), "")
	f.Add([]byte(`[[[[]]],{"x":{"y":{}}},-1.5e-7,true,false]`), `{}[]:,"`)
	f.Fuzz(func(t *testing.T, text []byte, name string) {
		var shape any
		if json.Unmarshal(text, &shape) != nil {
			shape = string(text)
		}
		v := map[string]any{
			"shape":  shape,
			"name":   name,
			"names":  []string{name, name + name},
			"empty":  []int{},
			"nil":    []int(nil),
			"nested": map[string]any{name: map[string]any{}, "list": []any{[]any{}, map[string]any{}, name}},
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatalf("json.Indent: %v", err)
		}
		sameBytes(t, "appendIndent", appendIndent(nil, compact), want.Bytes())
		var indented bytes.Buffer
		if err := writeIndented(&indented, v); err != nil {
			t.Fatalf("writeIndented: %v", err)
		}
		sameBytes(t, "writeIndented", indented.Bytes(), encoderJSON(t, v))
		if err := RenderJSON(v, func(doc []byte) error {
			sameBytes(t, "RenderJSON", doc, compactJSON(t, v))
			return nil
		}); err != nil {
			t.Fatalf("RenderJSON: %v", err)
		}
	})
}
