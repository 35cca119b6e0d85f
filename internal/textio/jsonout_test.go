package textio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/gen"
	"repro/internal/table"
)

// encoderJSON is the rendering RenderJSON replaces: a json.Encoder with
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
// block the server adds, is written byte-identically to encoding/json's
// indented rendering, and that its table matches the reference encoding.
func checkSolution(t *testing.T, label string, res *core.Result) {
	t.Helper()
	if got, want := EncodeTable(res.Graph, res.Table), encodeTableReference(res.Graph, res.Table); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: EncodeTable differs from the per-entry encoding", label)
	}
	d := EncodeSolution(res)
	d.Cache = &CacheDoc{Hit: true, Hits: 3, Misses: 1, ProblemHash: "0123abcd"}
	var got bytes.Buffer
	if err := WriteSolution(&got, d); err != nil {
		t.Fatalf("%s: WriteSolution: %v", label, err)
	}
	sameBytes(t, label, got.Bytes(), encoderJSON(t, d))
}

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
// solution codec: over the worked example, the worked example with hostile
// names, and generated 60/80/120-node problems of 2-32 paths on three seeds,
// WriteSolution writes exactly what json.Encoder with SetIndent("", "  ")
// writes for the same document.
func TestWriteSolutionMatchesEncoder(t *testing.T) {
	fig := figure1Result(t)
	checkSolution(t, "figure1", fig)

	g, a, opts, err := DecodeProblem(hostileNames(EncodeProblem(fig.Graph, fig.Arch, core.Options{})))
	if err != nil {
		t.Fatalf("DecodeProblem(hostile names): %v", err)
	}
	hostile, err := core.Schedule(g, a, opts)
	if err != nil {
		t.Fatalf("Schedule(hostile names): %v", err)
	}
	checkSolution(t, "figure1 with hostile names", hostile)

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
				checkSolution(t, fmt.Sprintf("seed %d, %d nodes, %d paths", seed, nodes, paths), res)
			}
		}
	}
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
		want[w] = encoderJSON(t, doc{Worker: w, Values: []float64{float64(w), 0.5}})
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

// FuzzIndentMatchesStdlib compares the one-pass indenter with json.Indent on
// json.Marshal output, and RenderJSON with the json.Encoder it replaces. The
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
		if err := RenderJSON(v, func(doc []byte) error {
			sameBytes(t, "RenderJSON", doc, encoderJSON(t, v))
			return nil
		}); err != nil {
			t.Fatalf("RenderJSON: %v", err)
		}
	})
}
