package textio

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/memo"
)

// stdlibProblem is ReadProblem without the byte parser: readStrict, then
// the version check.
func stdlibProblem(data []byte) (*ProblemDoc, error) {
	d := new(ProblemDoc)
	if err := readStrict(bytes.NewReader(data), d); err != nil {
		return nil, err
	}
	if err := checkVersion(d); err != nil {
		return nil, err
	}
	return d, nil
}

// stdlibHash is the problem hash taken by encoding/json: memo.HashJSON of a
// copy of d with the workers cleared and, for the shape hash, every
// execution time too.
func stdlibHash(t testing.TB, d *ProblemDoc, shape bool) string {
	t.Helper()
	c := *d
	if c.Options != nil {
		o := *c.Options
		o.Workers = 0
		c.Options = &o
	}
	if shape {
		c.Processes = slices.Clone(c.Processes)
		for i := range c.Processes {
			c.Processes[i].Exec = 0
		}
	}
	h, err := memo.HashJSON(&c)
	if err != nil {
		t.Fatalf("memo.HashJSON: %v", err)
	}
	return h
}

// checkReadProblem checks that ReadProblem returns what stdlibProblem
// returns on data, the same document (nil and empty slices alike) or the
// same error text, and that the document's problem and shape hashes are
// stdlibHash's. It returns ReadProblem's result.
func checkReadProblem(t testing.TB, data []byte) (*ProblemDoc, error) {
	t.Helper()
	got, err := ReadProblem(bytes.NewReader(data))
	want, wantErr := stdlibProblem(data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ReadProblem(%.80q) fails with %v, encoding/json with %v", data, err, wantErr)
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadProblem(%.80q) = %+v, encoding/json decodes %+v", data, got, want)
	}
	for _, shape := range []bool{false, true} {
		hash := ProblemHash
		if shape {
			hash = ProblemShapeHash
		}
		h, err := hash(got)
		if err != nil {
			t.Fatalf("hashing (shape %v): %v", shape, err)
		}
		if want := stdlibHash(t, got, shape); h != want {
			t.Fatalf("hash of %.80q (shape %v) = %s, memo.HashJSON gives %s", data, shape, h, want)
		}
	}
	return got, nil
}

// gridDocs returns the documents of the grid's problems of one seed: one
// rand source draws the cells 60, 80 and 120 nodes by 10, 12, 18, 24 and
// 32 paths in turn.
func gridDocs(t testing.TB, seed int64) []*ProblemDoc {
	t.Helper()
	var docs []*ProblemDoc
	r := rand.New(rand.NewSource(seed))
	for _, n := range []int{60, 80, 120} {
		for _, p := range []int{10, 12, 18, 24, 32} {
			inst, err := gen.Generate(gen.RandomConfig(r, n, p))
			if err != nil {
				t.Fatalf("Generate(seed %d, %d nodes, %d paths): %v", seed, n, p, err)
			}
			docs = append(docs, EncodeProblem(inst.Graph, inst.Arch, core.Options{}))
		}
	}
	return docs
}

// indented is d as WriteProblem writes it.
func indented(t testing.TB, d *ProblemDoc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProblem(&buf, d); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	return buf.Bytes()
}

// TestPlainTraffic checks that the documents the benchmark and the tools
// send take the byte parser, and decode and hash as under encoding/json:
// Figure 1, and every grid problem (seeds 1 to 200) as perfbench writes it
// (EncodeProblem, then WriteProblem) and as json.Marshal writes it.
func TestPlainTraffic(t *testing.T) {
	seeds := int64(200)
	if raceEnabled || testing.Short() {
		seeds = 4
	}
	check := func(body []byte) {
		t.Helper()
		if parsePlain(body) == nil {
			t.Fatalf("%.80q does not take the byte parser", body)
		}
		checkReadProblem(t, body)
	}
	golden, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	check(golden)
	for s := int64(1); s <= seeds; s++ {
		for _, d := range gridDocs(t, s) {
			compact, err := json.Marshal(d)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			check(indented(t, d))
			check(compact)
		}
	}
}

// TestReadProblemQuirks runs encoding/json's quirks through ReadProblem:
// the byte parser declines each body, and each decodes, or fails, as under
// encoding/json alone.
func TestReadProblemQuirks(t *testing.T) {
	const lists = `"processingElements":[],"processes":[],"edges":[]`
	empty := ProblemDoc{Version: "v1", Elements: []PEDoc{}, Processes: []ProcDoc{}, Edges: []EdgeDoc{}}
	with := func(edit func(*ProblemDoc)) *ProblemDoc {
		d := empty
		edit(&d)
		return &d
	}
	cases := []struct {
		name, body string
		want       *ProblemDoc
		wantErr    string
	}{
		{
			name: "case-folded keys",
			body: `{"Version":"v1","nAmE":"x",` + lists + `}`,
			want: with(func(d *ProblemDoc) { d.Name = "x" }),
		},
		{
			name: "a repeated options object merges",
			body: `{"version":"v1",` + lists + `,"options":{"selection":"first","maxPaths":3},"options":{"priority":"order"}}`,
			want: with(func(d *ProblemDoc) { d.Options = &OptionsDoc{Selection: "first", Priority: "order", MaxPaths: 3} }),
		},
		{
			name: "null is a no-op",
			body: `{"version":"v1","name":"x","name":null,"condTime":null,` + lists + `,"options":{"workers":null}}`,
			want: with(func(d *ProblemDoc) { d.Name = "x"; d.Options = &OptionsDoc{} }),
		},
		{
			name: "invalid UTF-8 becomes U+FFFD",
			body: "{\"version\":\"v1\",\"name\":\"a\xffb\"," + lists + "}",
			want: with(func(d *ProblemDoc) { d.Name = "a\ufffdb" }),
		},
		{
			name:    "1.0 in an int field",
			body:    `{"version":"v1","condTime":1.0,` + lists + `}`,
			wantErr: "cannot unmarshal number 1.0 into Go struct field ProblemDoc.condTime of type int64",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if parsePlain([]byte(tc.body)) != nil {
				t.Fatalf("the byte parser accepted %q", tc.body)
			}
			got, err := checkReadProblem(t, []byte(tc.body))
			switch {
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("ReadProblem: %v", err)
			case !reflect.DeepEqual(got, tc.want):
				t.Fatalf("decoded %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestReadProblemCopiesStrings reads Figure 1, then the same document with
// every process renamed through the same pooled buffer: the first document
// must keep its names, so none of its strings aliases the buffer.
func TestReadProblemCopiesStrings(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	first, err := ReadProblem(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if _, err := ReadProblem(bytes.NewReader(bytes.ReplaceAll(golden, []byte(`"P`), []byte(`"Q`)))); err != nil {
		t.Fatalf("ReadProblem(renamed): %v", err)
	}
	want, err := stdlibProblem(golden)
	if err != nil {
		t.Fatalf("readStrict: %v", err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("reading a second document changed the first")
	}
}

// TestPlainKeysAreTheTags checks the byte parser's keys against the json
// tags of the document types, field by field.
func TestPlainKeysAreTheTags(t *testing.T) {
	for _, tc := range []struct {
		doc  any
		keys []string
	}{
		{ProblemDoc{}, problemKeys}, {PEDoc{}, peKeys}, {CondDoc{}, condKeys},
		{ProcDoc{}, procKeys}, {EdgeDoc{}, edgeKeys}, {OptionsDoc{}, optionsKeys},
	} {
		typ := reflect.TypeOf(tc.doc)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !slices.Equal(tags, tc.keys) {
			t.Errorf("%s: the parser's keys are %q, the tags %q", typ.Name(), tc.keys, tags)
		}
	}
}

// TestProblemHashUnencodableSpeed checks that a speed encoding/json refuses
// fails the hash, as it fails memo.HashJSON.
func TestProblemHashUnencodableSpeed(t *testing.T) {
	for _, speed := range []float64{math.NaN(), math.Inf(1)} {
		d := &ProblemDoc{Version: ProblemVersion, Elements: []PEDoc{{Name: "cpu", Kind: "processor", Speed: speed}}}
		if _, err := memo.HashJSON(d); err == nil {
			t.Fatalf("memo.HashJSON accepted speed %v", speed)
		}
		if h, err := ProblemHash(d); err == nil {
			t.Fatalf("ProblemHash accepted speed %v: %s", speed, h)
		}
	}
}

// FuzzReadProblemMatchesStdlib checks that for any bytes ReadProblem returns
// what readStrict and the version check return, and that both problem
// hashes of what it returns are memo.HashJSON's (checkReadProblem). Run
// with `go test -fuzz FuzzReadProblemMatchesStdlib ./internal/textio`.
func FuzzReadProblemMatchesStdlib(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		f.Fatalf("reading golden: %v", err)
	}
	doc, err := stdlibProblem(golden)
	if err != nil {
		f.Fatalf("reading golden: %v", err)
	}
	doc.Options.Strategy, doc.Options.TabuIterations, doc.Options.Workers = "tabu", -3, 2
	compact, err := json.Marshal(doc)
	if err != nil {
		f.Fatalf("Marshal: %v", err)
	}
	f.Add(golden)
	f.Add(compact)
	f.Add([]byte(`{"version":"v1","processingElements":[{"name":"cpu","kind":"processor","speed":-1.25}],"conditions":[],"options":{}}`))
	f.Add([]byte(`{"version":"v1","condTime":-0,"processes":[{"name":"A","exec":999999999999999999}],"edges":[{"from":"A","to":"A","condition":"c","value":false}]}`))
	f.Add([]byte(`{"Version":"v1","options":{"selection":"first"},"options":{"workers":null}}`))
	f.Add([]byte("{\"version\":\"v1\",\"name\":\"\\u00e9<&>\xff\"}"))
	f.Add([]byte(`{"version":"v1","condTime":1.0}`))
	f.Add([]byte(`{"version":"v1"} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadProblem(t, data)
	})
}
