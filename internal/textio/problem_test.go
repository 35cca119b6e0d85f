package textio

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/listsched"
)

// TestProblemGoldenFigure1 pins the v1 document of the paper's worked
// example: the checked-in golden must decode, and re-encoding the decoded
// model must reproduce it byte for byte (lossless round-trip). Regenerate
// with `go run ./scripts/gengolden` after intentional format changes.
func TestProblemGoldenFigure1(t *testing.T) {
	data, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	doc, err := ReadProblem(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	g, a, opts, err := DecodeProblem(doc)
	if err != nil {
		t.Fatalf("DecodeProblem: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteProblem(&buf, EncodeProblem(g, a, opts)); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("golden round-trip not lossless; regenerate with go run ./scripts/gengolden if intentional")
	}
	if g.Name() != "figure1" || g.NumOrdinary() != 17 || g.NumConds() != 3 {
		t.Fatalf("decoded model unexpected: %s, %d procs, %d conds", g.Name(), g.NumOrdinary(), g.NumConds())
	}
}

// TestProblemRoundTripRandom is the round-trip property on generated
// instances: encode → marshal → strict read → decode → encode must be a
// fixed point, and the decoded model must schedule to the same delays.
func TestProblemRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 5; seed++ {
		cfg := gen.RandomConfig(r, 30, 6)
		cfg.Seed = seed
		inst, err := gen.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(seed=%d): %v", seed, err)
		}
		opts := core.Options{
			PathSelection:  core.PathSelection(seed % 3),
			PathPriority:   listsched.Priority(seed % 2),
			ConflictPolicy: core.ConflictPolicy(seed % 2),
			Strategy:       []string{"", "critical-path", "tabu"}[seed%3],
			MaxPaths:       int(seed),
		}
		if opts.Strategy == "tabu" {
			// seed 2 exercises the negative "loop disabled" value, which
			// must survive the round-trip like any other bound.
			opts.StrategyParams = listsched.StrategyParams{TabuIterations: int(seed)*3 - 10, TabuNeighbors: int(seed)}
		}
		doc := EncodeProblem(inst.Graph, inst.Arch, opts)
		var buf bytes.Buffer
		if err := WriteProblem(&buf, doc); err != nil {
			t.Fatalf("WriteProblem: %v", err)
		}
		doc2, err := ReadProblem(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadProblem(seed=%d): %v", seed, err)
		}
		if !reflect.DeepEqual(doc, doc2) {
			t.Fatalf("seed %d: document changed across marshal/unmarshal", seed)
		}
		g, a, opts2, err := DecodeProblem(doc2)
		if err != nil {
			t.Fatalf("DecodeProblem(seed=%d): %v", seed, err)
		}
		if opts2 != opts {
			t.Fatalf("seed %d: options not lossless: %+v vs %+v", seed, opts2, opts)
		}
		doc3 := EncodeProblem(g, a, opts2)
		if !reflect.DeepEqual(doc, doc3) {
			t.Fatalf("seed %d: encode(decode(doc)) != doc", seed)
		}
		if seed <= 2 {
			want, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
			if err != nil {
				t.Fatalf("Schedule(original): %v", err)
			}
			got, err := core.Schedule(g, a, core.Options{})
			if err != nil {
				t.Fatalf("Schedule(decoded): %v", err)
			}
			if got.DeltaM != want.DeltaM || got.DeltaMax != want.DeltaMax {
				t.Fatalf("seed %d: decoded model schedules differently: δM %d vs %d, δmax %d vs %d",
					seed, got.DeltaM, want.DeltaM, got.DeltaMax, want.DeltaMax)
			}
		}
	}
}

// problemJSON builds a malformed v1 document from the golden by applying a
// textual substitution.
func problemJSON(t *testing.T, replace func(string) string) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	return replace(string(data))
}

func TestProblemDecodeErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{
			name:    "bad version",
			mutate:  func(s string) string { return strings.Replace(s, `"version": "v1"`, `"version": "v7"`, 1) },
			wantErr: "unsupported problem version",
		},
		{
			name:    "missing version",
			mutate:  func(s string) string { return strings.Replace(s, `"version": "v1",`, ``, 1) },
			wantErr: "unsupported problem version",
		},
		{
			name:    "unknown field",
			mutate:  func(s string) string { return strings.Replace(s, `"version": "v1"`, `"version": "v1", "bogus": 1`, 1) },
			wantErr: "unknown field",
		},
		{
			name:    "dangling processor ref",
			mutate:  func(s string) string { return strings.ReplaceAll(s, `"pe": "pe3"`, `"pe": "pe9"`) },
			wantErr: "unknown processing element",
		},
		{
			name:    "dangling condition ref",
			mutate:  func(s string) string { return strings.ReplaceAll(s, `"condition": "K"`, `"condition": "Q"`) },
			wantErr: "unknown condition",
		},
		{
			name:    "dangling condition decider",
			mutate:  func(s string) string { return strings.Replace(s, `"decider": "P12"`, `"decider": "P99"`, 1) },
			wantErr: "unknown process",
		},
		{
			name: "duplicate process",
			mutate: func(s string) string {
				return strings.Replace(s, `"name": "P1",`, `"name": "P2",`, 1)
			},
			wantErr: "duplicate process",
		},
		{
			name: "cyclic graph",
			mutate: func(s string) string {
				return strings.Replace(s, `    {
      "from": "P16_17",
      "to": "P17"
    }
  ],`, `    {
      "from": "P16_17",
      "to": "P17"
    },
    {
      "from": "P17",
      "to": "P1"
    }
  ],`, 1)
			},
			wantErr: "cycle",
		},
		{
			name: "bad selection",
			mutate: func(s string) string {
				return strings.Replace(s, `"selection": "largest-delay"`, `"selection": "weird"`, 1)
			},
			wantErr: "unknown path selection",
		},
		{
			name: "workers option",
			mutate: func(s string) string {
				return strings.Replace(s, `"selection": "largest-delay"`, `"selection": "largest-delay", "workers": 2`, 1)
			},
			wantErr: `unknown field "workers"`,
		},
		{
			name: "unknown strategy",
			mutate: func(s string) string {
				return strings.Replace(s, `"selection": "largest-delay"`, `"selection": "largest-delay", "strategy": "branch-and-bound"`, 1)
			},
			wantErr: "unknown scheduling strategy",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := problemJSON(t, tc.mutate)
			doc, err := ReadProblem(strings.NewReader(mutated))
			if err == nil {
				_, _, _, err = DecodeProblem(doc)
			}
			if err == nil {
				t.Fatalf("mutation %q must be rejected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestProblemHashOptionSensitive checks that every result-shaping option is
// part of the problem hash: path selection, priority, strategy and the tabu
// bounds each change it.
func TestProblemHashOptionSensitive(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	h0, err := ProblemHash(EncodeProblem(g, a, core.Options{}))
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	hSel, err := ProblemHash(EncodeProblem(g, a, core.Options{PathSelection: core.SelectFirst}))
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	if hSel == h0 {
		t.Fatalf("path selection must change the problem hash")
	}
	hPrio, err := ProblemHash(EncodeProblem(g, a, core.Options{PathPriority: listsched.PriorityFixedOrder}))
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	if hPrio == h0 {
		t.Fatalf("path priority must change the problem hash (order vs cp)")
	}
	hStrat, err := ProblemHash(EncodeProblem(g, a, core.Options{Strategy: "tabu"}))
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	if hStrat == h0 {
		t.Fatalf("scheduling strategy must change the problem hash")
	}
	hTabu, err := ProblemHash(EncodeProblem(g, a, core.Options{Strategy: "tabu",
		StrategyParams: listsched.StrategyParams{TabuIterations: 64}}))
	if err != nil {
		t.Fatalf("ProblemHash: %v", err)
	}
	if hTabu == hStrat {
		t.Fatalf("tabu bounds must change the problem hash")
	}
}

func TestParseStrategy(t *testing.T) {
	if name, err := ParseStrategy(""); err != nil || name != "" {
		t.Fatalf(`ParseStrategy("") = %q, %v; want "" (the default scheduler)`, name, err)
	}
	for _, name := range listsched.StrategyNames() {
		got, err := ParseStrategy(name)
		if err != nil || got != name {
			t.Fatalf("ParseStrategy(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("branch-and-bound"); err == nil || !strings.Contains(err.Error(), "unknown scheduling strategy") {
		t.Fatalf("unknown name must be rejected with the known list; got %v", err)
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	for _, sel := range []core.PathSelection{core.SelectLargestDelay, core.SelectSmallestDelay, core.SelectFirst} {
		for _, prio := range []listsched.Priority{listsched.PriorityCriticalPath, listsched.PriorityFixedOrder} {
			for _, conf := range []core.ConflictPolicy{core.ConflictMoveToExisting, core.ConflictDelayToLatest} {
				in := core.Options{PathSelection: sel, PathPriority: prio, ConflictPolicy: conf, MaxPaths: 3}
				out, err := DecodeOptions(EncodeOptions(in))
				if err != nil {
					t.Fatalf("DecodeOptions(%+v): %v", in, err)
				}
				if out != in {
					t.Fatalf("options round trip: %+v != %+v", out, in)
				}
			}
		}
	}
	// nil and empty documents select the defaults.
	if opts, err := DecodeOptions(nil); err != nil || opts != (core.Options{}) {
		t.Fatalf("DecodeOptions(nil) = %+v, %v", opts, err)
	}
	if opts, err := DecodeOptions(&OptionsDoc{}); err != nil || opts != (core.Options{}) {
		t.Fatalf("DecodeOptions(empty) = %+v, %v", opts, err)
	}
}

func TestParseConds(t *testing.T) {
	g, _, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	cube, err := ParseConds(g, "C=1, D=0")
	if err != nil {
		t.Fatalf("ParseConds: %v", err)
	}
	if got := cube.Format(g.CondName); got != "C&!D" {
		t.Fatalf("cube = %q, want C&!D", got)
	}
	for _, bad := range []string{"Z=1", "C", "C=maybe", "C=1,C=0"} {
		if _, err := ParseConds(g, bad); err == nil {
			t.Fatalf("ParseConds(%q) must fail", bad)
		}
	}
}

// TestSolutionDocTableText pins the acceptance property of the serving
// format: the rendered table inside the solution document is byte-identical
// to the in-process rendering of the same result.
func TestSolutionDocTableText(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	res, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	doc := EncodeSolution(res)
	var buf bytes.Buffer
	if err := WriteSolution(&buf, doc); err != nil {
		t.Fatalf("WriteSolution: %v", err)
	}
	var back SolutionDoc
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.TableText != doc.TableText || back.DeltaM != res.DeltaM || back.DeltaMax != res.DeltaMax {
		t.Fatalf("solution document not faithful")
	}
	if len(back.Paths) != len(res.Paths) || !back.Deterministic {
		t.Fatalf("solution paths/determinism unexpected")
	}
}

func TestReadProblemRejectsTrailingData(t *testing.T) {
	data, err := os.ReadFile("../../testdata/figure1_v1.json")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	for _, trailing := range []string{`{"bogus": 1}`, "garbage", "null"} {
		if _, err := ReadProblem(bytes.NewReader(append(append([]byte{}, data...), trailing...))); err == nil {
			t.Fatalf("trailing %q must be rejected", trailing)
		}
	}
}
