package textio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/gen"
)

// problem builds a small cross-processor conditional problem.
func problem(t *testing.T) (*cpg.Graph, *arch.Architecture) {
	t.Helper()
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	pe2 := a.AddProcessor("pe2", 1.5)
	a.AddHardware("hw")
	bus := a.AddBus("bus", true)
	a.AddMemory("mem")
	a.SetCondTime(2)

	g := cpg.New("roundtrip")
	d := g.AddProcess("D", 3, pe1)
	x := g.AddProcess("X", 4, pe2)
	y := g.AddProcess("Y", 5, pe1)
	j := g.AddProcess("J", 1, pe1)
	c := g.AddCondition("C", d)
	g.AddCondEdge(d, x, c, true)
	g.AddCondEdge(d, y, c, false)
	g.AddEdge(x, j)
	g.AddEdge(y, j)
	if _, err := cpg.InsertComms(g, a, cpg.UniformComms(3, bus)); err != nil {
		t.Fatalf("InsertComms: %v", err)
	}
	if err := g.Finalize(a); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g, a
}

// readGraph reads and decodes a problem document, dropping its options.
func readGraph(r io.Reader) (*cpg.Graph, *arch.Architecture, error) {
	doc, err := ReadProblem(r)
	if err != nil {
		return nil, nil, err
	}
	g, a, _, err := DecodeProblem(doc)
	return g, a, err
}

func TestJSONRoundTrip(t *testing.T) {
	g, a := problem(t)
	var buf bytes.Buffer
	if err := WriteProblem(&buf, EncodeProblem(g, a, core.Options{})); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	g2, a2, err := readGraph(&buf)
	if err != nil {
		t.Fatalf("readGraph: %v", err)
	}
	if g2.Name() != g.Name() {
		t.Fatalf("name lost: %q vs %q", g2.Name(), g.Name())
	}
	if a2.CondTime != a.CondTime || a2.NumPEs() != a.NumPEs() {
		t.Fatalf("architecture not preserved")
	}
	if g2.NumOrdinary() != g.NumOrdinary() || g2.NumConds() != g.NumConds() {
		t.Fatalf("graph sizes not preserved: %d/%d vs %d/%d",
			g2.NumOrdinary(), g2.NumConds(), g.NumOrdinary(), g.NumConds())
	}
	// Comm processes are preserved explicitly.
	count := func(gr *cpg.Graph) int {
		n := 0
		for _, p := range gr.Procs() {
			if p.Kind == cpg.KindComm {
				n++
			}
		}
		return n
	}
	if count(g2) != count(g) {
		t.Fatalf("communication processes not preserved")
	}
	// Alternative paths identical.
	p1, err := g.AlternativePaths(0)
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	p2, err := g2.AlternativePaths(0)
	if err != nil {
		t.Fatalf("paths after round trip: %v", err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("path count changed: %d vs %d", len(p1), len(p2))
	}
	// Processor speed preserved.
	id, ok := a2.FindByName("pe2")
	if !ok || a2.PE(id).Speed != 1.5 {
		t.Fatalf("processor speed lost")
	}
}

func TestRoundTripGeneratedInstance(t *testing.T) {
	inst, err := gen.Generate(gen.Config{Seed: 7, Nodes: 60, TargetPaths: 12, Processors: 3, Hardware: 1, Buses: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteProblem(&buf, EncodeProblem(inst.Graph, inst.Arch, core.Options{})); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	g2, _, err := readGraph(&buf)
	if err != nil {
		t.Fatalf("readGraph: %v", err)
	}
	paths, err := g2.AlternativePaths(0)
	if err != nil {
		t.Fatalf("paths: %v", err)
	}
	if len(paths) != 12 {
		t.Fatalf("round-tripped generated graph has %d paths, want 12", len(paths))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":          `{"version":"v1","name": `,
		"unknown field":     `{"version":"v1","name":"x","bogus":1,"processingElements":[],"processes":[],"edges":[]}`,
		"unknown pe kind":   `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"a","kind":"gpu"}],"processes":[],"edges":[]}`,
		"unknown mapping":   `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","exec":1,"pe":"zzz"}],"edges":[]}`,
		"duplicate process": `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","exec":1,"pe":"p"},{"name":"A","exec":2,"pe":"p"}],"edges":[]}`,
		"dummy process":     `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","kind":"source","pe":"p"}],"edges":[]}`,
		"unknown edge from": `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","exec":1,"pe":"p"}],"edges":[{"from":"Z","to":"A"}]}`,
		"unknown edge to":   `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","exec":1,"pe":"p"}],"edges":[{"from":"A","to":"Z"}]}`,
		"unknown condition": `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","exec":1,"pe":"p"},{"name":"B","exec":1,"pe":"p"}],"edges":[{"from":"A","to":"B","condition":"C","value":true}]}`,
		"unknown decider":   `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"conditions":[{"name":"C","decider":"Z"}],"processes":[{"name":"A","exec":1,"pe":"p"}],"edges":[]}`,
		"bad process kind":  `{"version":"v1","name":"x","condTime":1,"processingElements":[{"name":"p","kind":"processor"}],"processes":[{"name":"A","kind":"weird","exec":1,"pe":"p"}],"edges":[]}`,
	}
	for name, doc := range cases {
		if _, _, err := readGraph(strings.NewReader(doc)); err == nil {
			t.Fatalf("case %q: expected an error", name)
		}
	}
}

func TestDOT(t *testing.T) {
	g, a := problem(t)
	out := DOT(g, a)
	for _, want := range []string{"digraph", "diamond", "doublecircle", `label="C"`, `label="!C"`, "box", "->"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestDecodeNameLimit decodes a document whose every declared name kind is
// in turn exactly MaxNameBytes long, which is accepted, and one byte
// longer, which is rejected with a NameTooLongError naming the kind.
func TestDecodeNameLimit(t *testing.T) {
	for _, kind := range []string{"problem", "processing element", "process", "condition"} {
		for _, n := range []int{MaxNameBytes, MaxNameBytes + 1} {
			g, a := problem(t)
			doc := EncodeProblem(g, a, core.Options{})
			long := strings.Repeat("n", n)
			switch kind {
			case "problem":
				doc.Name = long
			case "processing element":
				for i := range doc.Processes {
					if doc.Processes[i].PE == doc.Elements[0].Name {
						doc.Processes[i].PE = long
					}
				}
				doc.Elements[0].Name = long
			case "process":
				old := doc.Processes[0].Name
				doc.Processes[0].Name = long
				for i := range doc.Edges {
					if doc.Edges[i].From == old {
						doc.Edges[i].From = long
					}
					if doc.Edges[i].To == old {
						doc.Edges[i].To = long
					}
				}
				for i := range doc.Conditions {
					if doc.Conditions[i].Decider == old {
						doc.Conditions[i].Decider = long
					}
				}
			case "condition":
				old := doc.Conditions[0].Name
				doc.Conditions[0].Name = long
				for i := range doc.Edges {
					if doc.Edges[i].Condition == old {
						doc.Edges[i].Condition = long
					}
				}
			}
			_, _, _, err := DecodeProblem(doc)
			if n == MaxNameBytes {
				if err != nil {
					t.Errorf("%s name of %d bytes: %v", kind, n, err)
				}
				continue
			}
			var tooLong *NameTooLongError
			if !errors.As(err, &tooLong) || tooLong.Kind != kind || tooLong.Len != n {
				t.Errorf("%s name of %d bytes: got %v, want a NameTooLongError for the %s", kind, n, err, kind)
			}
		}
	}
}
