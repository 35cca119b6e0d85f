package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/textio"
)

// writeProblem writes a small generated v1 problem document with the given
// embedded options for the command tests.
func writeProblem(t *testing.T, opts core.Options) string {
	t.Helper()
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 30, TargetPaths: 4, Processors: 2, Hardware: 1, Buses: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	path := filepath.Join(t.TempDir(), "problem.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if err := textio.WriteProblem(f, textio.EncodeProblem(inst.Graph, inst.Arch, opts)); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	return path
}

func TestScheduleCommand(t *testing.T) {
	path := writeProblem(t, core.Options{})
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-gantt"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"deltaM", "deltaMax", "deterministic = true", "schedule table:", "optimal path schedules:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestScheduleCommandOptionsAndDot(t *testing.T) {
	path := writeProblem(t, core.Options{})
	dir := t.TempDir()
	dot := filepath.Join(dir, "g.dot")
	csv := filepath.Join(dir, "t.csv")
	tblJSON := filepath.Join(dir, "t.json")
	var out bytes.Buffer
	err := run([]string{"-in", path, "-selection", "smallest", "-priority", "order", "-conflicts", "delay",
		"-quiet", "-dot", dot, "-csv", csv, "-table-json", tblJSON}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "schedule table:") {
		t.Fatalf("-quiet must suppress the table")
	}
	if data, err := os.ReadFile(dot); err != nil || !strings.Contains(string(data), "digraph") {
		t.Fatalf("DOT file not written: %v", err)
	}
	if data, err := os.ReadFile(csv); err != nil || !strings.HasPrefix(string(data), "process,") {
		t.Fatalf("CSV file not written: %v", err)
	}
	if data, err := os.ReadFile(tblJSON); err != nil || !strings.Contains(string(data), "\"entries\"") {
		t.Fatalf("table JSON not written: %v", err)
	}
}

func TestScheduleCommandDispatch(t *testing.T) {
	path := writeProblem(t, core.Options{})
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-dispatch"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "local scheduler on") {
		t.Fatalf("dispatch tables missing:\n%s", out.String())
	}
}

func TestScheduleCommandErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-in", "/does/not/exist.json"}, &out); err == nil {
		t.Fatalf("missing input file must fail")
	}
	path := writeProblem(t, core.Options{})
	if err := run([]string{"-in", path, "-selection", "weird"}, &out); err == nil {
		t.Fatalf("unknown selection must fail")
	}
	if err := run([]string{"-in", path, "-priority", "weird"}, &out); err == nil {
		t.Fatalf("unknown priority must fail")
	}
	if err := run([]string{"-in", path, "-conflicts", "weird"}, &out); err == nil {
		t.Fatalf("unknown conflict policy must fail")
	}
	if err := run([]string{"-in", path, "-strategy", "weird"}, &out); err == nil || !strings.Contains(err.Error(), "unknown scheduling strategy") {
		t.Fatalf("unknown strategy must fail with the known list; got %v", err)
	}
	// The pre-v1 format had no "version" member.
	legacy := filepath.Join(t.TempDir(), "pre-v1.json")
	doc := `{"name":"pre-v1","condTime":1,"processingElements":[{"name":"cpu","kind":"processor"}],"processes":[{"name":"A","exec":2,"pe":"cpu"}],"edges":[]}`
	if err := os.WriteFile(legacy, []byte(doc), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := run([]string{"-in", legacy}, &out); err == nil || !strings.Contains(err.Error(), "unsupported problem version") {
		t.Fatalf("a document without a version must fail with the unsupported-version error; got %v", err)
	}
}

// TestScheduleCommandStrategyFlag pins the -strategy end of the strategy
// subsystem: every strategy schedules the problem to a deterministic table,
// and the tabu bounds are adjustable via -tabu-iters.
func TestScheduleCommandStrategyFlag(t *testing.T) {
	path := writeProblem(t, core.Options{})
	for _, strategy := range []string{"critical-path", "tabu"} {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-strategy", strategy, "-quiet"}, &out); err != nil {
			t.Fatalf("run(-strategy %s): %v", strategy, err)
		}
		if !strings.Contains(out.String(), "deterministic = true") {
			t.Fatalf("-strategy %s output unexpected:\n%s", strategy, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-strategy", "tabu", "-tabu-iters", "2", "-quiet"}, &out); err != nil {
		t.Fatalf("run(-tabu-iters): %v", err)
	}
	if !strings.Contains(out.String(), "deterministic = true") {
		t.Fatalf("-tabu-iters output unexpected:\n%s", out.String())
	}
}

func TestScheduleCommandV1DocumentOptions(t *testing.T) {
	path := writeProblem(t, core.Options{PathSelection: core.SelectSmallestDelay})
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "deterministic = true") {
		t.Fatalf("schedule output unexpected:\n%s", out.String())
	}
	// Flags override the document options; a bad override is rejected.
	if err := run([]string{"-in", path, "-selection", "weird"}, &out); err == nil {
		t.Fatalf("bad -selection override must fail")
	}
}

func TestScheduleCommandSolutionOutput(t *testing.T) {
	path := writeProblem(t, core.Options{PathSelection: core.SelectSmallestDelay})
	sol := filepath.Join(t.TempDir(), "solution.json")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-quiet", "-solution", sol}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(sol)
	if err != nil {
		t.Fatalf("solution file: %v", err)
	}
	var doc textio.SolutionDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("solution not valid JSON: %v", err)
	}
	if doc.Version != textio.ProblemVersion || doc.TableText == "" || doc.DeltaMax < doc.DeltaM {
		t.Fatalf("solution document unexpected: version %q, δ %d/%d", doc.Version, doc.DeltaM, doc.DeltaMax)
	}
}
