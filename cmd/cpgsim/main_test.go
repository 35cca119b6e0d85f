package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/textio"
)

// figure1File writes the worked example of the paper to a temp file.
func figure1File(t *testing.T) string {
	t.Helper()
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fig1.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if err := textio.WriteProblem(f, textio.EncodeProblem(g, a, core.Options{})); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	return path
}

func TestSimulateAllPaths(t *testing.T) {
	path := figure1File(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if strings.Count(s, "path ") != 6 {
		t.Fatalf("expected 6 simulated paths:\n%s", s)
	}
	if !strings.Contains(s, "violations 0") || strings.Contains(s, "violation:") {
		t.Fatalf("unexpected violations:\n%s", s)
	}
}

func TestSimulateOneCombination(t *testing.T) {
	path := figure1File(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-cond", "D=0,C=1", "-v"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if strings.Count(s, "path ") != 1 {
		t.Fatalf("expected exactly one simulated path:\n%s", s)
	}
	if !strings.Contains(s, "P1") {
		t.Fatalf("verbose trace missing process activations:\n%s", s)
	}
}

func TestSimulateErrors(t *testing.T) {
	path := figure1File(t)
	var out bytes.Buffer
	if err := run([]string{"-in", "/missing.json"}, &out); err == nil {
		t.Fatalf("missing file must fail")
	}
	if err := run([]string{"-in", path, "-cond", "Z=1"}, &out); err == nil {
		t.Fatalf("unknown condition must fail")
	}
	if err := run([]string{"-in", path, "-cond", "C"}, &out); err == nil {
		t.Fatalf("malformed assignment must fail")
	}
	if err := run([]string{"-in", path, "-cond", "C=maybe"}, &out); err == nil {
		t.Fatalf("malformed value must fail")
	}
	if err := run([]string{"-in", path, "-cond", "C=1,C=0"}, &out); err == nil {
		t.Fatalf("contradictory assignment must fail")
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
