package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestExperimentFig1(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"Fig. 1", "δM", "δmax", "Schedule table"} {
		if !strings.Contains(s, want) {
			t.Fatalf("fig1 output missing %q:\n%s", want, s)
		}
	}
}

func TestExperimentFig4(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig4"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "pe1") {
		t.Fatalf("fig4 output missing time charts:\n%s", out.String())
	}
}

func TestExperimentSweepSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-graphs", "1", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5") || !strings.Contains(s, "120 nodes") {
		t.Fatalf("fig5 output unexpected:\n%s", s)
	}
	out.Reset()
	if err := run([]string{"-exp", "fig6", "-graphs", "1", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Fig. 6") {
		t.Fatalf("fig6 output unexpected:\n%s", out.String())
	}
}

func TestExperimentTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 evaluates 30 configurations; skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "table2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 2") || !strings.Contains(s, "2P/2M") {
		t.Fatalf("table2 output unexpected:\n%s", s)
	}
}

func TestExperimentUnknown(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "bogus"}, &out); err == nil {
		t.Fatalf("unknown experiment must fail")
	}
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatalf("unknown flag must fail")
	}
}

func TestExperimentAblation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "ablate", "-graphs", "1", "-progress=false"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Ablation:") {
		t.Fatalf("ablation header missing:\n%s", s)
	}
	for _, policy := range []string{"largest-delay", "smallest-delay", "first"} {
		if !strings.Contains(s, policy) {
			t.Fatalf("ablation output missing policy %q:\n%s", policy, s)
		}
	}
	if !strings.Contains(s, "by scheduling strategy") {
		t.Fatalf("strategy ablation header missing:\n%s", s)
	}
	for _, strategy := range []string{"critical-path", "tabu"} {
		if !strings.Contains(s, strategy) {
			t.Fatalf("ablation output missing strategy %q:\n%s", strategy, s)
		}
	}
}

// TestExperimentStrategyFlag pins the -strategy end of cpgexper: the sweep
// accepts a non-default strategy and rejects unknown names.
func TestExperimentStrategyFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig5", "-graphs", "1", "-seed", "3", "-strategy", "tabu", "-progress=false"}, &out); err != nil {
		t.Fatalf("run(-strategy tabu): %v", err)
	}
	if !strings.Contains(out.String(), "Fig. 5") {
		t.Fatalf("fig5 output unexpected:\n%s", out.String())
	}
	if err := run([]string{"-exp", "fig5", "-strategy", "bogus"}, &out); err == nil || !strings.Contains(err.Error(), "unknown scheduling strategy") {
		t.Fatalf("unknown -strategy must fail with the known list; got %v", err)
	}
}
