package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiffAgainstComparesOneHost checks the advisory -prev diff: against a
// snapshot of the same cpu and GOMAXPROCS a row 30% slower is flagged and
// one 10% slower is not; against a snapshot of another cpu, or of another
// GOMAXPROCS, nothing is flagged, and the output names both hosts.
func TestDiffAgainstComparesOneHost(t *testing.T) {
	row := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Runs: 1, Metrics: map[string]float64{"ns/op": ns}}
	}
	snapshot := func(cpu string, procs int) string {
		data, err := json.Marshal(Results{CPU: cpu, GOMAXPROCS: procs,
			Benchmarks: []Benchmark{row("BenchmarkSlow", 100), row("BenchmarkSteady", 100)}})
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		path := filepath.Join(t.TempDir(), "prev.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		return path
	}
	cur := Results{CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2,
		Benchmarks: []Benchmark{row("BenchmarkSlow", 130), row("BenchmarkSteady", 110)}}

	var out bytes.Buffer
	diffAgainst(&out, snapshot(cur.CPU, 2), cur, 0.20)
	if got := out.String(); !strings.Contains(got, "WARNING: BenchmarkSlow regressed 30.0%") || strings.Contains(got, "BenchmarkSteady") {
		t.Fatalf("same host: want BenchmarkSlow flagged and BenchmarkSteady not, got:\n%s", got)
	}

	for _, prev := range []struct {
		cpu   string
		procs int
		names string
	}{{"AMD EPYC", 2, `"AMD EPYC" at GOMAXPROCS 2`}, {cur.CPU, 8, "GOMAXPROCS 8"}} {
		out.Reset()
		diffAgainst(&out, snapshot(prev.cpu, prev.procs), cur, 0.20)
		got := out.String()
		if strings.Contains(got, "WARNING") || !strings.Contains(got, "skipping the ns/op comparison") ||
			!strings.Contains(got, prev.names) || !strings.Contains(got, `"Intel(R) Xeon(R) Processor" at GOMAXPROCS 2`) {
			t.Fatalf("another host (%s): want no flag and a line naming both hosts, got:\n%s", prev.names, got)
		}
	}
}
