package expr

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWriteSweepCSV(t *testing.T) {
	cells := []Cell{
		{Nodes: 60, Paths: 10, Graphs: 4, AvgIncreasePct: 0.5, MaxIncreasePct: 2, ZeroFraction: 0.75,
			AvgMergeTime: 12 * time.Millisecond, AvgPathSchedTime: 800 * time.Microsecond},
		{Nodes: 120, Paths: 32, Graphs: 4, AvgIncreasePct: 1.25, ZeroFraction: 0.5,
			AvgMergeTime: 70 * time.Millisecond, AvgPathSchedTime: 3 * time.Millisecond, Violations: 0},
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, cells); err != nil {
		t.Fatalf("WriteSweepCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header + 2 lines, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "nodes,paths,graphs,avg_increase_pct") {
		t.Fatalf("header unexpected: %q", lines[0])
	}
	if !strings.Contains(lines[1], "60,10,4,0.5000") || !strings.Contains(lines[1], "12.0000") {
		t.Fatalf("first data line unexpected: %q", lines[1])
	}
	if !strings.Contains(lines[2], "120,32,4,1.2500") {
		t.Fatalf("second data line unexpected: %q", lines[2])
	}
}
