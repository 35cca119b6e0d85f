package textio

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/sim"
)

// figure1Result generates the schedule table of the worked example once.
func figure1Result(t *testing.T) *core.Result {
	t.Helper()
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	res, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return res
}

func TestTableJSONRoundTrip(t *testing.T) {
	res := figure1Result(t)
	var buf bytes.Buffer
	if err := WriteTableJSON(&buf, res.Graph, res.Table); err != nil {
		t.Fatalf("WriteTableJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"when\"") || !strings.Contains(buf.String(), "\"P14\"") {
		t.Fatalf("JSON export unexpected:\n%s", buf.String())
	}
	back, err := ReadTableJSON(&buf, res.Graph)
	if err != nil {
		t.Fatalf("ReadTableJSON: %v", err)
	}
	if back.NumEntries() != res.Table.NumEntries() {
		t.Fatalf("entries lost: %d vs %d", back.NumEntries(), res.Table.NumEntries())
	}
	if len(back.Columns()) != len(res.Table.Columns()) {
		t.Fatalf("columns lost: %d vs %d", len(back.Columns()), len(res.Table.Columns()))
	}
	// Every row of the original table must come back with the same entries.
	for _, k := range res.Table.KeysView() {
		if got, want := back.RowView(k), res.Table.RowView(k); !slices.Equal(got, want) {
			t.Fatalf("row %v changed: %v, want %v", k, got, want)
		}
	}
	// The round-tripped table passes the row checks and the re-enactment of
	// every path, with the same worst-case delay.
	if v := back.Validate(res.Graph); len(v) != 0 {
		t.Fatalf("round-tripped table has violations: %v", v)
	}
	simRes, err := sim.WorstCaseSubgraphs(res.Arch, back, res.Subgraphs, 1)
	if err != nil {
		t.Fatalf("WorstCaseSubgraphs: %v", err)
	}
	if len(simRes.Violations) != 0 || simRes.DeltaMax != res.DeltaMax {
		t.Fatalf("round-tripped table re-enacts with δmax %d and violations %v, want %d and none",
			simRes.DeltaMax, simRes.Violations, res.DeltaMax)
	}
}

func TestTableCSV(t *testing.T) {
	res := figure1Result(t)
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, res.Graph, res.Table); err != nil {
		t.Fatalf("WriteTableCSV: %v", err)
	}
	s := buf.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if rows := len(res.Table.KeysView()); len(lines) != rows+1 {
		t.Fatalf("CSV has %d lines, want %d rows + header", len(lines), rows)
	}
	if !strings.HasPrefix(lines[0], "process,true") {
		t.Fatalf("CSV header unexpected: %q", lines[0])
	}
	if !strings.Contains(s, "P1,0") {
		t.Fatalf("CSV missing the unconditional start of P1:\n%s", s)
	}
}

func TestReadTableJSONErrors(t *testing.T) {
	res := figure1Result(t)
	cases := map[string]string{
		"bad json":          `{"graph": `,
		"unknown process":   `{"graph":"figure1","columns":[],"entries":[{"row":"Nope","when":"true","start":1}]}`,
		"unknown condition": `{"graph":"figure1","columns":[],"entries":[{"row":"P1","when":"Z","start":1}]}`,
		"unknown broadcast": `{"graph":"figure1","columns":[],"entries":[{"row":"Z","broadcast":true,"when":"true","start":1}]}`,
		"contradiction":     `{"graph":"figure1","columns":[],"entries":[{"row":"P1","when":"C&!C","start":1}]}`,
		"conflict":          `{"graph":"figure1","columns":[],"entries":[{"row":"P1","when":"true","start":1},{"row":"P1","when":"true","start":2}]}`,
	}
	for name, doc := range cases {
		if _, err := ReadTableJSON(strings.NewReader(doc), res.Graph); err == nil {
			t.Fatalf("case %q: expected an error", name)
		}
	}
}

func TestParseCube(t *testing.T) {
	res := figure1Result(t)
	conds := map[string]int{}
	for _, cd := range res.Graph.Conditions() {
		conds[cd.Name] = int(cd.ID)
	}
	var buf bytes.Buffer
	if err := WriteTableJSON(&buf, res.Graph, res.Table); err != nil {
		t.Fatalf("WriteTableJSON: %v", err)
	}
	// Smoke check that broadcast rows round trip as broadcast rows.
	back, err := ReadTableJSON(&buf, res.Graph)
	if err != nil {
		t.Fatalf("ReadTableJSON: %v", err)
	}
	foundCondRow := false
	for _, k := range back.Keys() {
		if k.IsCond {
			foundCondRow = true
		}
	}
	if !foundCondRow {
		t.Fatalf("broadcast rows lost in round trip")
	}
	_ = sched.CondKey(0)
}
