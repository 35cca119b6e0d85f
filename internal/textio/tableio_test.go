package textio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
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

// TestTableJSONRoundTrip pins the JSON export of a schedule table: the
// written document reads back as EncodeTable's, with one entry per table
// entry in row order, each named by its row and its column expression, and
// broadcast rows marked as such.
func TestTableJSONRoundTrip(t *testing.T) {
	res := figure1Result(t)
	var buf bytes.Buffer
	if err := WriteTableJSON(&buf, res.Graph, res.Table); err != nil {
		t.Fatalf("WriteTableJSON: %v", err)
	}
	if !strings.Contains(buf.String(), "\"when\"") || !strings.Contains(buf.String(), "\"P14\"") {
		t.Fatalf("JSON export unexpected:\n%s", buf.String())
	}
	var doc TableDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if want := EncodeTable(res.Graph, res.Table); !reflect.DeepEqual(&doc, want) {
		t.Fatalf("the written document reads back as\n%+v\nwant\n%+v", doc, *want)
	}
	if len(doc.Columns) != len(res.Table.Columns()) {
		t.Fatalf("columns lost: %d vs %d", len(doc.Columns), len(res.Table.Columns()))
	}
	var want []TableEntryDoc
	for _, k := range res.Table.KeysView() {
		for _, e := range res.Table.RowView(k) {
			want = append(want, TableEntryDoc{Row: rowName(res.Graph, k), Broadcast: k.IsCond, When: e.Expr.Format(res.Graph.CondName), Start: e.Start})
		}
	}
	if !slices.Equal(doc.Entries, want) {
		t.Fatalf("entries differ from the table's:\n%v\nwant\n%v", doc.Entries, want)
	}
	if !slices.ContainsFunc(doc.Entries, func(e TableEntryDoc) bool { return e.Broadcast }) {
		t.Fatalf("the export marks no broadcast row")
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
