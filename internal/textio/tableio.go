package textio

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/cpg"
	"repro/internal/sched"
	"repro/internal/table"
)

// TableEntryDoc is one cell of an exported schedule table.
type TableEntryDoc struct {
	// Row is the process name, or the condition name for broadcast rows.
	Row string `json:"row"`
	// Broadcast marks condition broadcast rows.
	Broadcast bool `json:"broadcast,omitempty"`
	// When is the column expression, rendered with condition names
	// ("true", "D&!C", ...).
	When string `json:"when"`
	// Start is the activation time.
	Start int64 `json:"start"`
}

// TableDoc is the JSON export of a schedule table.
type TableDoc struct {
	Graph   string          `json:"graph"`
	Columns []string        `json:"columns"`
	Entries []TableEntryDoc `json:"entries"`
}

// rowName renders a row key with the graph's process and condition names.
func rowName(g *cpg.Graph, k sched.Key) string {
	if k.IsCond {
		return g.CondName(k.Cond)
	}
	if p := g.Process(k.Proc); p != nil {
		return p.Name
	}
	return k.String()
}

// EncodeTable converts a schedule table into its JSON document form. Each
// column expression is formatted once; its string is shared by Columns and
// by the When of every entry in that column. An empty table keeps nil
// Columns and Entries, which encode as null.
func EncodeTable(g *cpg.Graph, tbl *table.Table) *TableDoc {
	doc := &TableDoc{Graph: g.Name()}
	cols, pos := tbl.ColumnIndex()
	if len(cols) > 0 {
		doc.Columns = make([]string, len(cols))
		doc.Entries = make([]TableEntryDoc, 0, tbl.NumEntries())
	}
	for i, c := range cols {
		doc.Columns[i] = c.Format(g.CondName)
	}
	for _, k := range tbl.KeysView() {
		row := rowName(g, k)
		for _, e := range tbl.RowView(k) {
			doc.Entries = append(doc.Entries, TableEntryDoc{
				Row:       row,
				Broadcast: k.IsCond,
				When:      doc.Columns[pos[e.Expr]],
				Start:     e.Start,
			})
		}
	}
	return doc
}

// WriteTableJSON writes the schedule table as indented JSON.
func WriteTableJSON(w io.Writer, g *cpg.Graph, tbl *table.Table) error {
	return writeIndented(w, EncodeTable(g, tbl))
}

// WriteTableCSV writes the schedule table in the layout of Table 1 of the
// paper: one line per row, one column per condition expression, empty cells
// where a process has no activation time under that expression.
func WriteTableCSV(w io.Writer, g *cpg.Graph, tbl *table.Table) error {
	cw := csv.NewWriter(w)
	cols := tbl.Columns()
	header := []string{"process"}
	for _, c := range cols {
		header = append(header, c.Format(g.CondName))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, k := range tbl.Keys() {
		rec := make([]string, len(cols)+1)
		rec[0] = rowName(g, k)
		for i, c := range cols {
			for _, e := range tbl.Row(k) {
				if e.Expr.Equal(c) {
					rec[i+1] = strconv.FormatInt(e.Start, 10)
					break
				}
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
