package expr

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"
)

// ZeroTimes returns a copy of the cells with the wall-clock measurements
// (AvgMergeTime, AvgPathSchedTime) zeroed, leaving only the deterministic
// fields: the form used whenever sweep outputs are compared byte-for-byte
// across runs, worker counts, shards or machines.
func ZeroTimes(cells []Cell) []Cell {
	out := append([]Cell(nil), cells...)
	for i := range out {
		out[i].AvgMergeTime = 0
		out[i].AvgPathSchedTime = 0
	}
	return out
}

// WriteSweepCSV exports the cells of the Fig. 5 / Fig. 6 sweep as CSV, one
// line per (graph size, path count) cell, so the figures can be re-plotted
// with any external tool.
func WriteSweepCSV(w io.Writer, cells []Cell) error {
	cw := csv.NewWriter(w)
	header := []string{
		"nodes", "paths", "graphs",
		"avg_increase_pct", "max_increase_pct", "zero_fraction",
		"avg_merge_ms", "avg_path_sched_ms", "violations",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range cells {
		rec := []string{
			fmt.Sprintf("%d", c.Nodes),
			fmt.Sprintf("%d", c.Paths),
			fmt.Sprintf("%d", c.Graphs),
			fmt.Sprintf("%.4f", c.AvgIncreasePct),
			fmt.Sprintf("%.4f", c.MaxIncreasePct),
			fmt.Sprintf("%.4f", c.ZeroFraction),
			fmt.Sprintf("%.4f", float64(c.AvgMergeTime)/float64(time.Millisecond)),
			fmt.Sprintf("%.4f", float64(c.AvgPathSchedTime)/float64(time.Millisecond)),
			fmt.Sprintf("%d", c.Violations),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
