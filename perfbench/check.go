package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/textio"
)

// parseSolution is the strict v1 reader of a solution document: unknown
// fields, trailing data and a foreign version are errors.
func parseSolution(body []byte) (*textio.SolutionDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var d textio.SolutionDoc
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the solution document")
	}
	if d.Version != textio.ProblemVersion {
		return nil, fmt.Errorf("solution version %q, want %q", d.Version, textio.ProblemVersion)
	}
	if d.Table == nil {
		return nil, errors.New("solution without a table")
	}
	return &d, nil
}

// checkSolution runs the per-op output checks on a parsed solution and
// returns the failure reason, or "" when the op succeeded. A table the
// program itself flags as not deterministic (unresolved requirement-2
// conflicts) is a failed op of the program, never a harness error.
func checkSolution(d *textio.SolutionDoc) string {
	if len(d.Paths) == 0 {
		return "no_paths"
	}
	var deltaM, deltaMax int64
	for _, p := range d.Paths {
		if p.TableDelay < p.OptimalDelay {
			return "table_delay_below_optimal"
		}
		deltaM = max(deltaM, p.OptimalDelay)
		deltaMax = max(deltaMax, p.TableDelay)
	}
	switch {
	case d.DeltaM != deltaM:
		return "delta_m_not_max_optimal"
	case d.DeltaMax != deltaMax:
		return "delta_max_not_max_table"
	case d.Deterministic != (len(d.Violations) == 0):
		return "deterministic_flag_mismatch"
	case !d.Deterministic:
		return "nondeterministic_table"
	}
	return ""
}

// increasePct is the Fig. 5 metric of one solution.
func increasePct(d *textio.SolutionDoc) float64 {
	if d.DeltaM == 0 {
		return 0
	}
	return 100 * float64(d.DeltaMax-d.DeltaM) / float64(d.DeltaM)
}

// masked clears the only solution fields that legitimately change between
// runs of the same problem: the wall-clock phase timings and the cache
// block, whose running hit/miss counters depend on request interleaving.
func masked(d *textio.SolutionDoc) textio.SolutionDoc {
	c := *d
	c.Stats.PathSchedulingNs = 0
	c.Stats.MergeNs = 0
	c.Stats.ValidationNs = 0
	c.Cache = nil
	return c
}

// diffSolutions returns "" when the two documents agree outside the masked
// fields, else the name of the first top-level field that differs.
func diffSolutions(got, want *textio.SolutionDoc) string {
	g, w := masked(got), masked(want)
	gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return gv.Type().Field(i).Name
		}
	}
	return ""
}

// referenceSolution schedules a problem body in-process, cold and
// sequential, and returns its solution document as it reads back from the
// wire format (so nil and empty lists compare alike).
func referenceSolution(body []byte) (*textio.SolutionDoc, error) {
	g, a, opt, err := decodeBody(body)
	if err != nil {
		return nil, err
	}
	opt.Workers = 1
	res, err := core.Schedule(g, a, opt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := textio.WriteSolution(&buf, textio.EncodeSolution(res)); err != nil {
		return nil, err
	}
	return parseSolution(buf.Bytes())
}

// warmEngages reports whether the service warm-starts an edit, that is
// whether core's warm plan reuses at least one path: one on which none of
// the dirty processes is active.
func warmEngages(body []byte, dirty []string) (bool, error) {
	g, _, opt, err := decodeBody(body)
	if err != nil {
		return false, err
	}
	paths, err := g.AlternativePaths(opt.MaxPaths)
	if err != nil {
		return false, err
	}
	for _, p := range paths {
		clean := true
		for _, name := range dirty {
			if id, ok := g.FindByName(name); ok && p.IsActive(id) {
				clean = false
				break
			}
		}
		if clean {
			return true, nil
		}
	}
	return false, nil
}

func decodeBody(body []byte) (*cpg.Graph, *arch.Architecture, core.Options, error) {
	doc, err := textio.ReadProblem(bytes.NewReader(body))
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	return textio.DecodeProblem(doc)
}

// postSchedule sends one problem body to /v1/schedule and reads the reply
// to EOF.
func postSchedule(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// figure1Canary requires the served Figure-1 table, its δ line and its
// per-path delays to equal testdata/figure1_golden.txt.
func figure1Canary(ctx context.Context, root, url string) error {
	problem, err := os.ReadFile(filepath.Join(root, "testdata", "figure1_v1.json"))
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "figure1_golden.txt"))
	if err != nil {
		return err
	}
	status, body, err := postSchedule(ctx, http.DefaultClient, url, problem)
	if err != nil {
		return fmt.Errorf("figure-1 canary: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("figure-1 canary: status %d: %s", status, body)
	}
	d, err := parseSolution(body)
	if err != nil {
		return fmt.Errorf("figure-1 canary: %w", err)
	}
	table, rest, ok := strings.Cut(string(golden), "deltaM=")
	if !ok {
		return errors.New("figure-1 golden has no δ line")
	}
	if d.TableText != table {
		return fmt.Errorf("figure-1 canary: served table differs from the golden table")
	}
	// The golden continues with the δ line, one line per path and a stats
	// line; the solution document carries all but the last.
	got := fmt.Sprintf("deltaM=%d deltaMax=%d deterministic=%t\n", d.DeltaM, d.DeltaMax, d.Deterministic)
	for _, p := range d.Paths {
		got += fmt.Sprintf("path %s optimal=%d table=%d\n", p.Label, p.OptimalDelay, p.TableDelay)
	}
	if want := "deltaM=" + rest; !strings.HasPrefix(want, got) || strings.Count(want, "\n") != strings.Count(got, "\n")+1 {
		return fmt.Errorf("figure-1 canary: served δ and path lines\n%sdiffer from the golden\n%s", got, want)
	}
	return nil
}

// goldenSweepCanary requires expr.GoldenSweep through the given coordinator
// to reproduce testdata/sweep_golden.csv byte for byte.
func goldenSweepCanary(ctx context.Context, root string, co *distrib.Coordinator) error {
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "sweep_golden.csv"))
	if err != nil {
		return err
	}
	cells, err := co.Run(ctx, expr.GoldenSweep())
	if err != nil {
		return fmt.Errorf("golden sweep canary: %w", err)
	}
	got, err := sweepCSV(cells)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, golden) {
		return fmt.Errorf("golden sweep canary: CSV differs from testdata/sweep_golden.csv:\n%s", got)
	}
	return nil
}

// sweepCSV renders cells with the wall-clock fields cleared (expr.ZeroTimes),
// the form in which sweeps are compared byte for byte.
func sweepCSV(cells []expr.Cell) ([]byte, error) {
	var buf bytes.Buffer
	if err := expr.WriteSweepCSV(&buf, expr.ZeroTimes(cells)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
