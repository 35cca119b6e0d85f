// Package expr contains the experiment harness of the reproduction: the
// reconstructed worked example of the paper (Fig. 1 / Fig. 2 / Table 1), the
// synthetic-graph sweep behind Fig. 5 and Fig. 6, and the ATM OAM study of
// Table 2. Every experiment returns structured results plus a text rendering
// in the style of the paper.
//
// Every sweep runs through RunSweepShardStream, one shard at a time, whole
// sweeps included. Each of its workers schedules its graphs in one workspace
// that core.Lend lends from core's one pool, whether the shard runs offline
// or on a server, and its yield is the one per-graph callback: a server
// streams the shard's frames from it and a command line reports progress
// from it.
package expr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/sched"
	"repro/internal/table"
)

// Figure1 reconstructs the conditional process graph of Fig. 1 of the paper
// together with its architecture (two programmable processors pe1 and pe2,
// one hardware processor pe3, one shared bus, τ0 = 1).
//
// Everything stated in the paper is reproduced literally: the execution times
// of P1..P17, the processor mapping, the fourteen inter-processor
// communications with their transfer times, the conditions C (computed by
// P2), D (computed by P11) and K (computed by P12, which only executes when D
// is true), and the guards XP3 = XP17 = true, XP5 = C, XP14 = D∧K. The edges
// between processes mapped to the same processor are not listed in the paper
// and have been reconstructed so that the published structure (disjunction
// and conjunction processes, six alternative paths) is preserved; see
// DESIGN.md for the substitution note.
func Figure1() (*cpg.Graph, *arch.Architecture, error) {
	a := arch.New()
	pe1 := a.AddProcessor("pe1", 1)
	pe2 := a.AddProcessor("pe2", 1)
	pe3 := a.AddHardware("pe3")
	bus := a.AddBus("pe4", true)
	a.SetCondTime(1)

	g := cpg.New("figure1")
	// Ordinary processes with the execution times of Fig. 1.
	exec := map[int]int64{
		1: 3, 2: 4, 3: 12, 4: 5, 5: 3, 6: 5, 7: 3, 8: 4, 9: 5,
		10: 5, 11: 6, 12: 6, 13: 8, 14: 2, 15: 6, 16: 4, 17: 2,
	}
	pe := map[int]arch.PEID{
		1: pe1, 2: pe1, 4: pe1, 6: pe1, 9: pe1, 10: pe1, 13: pe1,
		3: pe2, 5: pe2, 7: pe2, 11: pe2, 14: pe2, 15: pe2, 17: pe2,
		8: pe3, 12: pe3, 16: pe3,
	}
	p := map[int]cpg.ProcID{}
	for i := 1; i <= 17; i++ {
		p[i] = g.AddProcess(fmt.Sprintf("P%d", i), exec[i], pe[i])
	}

	// Conditions and their disjunction processes.
	c := g.AddCondition("C", p[2])
	d := g.AddCondition("D", p[11])
	k := g.AddCondition("K", p[12])

	// Edges. Cross-processor edges carry the communication times given in
	// Fig. 1; same-processor edges (not listed in the paper) are marked
	// with a zero communication time and never receive a communication
	// process.
	type edge struct {
		from, to int
		comm     int64
		cond     int // 0 none, 1 C, 2 !C, 3 D, 4 !D, 5 K, 6 !K
	}
	edges := []edge{
		{1, 3, 1, 0},
		{2, 5, 3, 1}, // conditional on C
		{2, 4, 0, 2}, // conditional on !C (same processor pe1)
		{3, 6, 2, 0},
		{3, 10, 2, 0},
		{4, 7, 3, 0},
		{5, 7, 0, 0},
		{6, 8, 3, 0},
		{7, 10, 2, 0},
		{8, 10, 2, 0},
		{8, 16, 0, 0},
		{9, 10, 0, 0},
		{11, 12, 1, 3}, // conditional on D
		{11, 13, 2, 4}, // conditional on !D
		{12, 14, 1, 5}, // conditional on K
		{12, 15, 3, 6}, // conditional on !K
		{13, 17, 2, 0},
		{14, 17, 0, 0},
		{15, 17, 0, 0},
		{16, 17, 2, 0},
	}
	commTimes := map[cpg.EdgeID]int64{}
	for _, e := range edges {
		var id cpg.EdgeID
		switch e.cond {
		case 0:
			id = g.AddEdge(p[e.from], p[e.to])
		case 1:
			id = g.AddCondEdge(p[e.from], p[e.to], c, true)
		case 2:
			id = g.AddCondEdge(p[e.from], p[e.to], c, false)
		case 3:
			id = g.AddCondEdge(p[e.from], p[e.to], d, true)
		case 4:
			id = g.AddCondEdge(p[e.from], p[e.to], d, false)
		case 5:
			id = g.AddCondEdge(p[e.from], p[e.to], k, true)
		case 6:
			id = g.AddCondEdge(p[e.from], p[e.to], k, false)
		}
		if e.comm > 0 {
			commTimes[id] = e.comm
		}
	}
	planner := func(gr *cpg.Graph, e *cpg.Edge) (cpg.CommSpec, bool) {
		t, ok := commTimes[e.ID]
		if !ok {
			return cpg.CommSpec{}, false
		}
		from := gr.Process(e.From).Name
		to := gr.Process(e.To).Name
		return cpg.CommSpec{Time: t, Bus: bus, Name: fmt.Sprintf("P%s_%s", strings.TrimPrefix(from, "P"), strings.TrimPrefix(to, "P"))}, true
	}
	if _, err := cpg.InsertComms(g, a, planner); err != nil {
		return nil, nil, err
	}
	if err := g.Finalize(a); err != nil {
		return nil, nil, err
	}
	return g, a, nil
}

// Figure1Result is the outcome of the worked example: the scheduling result,
// the delays of the alternative paths (the table embedded in Fig. 2) and a
// rendering of the schedule table (the analogue of Table 1).
type Figure1Result struct {
	Result *core.Result
	// PathDelays maps the path label (formatted with condition names) to
	// the optimal delay of that path.
	PathDelays map[string]int64
	// TableText is the rendered schedule table.
	TableText string
}

// RunFigure1 builds the Fig. 1 example and generates its schedule table.
func RunFigure1(opts core.Options) (*Figure1Result, error) {
	g, a, err := Figure1()
	if err != nil {
		return nil, err
	}
	res, err := core.Schedule(g, a, opts)
	if err != nil {
		return nil, err
	}
	out := &Figure1Result{Result: res, PathDelays: map[string]int64{}}
	for _, pr := range res.Paths {
		out.PathDelays[pr.Label.Format(g.CondName)] = pr.OptimalDelay
	}
	out.TableText = res.Table.Render(table.RenderOptions{
		Namer:   g.CondName,
		RowName: res.RowName,
	})
	return out, nil
}

// RenderFigure1 produces a report with the path delays (Fig. 2), δM, δmax and
// the schedule table (Table 1).
func RenderFigure1(r *Figure1Result) string {
	var b strings.Builder
	b.WriteString("Worked example (Fig. 1 of the paper)\n")
	b.WriteString("Length of the optimal schedule for the alternative paths (cf. Fig. 2):\n")
	keys := make([]string, 0, len(r.PathDelays))
	for k := range r.PathDelays {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if r.PathDelays[keys[i]] != r.PathDelays[keys[j]] {
			return r.PathDelays[keys[i]] > r.PathDelays[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-12s %d\n", k, r.PathDelays[k])
	}
	fmt.Fprintf(&b, "δM (longest optimal path) = %d\n", r.Result.DeltaM)
	fmt.Fprintf(&b, "δmax (worst case of the schedule table) = %d\n", r.Result.DeltaMax)
	fmt.Fprintf(&b, "increase = %.2f%%\n", r.Result.IncreasePercent())
	fmt.Fprintf(&b, "deterministic = %v\n\n", r.Result.Deterministic())
	b.WriteString("Schedule table (cf. Table 1):\n")
	b.WriteString(r.TableText)
	return b.String()
}

// Figure1Gantt renders the optimal schedules of every alternative path of the
// worked example as time charts (the analogue of Fig. 4).
func Figure1Gantt(r *Figure1Result) string {
	var b strings.Builder
	g := r.Result.Graph
	name := func(k sched.Key) string { return r.Result.RowName(k) }
	for _, ps := range r.Result.Schedules {
		b.WriteString(ps.Gantt(r.Result.Arch, name))
		b.WriteByte('\n')
	}
	_ = g
	return b.String()
}
