// Benchmarks regenerating every table and figure of the paper's experimental
// evaluation (section 6). Each benchmark reports, besides the usual ns/op,
// the domain metrics of the corresponding figure via b.ReportMetric:
//
//	BenchmarkTable1Figure1       — the worked example (Fig. 1 / Table 1):
//	                               schedule-table generation, reports δM and δmax.
//	BenchmarkFig2PathSchedules   — list scheduling of the six alternative
//	                               paths of the worked example (Fig. 2).
//	BenchmarkFig5Increase        — increase of δmax over δM on generated
//	                               graphs, one sub-benchmark per
//	                               (nodes, alternative paths) cell of Fig. 5.
//	BenchmarkFig6MergeTime       — execution time of the schedule merging,
//	                               one sub-benchmark per cell of Fig. 6.
//	BenchmarkListSchedule120     — individual path scheduling on 120-node
//	                               graphs (the "< 0.003 s" figure of §6).
//	BenchmarkTable2OAM           — the ATM OAM example, one sub-benchmark per
//	                               mode and architecture of Table 2, reporting
//	                               the worst-case delay in ns.
//	BenchmarkAblation*           — design-choice ablations (path selection
//	                               rule, list-scheduling priority, conflict
//	                               resolution policy).
//	BenchmarkStrategies          — quality (δM, δmax) and speed per
//	                               scheduling strategy.
//	BenchmarkTabuInner           — one tabu improvement run per path.
//	BenchmarkSolutionCodec       — the v1 solution document of a 120-node,
//	                               32-path result: the indented file and
//	                               the served compact body.
//	BenchmarkGenerate            — generating and finalizing sweep graphs,
//	                               one sub-benchmark per graph size.
//	BenchmarkDecodeProblem       — decoding grid problem documents into
//	                               finalized graphs, as every request does.
//	BenchmarkReadProblem         — reading, decoding and hashing the grid
//	                               problems' request bodies.
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/atm"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/textio"
)

// mustFigure1 builds the worked example once per benchmark.
func mustFigure1(b *testing.B) (*cpg.Graph, *arch.Architecture) {
	b.Helper()
	g, a, err := expr.Figure1()
	if err != nil {
		b.Fatalf("Figure1: %v", err)
	}
	return g, a
}

// BenchmarkTable1Figure1 regenerates the schedule table of the worked example
// (Table 1 of the paper) and reports δM and δmax (the paper measures 39/39).
func BenchmarkTable1Figure1(b *testing.B) {
	g, a := mustFigure1(b)
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Schedule(g, a, core.Options{})
		if err != nil {
			b.Fatalf("Schedule: %v", err)
		}
	}
	b.ReportMetric(float64(res.DeltaM), "deltaM")
	b.ReportMetric(float64(res.DeltaMax), "deltaMax")
	b.ReportMetric(float64(res.Table.NumEntries()), "table-entries")
}

// BenchmarkFig2PathSchedules schedules the six alternative paths of the
// worked example individually (the delays listed next to Fig. 2).
func BenchmarkFig2PathSchedules(b *testing.B) {
	g, a := mustFigure1(b)
	paths, err := g.AlternativePaths(0)
	if err != nil {
		b.Fatalf("AlternativePaths: %v", err)
	}
	var deltaM int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaM = schedulePaths(b, g, a, paths)
	}
	b.ReportMetric(float64(len(paths)), "paths")
	b.ReportMetric(float64(deltaM), "deltaM")
}

// sweepCell runs one (nodes, paths) cell of the Fig. 5 / Fig. 6 sweep inside
// a benchmark iteration and returns the aggregated increase statistics.
func sweepCell(b *testing.B, nodes, paths, graphs int, seed int64, opts core.Options) (avgIncrease, zeroFraction, avgMergeNs float64) {
	b.Helper()
	r := rand.New(rand.NewSource(seed))
	var increases []float64
	var mergeNs []float64
	for i := 0; i < graphs; i++ {
		inst, err := gen.Generate(gen.RandomConfig(r, nodes, paths))
		if err != nil {
			b.Fatalf("Generate: %v", err)
		}
		res, err := core.Schedule(inst.Graph, inst.Arch, opts)
		if err != nil {
			b.Fatalf("Schedule: %v", err)
		}
		increases = append(increases, res.IncreasePercent())
		mergeNs = append(mergeNs, float64(res.Stats.MergeTime))
	}
	return stats.Mean(increases),
		stats.Fraction(increases, func(v float64) bool { return v == 0 }),
		stats.Mean(mergeNs)
}

// fig5Cells are the fifteen cells of Fig. 5 / Fig. 6 of the paper.
var fig5Cells = func() []struct{ nodes, paths int } {
	var out []struct{ nodes, paths int }
	for _, n := range []int{60, 80, 120} {
		for _, p := range []int{10, 12, 18, 24, 32} {
			out = append(out, struct{ nodes, paths int }{n, p})
		}
	}
	return out
}()

// BenchmarkFig5Increase regenerates Fig. 5: the percentage increase of the
// worst-case delay δmax over the longest path delay δM, per graph size and
// number of merged schedules. The paper reports averages between 0.1% and
// 7.63% and zero increase for 90/82/57/46/33 % of the graphs with
// 10/12/18/24/32 alternative paths.
func BenchmarkFig5Increase(b *testing.B) {
	const graphsPerCell = 3
	for _, cell := range fig5Cells {
		cell := cell
		b.Run(fmt.Sprintf("nodes=%d/paths=%d", cell.nodes, cell.paths), func(b *testing.B) {
			var avg, zero float64
			for i := 0; i < b.N; i++ {
				avg, zero, _ = sweepCell(b, cell.nodes, cell.paths, graphsPerCell, int64(1000+i), core.Options{})
			}
			b.ReportMetric(avg, "increase-%")
			b.ReportMetric(100*zero, "zero-increase-%")
		})
	}
}

// BenchmarkFig6MergeTime regenerates Fig. 6: the execution time of the
// schedule merging as a function of the number of merged schedules (the paper
// measures 0.05-0.25 s on a SPARCstation 20).
func BenchmarkFig6MergeTime(b *testing.B) {
	const graphsPerCell = 3
	for _, cell := range fig5Cells {
		cell := cell
		b.Run(fmt.Sprintf("nodes=%d/paths=%d", cell.nodes, cell.paths), func(b *testing.B) {
			var mergeNs float64
			for i := 0; i < b.N; i++ {
				_, _, mergeNs = sweepCell(b, cell.nodes, cell.paths, graphsPerCell, int64(2000+i), core.Options{})
			}
			b.ReportMetric(mergeNs/1e6, "merge-ms")
		})
	}
}

// sweepWorkerCounts are the worker counts exercised by the parallel sweep
// benchmarks: sequential baseline, fixed points for cross-machine
// comparability, and all CPUs (sorted, deduplicated). Counts above
// GOMAXPROCS are dropped: they would only measure oversubscription.
var sweepWorkerCounts = func() []int {
	procs := runtime.GOMAXPROCS(0)
	counts := []int{1, 2, 4, procs}
	sort.Ints(counts)
	out := counts[:1]
	for _, w := range counts[1:] {
		if w != out[len(out)-1] && w <= procs {
			out = append(out, w)
		}
	}
	return out
}()

// sweepGraphs is the number of graphs of a normalized sweep config.
func sweepGraphs(cfg expr.SweepConfig) int {
	return len(cfg.Nodes) * len(cfg.Paths) * cfg.GraphsPerCell
}

// reportMemPerGraph reports what the b.N sweeps of the given number of graphs
// since before allocated per graph (B/graph, the growth of
// runtime.MemStats.TotalAlloc) and the garbage collections they ran per graph
// (gc/graph, the growth of NumGC).
func reportMemPerGraph(b *testing.B, before *runtime.MemStats, graphs int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(b.N * graphs)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/graph")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/n, "gc/graph")
}

// BenchmarkFig5Sweep runs the whole (reduced) Fig. 5 / Fig. 6 sweep through
// expr.RunSweep with a growing number of workers; comparing the workers=1
// sub-benchmark with the larger ones measures the multi-core speedup of the
// concurrent execution engine on the paper's own workload. The reported
// domain metrics are identical for every worker count by construction;
// B/graph and gc/graph show the memory management the sweep costs.
func BenchmarkFig5Sweep(b *testing.B) {
	cfg := expr.SweepConfig{GraphsPerCell: 2, Seed: 1998}.Normalize()
	for _, w := range sweepWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg.Workers = w
			var cells []expr.Cell
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				var err error
				cells, err = expr.RunSweep(cfg)
				if err != nil {
					b.Fatalf("RunSweep: %v", err)
				}
			}
			reportMemPerGraph(b, &before, sweepGraphs(cfg))
			var inc []float64
			for _, c := range cells {
				inc = append(inc, c.AvgIncreasePct)
			}
			b.ReportMetric(stats.Mean(inc), "increase-%")
			b.ReportMetric(float64(len(cells)), "cells")
		})
	}
}

// BenchmarkFig6SweepMergeTime is the Fig. 6 companion of BenchmarkFig5Sweep:
// it reports the average merge time measured inside the sweep while the sweep
// itself runs on N workers (merge time is per-graph work, so it should stay
// flat while wall-clock ns/op shrinks). It also reports, per graph, the
// merge's reschedules and those among them that followed the path's optimal
// schedule as it is (core.Stats.ReusedReschedules), which both repeat exactly
// for the seed, and the sweep's B/graph and gc/graph as BenchmarkFig5Sweep
// does.
func BenchmarkFig6SweepMergeTime(b *testing.B) {
	cfg := expr.SweepConfig{GraphsPerCell: 2, Seed: 1998}.Normalize()
	for _, w := range sweepWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg.Workers = w
			var cells []expr.Cell
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				var err error
				cells, err = expr.RunSweep(cfg)
				if err != nil {
					b.Fatalf("RunSweep: %v", err)
				}
			}
			b.StopTimer()
			reportMemPerGraph(b, &before, sweepGraphs(cfg))
			var mergeNs []float64
			for _, c := range cells {
				mergeNs = append(mergeNs, float64(c.AvgMergeTime))
			}
			b.ReportMetric(stats.Mean(mergeNs)/1e6, "merge-ms")
			var graphs, reschedules, reused int
			for _, n := range cfg.Nodes {
				for _, p := range cfg.Paths {
					for i := 0; i < cfg.GraphsPerCell; i++ {
						inst, err := gen.Generate(expr.GraphConfig(cfg.Seed, n, p, i))
						if err != nil {
							b.Fatalf("Generate: %v", err)
						}
						res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
						if err != nil {
							b.Fatalf("Schedule: %v", err)
						}
						graphs++
						reschedules += res.Stats.Reschedules
						reused += res.Stats.ReusedReschedules
					}
				}
			}
			b.ReportMetric(float64(reschedules)/float64(graphs), "reschedules/graph")
			b.ReportMetric(float64(reused)/float64(graphs), "reused-reschedules/graph")
		})
	}
}

// BenchmarkScheduleRunParallel drives independent core.Schedule calls from
// GOMAXPROCS goroutines via b.RunParallel: the many-clients-one-engine
// shape, each call on its own goroutine.
func BenchmarkScheduleRunParallel(b *testing.B) {
	g, a := mustFigure1(b)
	if _, err := core.Schedule(g, a, core.Options{}); err != nil {
		b.Fatalf("Schedule: %v", err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.Schedule(g, a, core.Options{}); err != nil {
				b.Errorf("Schedule: %v", err)
				return
			}
		}
	})
}

// BenchmarkSolutionCodec measures the solution codec on a 120-node, 32-path
// result, in two arms, each reporting the document size as response-KB:
//
//   - file: textio.EncodeSolution (the table document and the Table-1 text)
//     plus textio.WriteSolution (the indented JSON), what cpgsched writes;
//   - served: textio.AppendSolution, the compact body /v1/schedule sends,
//     written straight from the result into a buffer the benchmark holds,
//     so its B/op and allocs/op do not depend on what the collector drops
//     from a pool and repeat from run to run.
func BenchmarkSolutionCodec(b *testing.B) {
	inst, err := gen.Generate(gen.Config{Seed: 42, Nodes: 120, TargetPaths: 32, Processors: 8, Hardware: 1, Buses: 4})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
	if err != nil {
		b.Fatalf("Schedule: %v", err)
	}
	b.Run("file", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := textio.WriteSolution(&buf, textio.EncodeSolution(res)); err != nil {
				b.Fatalf("WriteSolution: %v", err)
			}
		}
		b.ReportMetric(float64(buf.Len())/1024, "response-KB")
	})
	b.Run("served", func(b *testing.B) {
		cache := &textio.CacheDoc{Misses: 1, ProblemHash: "0123abcd"}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = textio.AppendSolution(buf[:0], res, cache); err != nil {
				b.Fatalf("AppendSolution: %v", err)
			}
		}
		b.ReportMetric(float64(len(buf))/1024, "response-KB")
	})
}

// BenchmarkGenerate measures gen.Generate on the graphs of the paper's sweep
// (seed 1998), one sub-benchmark per graph size cycling over the first 4
// graphs of each path count: building the graph, inserting communication
// processes and finalizing it (guards, topological order, classification,
// validation). One op is one graph.
func BenchmarkGenerate(b *testing.B) {
	cfg := expr.PaperSweep()
	for _, n := range cfg.Nodes {
		var cfgs []gen.Config
		for _, p := range cfg.Paths {
			for i := 0; i < 4; i++ {
				cfgs = append(cfgs, expr.GraphConfig(cfg.Seed, n, p, i))
			}
		}
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(cfgs[i%len(cfgs)]); err != nil {
					b.Fatalf("Generate: %v", err)
				}
			}
		})
	}
}

// benchGridNodes are the graph sizes of the grid, one sub-benchmark each in
// BenchmarkDecodeProblem and BenchmarkReadProblem.
var benchGridNodes = []int{60, 80, 120}

// gridProblemDocs returns the documents of the grid problems of seeds 1 to
// 4 by graph size, each size's documents cycling over every path count.
func gridProblemDocs(b *testing.B) map[int][]*textio.ProblemDoc {
	docs := map[int][]*textio.ProblemDoc{}
	for s := int64(1); s <= 4; s++ {
		r := rand.New(rand.NewSource(s))
		for _, n := range benchGridNodes {
			for _, p := range []int{10, 12, 18, 24, 32} {
				inst, err := gen.Generate(gen.RandomConfig(r, n, p))
				if err != nil {
					b.Fatalf("Generate: %v", err)
				}
				docs[n] = append(docs[n], textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{}))
			}
		}
	}
	return docs
}

// BenchmarkDecodeProblem measures decoding a problem document into a
// finalized graph and architecture (service.FromDoc), the step of every
// /v1/schedule request after reading the body. The documents are the grid
// problems of seeds 1 to 4, one sub-benchmark per graph size cycling over
// every path count. One op is one document.
func BenchmarkDecodeProblem(b *testing.B) {
	docs := gridProblemDocs(b)
	for _, n := range benchGridNodes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := service.FromDoc(docs[n][i%len(docs[n])]); err != nil {
					b.Fatalf("FromDoc: %v", err)
				}
			}
		})
	}
}

// BenchmarkReadProblem measures the request side of a /v1/schedule miss,
// everything before the scheduling: reading the body (textio.ReadProblem),
// decoding it (service.FromDoc) and hashing the problem as the service
// keys its memo (textio.ProblemHash of the re-encoded problem). The bodies
// are the grid problems of seeds 1 to 4 as perfbench sends them, indented
// by textio.WriteProblem, one sub-benchmark per graph size cycling over
// every path count. One op is one body.
func BenchmarkReadProblem(b *testing.B) {
	bodies := map[int][][]byte{}
	for n, docs := range gridProblemDocs(b) {
		for _, d := range docs {
			var buf bytes.Buffer
			if err := textio.WriteProblem(&buf, d); err != nil {
				b.Fatalf("WriteProblem: %v", err)
			}
			bodies[n] = append(bodies[n], buf.Bytes())
		}
	}
	for _, n := range benchGridNodes {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				doc, err := textio.ReadProblem(bytes.NewReader(bodies[n][i%len(bodies[n])]))
				if err != nil {
					b.Fatalf("ReadProblem: %v", err)
				}
				prob, err := service.FromDoc(doc)
				if err != nil {
					b.Fatalf("FromDoc: %v", err)
				}
				if _, err := textio.ProblemHash(textio.EncodeProblem(prob.Graph, prob.Arch, prob.Options)); err != nil {
					b.Fatalf("ProblemHash: %v", err)
				}
			}
		})
	}
}

// BenchmarkListschedInner measures one run of the heap-based list scheduler
// on a prebuilt 120-node subgraph with a reused scratch — the innermost unit
// of work of the whole system, stripped of subgraph extraction and merging.
func BenchmarkListschedInner(b *testing.B) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 120, TargetPaths: 18, Processors: 6, Hardware: 1, Buses: 3})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	paths, err := inst.Graph.AlternativePaths(0)
	if err != nil {
		b.Fatalf("AlternativePaths: %v", err)
	}
	subs := make([]*cpg.Subgraph, len(paths))
	for i, p := range paths {
		subs[i] = inst.Graph.Subgraph(p)
	}
	sc := new(listsched.Scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sc.Schedule(subs[i%len(subs)], inst.Arch, listsched.Options{}); err != nil {
			b.Fatalf("Schedule: %v", err)
		}
	}
}

// BenchmarkValidate measures the validation stage as core.Schedule runs it:
// the row checks of the table, then the re-enactment of every path on one
// goroutine, reusing the subgraphs built during path scheduling.
func BenchmarkValidate(b *testing.B) {
	inst, err := gen.Generate(gen.Config{Seed: 42, Nodes: 120, TargetPaths: 32, Processors: 8, Hardware: 1, Buses: 4})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
	if err != nil {
		b.Fatalf("Schedule: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := res.Table.Validate(inst.Graph); len(v) != 0 {
			b.Fatalf("unexpected violations: %v", v)
		}
		simRes, err := sim.WorstCaseSubgraphs(inst.Arch, res.Table, res.Subgraphs, 1)
		if err != nil {
			b.Fatalf("WorstCaseSubgraphs: %v", err)
		}
		if simRes.DeltaMax != res.DeltaMax {
			b.Fatalf("DeltaMax = %d, want %d", simRes.DeltaMax, res.DeltaMax)
		}
	}
}

// BenchmarkListSchedule120 measures list scheduling of the individual
// alternative paths of 120-node graphs (section 6 quotes less than 0.003 s
// per graph for this step).
func BenchmarkListSchedule120(b *testing.B) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 120, TargetPaths: 18, Processors: 6, Hardware: 1, Buses: 3})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	paths, err := inst.Graph.AlternativePaths(0)
	if err != nil {
		b.Fatalf("AlternativePaths: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schedulePaths(b, inst.Graph, inst.Arch, paths)
	}
	b.ReportMetric(float64(len(paths)), "paths")
}

// schedulePaths list-schedules every path with the critical-path priority on
// one fresh scratch, extracting each path's subgraph, and returns δM, the
// largest path delay.
func schedulePaths(b *testing.B, g *cpg.Graph, a *arch.Architecture, paths []*cpg.Path) int64 {
	var sc listsched.Scratch
	var deltaM int64
	for _, p := range paths {
		ps, _, err := sc.Schedule(g.Subgraph(p), a, listsched.Options{})
		if err != nil {
			b.Fatalf("Schedule: %v", err)
		}
		deltaM = max(deltaM, ps.Delay)
	}
	return deltaM
}

// BenchmarkTable2OAM regenerates Table 2: the worst-case delay of the three
// OAM modes over the architecture configurations of the paper. The reported
// metric "delay-ns" is the worst-case delay of the mode on the configuration.
func BenchmarkTable2OAM(b *testing.B) {
	configs := []atm.ArchConfig{
		{Processors: []atm.ProcessorType{atm.I486}, Memories: 1},
		{Processors: []atm.ProcessorType{atm.Pentium}, Memories: 1},
		{Processors: []atm.ProcessorType{atm.I486, atm.I486}, Memories: 1},
		{Processors: []atm.ProcessorType{atm.Pentium, atm.Pentium}, Memories: 1},
		{Processors: []atm.ProcessorType{atm.Pentium, atm.Pentium}, Memories: 2},
	}
	for _, mode := range []atm.Mode{atm.Mode1, atm.Mode2, atm.Mode3} {
		for _, cfg := range configs {
			mode, cfg := mode, cfg
			b.Run(fmt.Sprintf("mode=%d/%s", int(mode), cfg.Label()), func(b *testing.B) {
				var ev *atm.Evaluation
				for i := 0; i < b.N; i++ {
					var err error
					ev, err = atm.Evaluate(mode, cfg, core.Options{})
					if err != nil {
						b.Fatalf("Evaluate: %v", err)
					}
				}
				b.ReportMetric(float64(ev.Delay), "delay-ns")
			})
		}
	}
}

// ablationInstance is the shared random instance used by the ablation
// benchmarks so that their reported metrics are directly comparable.
func ablationInstance(b *testing.B) *gen.Instance {
	b.Helper()
	inst, err := gen.Generate(gen.Config{Seed: 77, Nodes: 80, TargetPaths: 24, Processors: 4, Hardware: 1, Buses: 2})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	return inst
}

// BenchmarkAblationPathSelection compares the paper's largest-delay-first
// path selection (rule 1 of section 5.1) against smaller-delay-first and
// enumeration order.
func BenchmarkAblationPathSelection(b *testing.B) {
	inst := ablationInstance(b)
	for _, sel := range []core.PathSelection{core.SelectLargestDelay, core.SelectSmallestDelay, core.SelectFirst} {
		sel := sel
		b.Run(sel.String(), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Schedule(inst.Graph, inst.Arch, core.Options{PathSelection: sel})
				if err != nil {
					b.Fatalf("Schedule: %v", err)
				}
			}
			b.ReportMetric(res.IncreasePercent(), "increase-%")
			b.ReportMetric(float64(res.DeltaMax), "deltaMax")
		})
	}
}

// BenchmarkAblationPathPriority compares the critical-path list-scheduling
// priority used for the individual paths against a plain fixed-order
// priority, which without Order values picks ready processes in ProcID
// order.
func BenchmarkAblationPathPriority(b *testing.B) {
	inst := ablationInstance(b)
	for _, prio := range []listsched.Priority{listsched.PriorityCriticalPath, listsched.PriorityFixedOrder} {
		prio := prio
		b.Run(prio.String(), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Schedule(inst.Graph, inst.Arch, core.Options{PathPriority: prio})
				if err != nil {
					b.Fatalf("Schedule: %v", err)
				}
			}
			b.ReportMetric(float64(res.DeltaM), "deltaM")
			b.ReportMetric(float64(res.DeltaMax), "deltaMax")
		})
	}
}

// BenchmarkStrategies compares every per-path scheduling strategy
// on the shared ablation instance: ns/op is the cost axis of the tradeoff,
// and the reported deltaM/deltaMax/increase-% metrics are the quality axis
// (worst-case δ), so BENCH_results.json records one quality-and-speed
// trajectory per strategy across PRs.
func BenchmarkStrategies(b *testing.B) {
	inst := ablationInstance(b)
	for _, name := range listsched.StrategyNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Schedule(inst.Graph, inst.Arch, core.Options{Strategy: name})
				if err != nil {
					b.Fatalf("Schedule: %v", err)
				}
			}
			b.ReportMetric(float64(res.DeltaM), "deltaM")
			b.ReportMetric(float64(res.DeltaMax), "deltaMax")
			b.ReportMetric(res.IncreasePercent(), "increase-%")
		})
	}
}

// BenchmarkTabuInner measures one tabu improvement run on a prebuilt
// 120-node subgraph with a reused scratch — the per-path unit of work the
// tabu strategy adds on top of BenchmarkListschedInner.
func BenchmarkTabuInner(b *testing.B) {
	inst, err := gen.Generate(gen.Config{Seed: 3, Nodes: 120, TargetPaths: 18, Processors: 6, Hardware: 1, Buses: 3})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	paths, err := inst.Graph.AlternativePaths(0)
	if err != nil {
		b.Fatalf("AlternativePaths: %v", err)
	}
	subs := make([]*cpg.Subgraph, len(paths))
	for i, p := range paths {
		subs[i] = inst.Graph.Subgraph(p)
	}
	tabu, ok := listsched.LookupStrategy("tabu")
	if !ok {
		b.Fatalf("tabu strategy not found")
	}
	sc := new(listsched.Scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tabu.SchedulePath(sc, subs[i%len(subs)], inst.Arch, listsched.StrategyParams{}); err != nil {
			b.Fatalf("SchedulePath: %v", err)
		}
	}
}

// BenchmarkAblationConflictPolicy compares Theorem-2 conflict resolution with
// the naive delay-to-latest policy.
func BenchmarkAblationConflictPolicy(b *testing.B) {
	inst := ablationInstance(b)
	for _, pol := range []core.ConflictPolicy{core.ConflictMoveToExisting, core.ConflictDelayToLatest} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Schedule(inst.Graph, inst.Arch, core.Options{ConflictPolicy: pol})
				if err != nil {
					b.Fatalf("Schedule: %v", err)
				}
			}
			b.ReportMetric(res.IncreasePercent(), "increase-%")
			b.ReportMetric(float64(res.Stats.Conflicts), "conflicts")
		})
	}
}

// BenchmarkCubeOps measures the core condition-algebra operations on a fixed
// population of cubes. With the bitset representation every one of these is a
// handful of word operations and none allocates; the committed numbers pin
// that floor so a representation change that reintroduces per-literal work
// shows up in the trajectory diff.
func BenchmarkCubeOps(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cubes := make([]cond.Cube, 16)
	for i := range cubes {
		c := cond.True()
		for x := 0; x < 12; x++ {
			if rng.Intn(3) == 0 {
				c = c.MustWith(cond.Cond(x), rng.Intn(2) == 0)
			}
		}
		cubes[i] = c
	}
	var boolSink bool
	var intSink int
	pair := func(i int) (cond.Cube, cond.Cube) {
		return cubes[i%len(cubes)], cubes[(i*7+3)%len(cubes)]
	}
	b.Run("Implies", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, y := pair(i)
			boolSink = x.Implies(y)
		}
	})
	b.Run("Compatible", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, y := pair(i)
			boolSink = x.Compatible(y)
		}
	})
	b.Run("And", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, y := pair(i)
			_, boolSink = x.And(y)
		}
	})
	b.Run("Compare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, y := pair(i)
			intSink = x.Compare(y)
		}
	})
	_, _ = boolSink, intSink
}
