// Package repro is the public entry point of the reproduction of
// "Scheduling of Conditional Process Graphs for the Synthesis of Embedded
// Systems" (Eles, Kuchcinski, Peng, Doboli, Pop — DATE 1998).
//
// The package re-exports the building blocks needed by a downstream user:
//
//   - the conditional process graph model (cpg),
//   - the target architecture model (arch),
//   - the schedule-table generation algorithm (core), which is the primary
//     contribution of the paper,
//   - the list scheduler for individual alternative paths (listsched),
//   - the table-driven execution simulator (sim),
//   - the random graph generator used by the experiments (gen), and
//   - JSON/DOT serialization (textio).
//
// A minimal end-to-end use looks like this:
//
//	a := repro.NewArchitecture()
//	cpu1 := a.AddProcessor("cpu1", 1)
//	cpu2 := a.AddProcessor("cpu2", 1)
//	bus := a.AddBus("bus", true)
//
//	g := repro.NewGraph("example")
//	d := g.AddProcess("D", 4, cpu1)
//	x := g.AddProcess("X", 6, cpu2)
//	y := g.AddProcess("Y", 3, cpu1)
//	c := g.AddCondition("C", d)
//	g.AddCondEdge(d, x, c, true)
//	g.AddCondEdge(d, y, c, false)
//	repro.InsertComms(g, a, repro.UniformComms(2, bus))
//
//	res, err := repro.Schedule(g, a, repro.Options{})
//	// res.Table is the schedule table, res.DeltaM / res.DeltaMax the delays.
//
// The experiments of the paper (Table 1, Fig. 2, Fig. 5, Fig. 6, Table 2) are
// regenerated by the benchmarks in bench_test.go and by the cpgexper command.
package repro

import (
	"context"
	"io"

	"repro/internal/arch"
	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/textio"
)

// Model types.
type (
	// Graph is a conditional process graph.
	Graph = cpg.Graph
	// Process is one node of a conditional process graph.
	Process = cpg.Process
	// ProcID identifies a process.
	ProcID = cpg.ProcID
	// Subgraph is the part of a graph active on one alternative path.
	Subgraph = cpg.Subgraph
	// Path is one alternative path through the graph.
	Path = cpg.Path
	// CommSpec describes one inserted communication process.
	CommSpec = cpg.CommSpec
	// CommPlanner decides transfer times and bus assignment of
	// communication processes.
	CommPlanner = cpg.CommPlanner

	// Architecture is the set of processing elements plus τ0.
	Architecture = arch.Architecture
	// PE is one processing element.
	PE = arch.PE
	// PEID identifies a processing element.
	PEID = arch.PEID

	// Options configures the schedule-table generation.
	Options = core.Options
	// Result is the outcome of the schedule-table generation.
	Result = core.Result
	// Stats summarises the work done by the merging algorithm.
	Stats = core.Stats
	// PathResult pairs a path with its optimal and table delays.
	PathResult = core.PathResult

	// ScheduleTable is the generated schedule table.
	ScheduleTable = table.Table
	// TableEntry is one cell of the schedule table.
	TableEntry = table.Entry
	// RenderOptions controls the text rendering of a schedule table.
	RenderOptions = table.RenderOptions

	// PathSchedule is the schedule of one alternative path.
	PathSchedule = sched.PathSchedule
	// Key identifies a schedulable activity (process or broadcast).
	Key = sched.Key

	// Trace is the re-enactment of one path against a schedule table.
	Trace = sim.Trace
	// Activation is one activity of a Trace and the interval it executes in.
	Activation = sim.Activation

	// GenConfig configures the random graph generator.
	GenConfig = gen.Config
	// GenInstance is a generated problem instance.
	GenInstance = gen.Instance
)

// Process kinds.
const (
	KindOrdinary = cpg.KindOrdinary
	KindComm     = cpg.KindComm
	KindSource   = cpg.KindSource
	KindSink     = cpg.KindSink
)

// Processing element kinds.
const (
	KindProcessor = arch.KindProcessor
	KindHardware  = arch.KindHardware
	KindBus       = arch.KindBus
	KindMemory    = arch.KindMemory
)

// NoPE is the sentinel "not mapped" processing element.
const NoPE = arch.NoPE

// Path selection and conflict resolution policies (see core.Options).
const (
	SelectLargestDelay  = core.SelectLargestDelay
	SelectSmallestDelay = core.SelectSmallestDelay
	SelectFirst         = core.SelectFirst

	ConflictMoveToExisting = core.ConflictMoveToExisting
	ConflictDelayToLatest  = core.ConflictDelayToLatest

	PriorityCriticalPath = listsched.PriorityCriticalPath
	PriorityFixedOrder   = listsched.PriorityFixedOrder
)

// Strategy is a per-path scheduling strategy (see listsched.Strategy);
// StrategyParams tunes a strategy run.
type (
	Strategy       = listsched.Strategy
	StrategyParams = listsched.StrategyParams
)

// DefaultStrategy is the name of the paper's own per-path scheduler;
// Options.Strategy selects a strategy by name.
const DefaultStrategy = listsched.DefaultStrategy

// LookupStrategy returns the strategy with the given name.
func LookupStrategy(name string) (Strategy, bool) { return listsched.LookupStrategy(name) }

// StrategyNames lists the strategies in sorted order.
func StrategyNames() []string { return listsched.StrategyNames() }

// ErrUnknownStrategy is returned when Options.Strategy names no scheduling
// strategy.
var ErrUnknownStrategy = core.ErrUnknownStrategy

// NewGraph returns an empty conditional process graph.
func NewGraph(name string) *Graph { return cpg.New(name) }

// NewArchitecture returns an empty architecture with τ0 = 1.
func NewArchitecture() *Architecture { return arch.New() }

// InsertComms inserts communication processes on the cross-processing-element
// edges of a graph (see cpg.InsertComms).
func InsertComms(g *Graph, a *Architecture, plan CommPlanner) (int, error) {
	return cpg.InsertComms(g, a, plan)
}

// UniformComms returns a communication planner with a fixed transfer time and
// round-robin bus assignment.
func UniformComms(time int64, buses ...PEID) CommPlanner {
	return cpg.UniformComms(time, buses...)
}

// Schedule generates the schedule table for a mapped conditional process
// graph on the given architecture, minimising the worst-case delay.
func Schedule(g *Graph, a *Architecture, opts Options) (*Result, error) {
	return core.Schedule(g, a, opts)
}

// ScheduleContext is Schedule with cancellation: the context is checked
// during the path fan-out and between the back-steps of the merge, so a long
// run aborts promptly when the caller cancels or times out.
func ScheduleContext(ctx context.Context, g *Graph, a *Architecture, opts Options) (*Result, error) {
	return core.ScheduleContext(ctx, g, a, opts)
}

// ErrNegativeWorkers is returned when Options.Workers is negative.
var ErrNegativeWorkers = core.ErrNegativeWorkers

// Simulate re-enacts the execution selected by one alternative path against a
// schedule table and checks the requirements of the paper.
func Simulate(g *Graph, a *Architecture, tbl *ScheduleTable, path *Path) (*Trace, error) {
	return sim.Run(g, a, tbl, path)
}

// Generate builds a random conditional process graph and architecture with
// the structural parameters of the paper's experiments.
func Generate(cfg GenConfig) (*GenInstance, error) { return gen.Generate(cfg) }

// Figure1 reconstructs the worked example of the paper (Fig. 1).
func Figure1() (*Graph, *Architecture, error) { return expr.Figure1() }

// OAMMode identifies one mode of the ATM OAM example of Table 2.
type OAMMode = atm.Mode

// The three OAM modes of Table 2.
const (
	OAMMode1 = atm.Mode1
	OAMMode2 = atm.Mode2
	OAMMode3 = atm.Mode3
)

// Dispatch splits the schedule table of a result into the local dispatch
// tables used by the distributed run-time scheduler of each processing
// element (section 3 of the paper).
func Dispatch(res *Result) []*DispatchTable { return core.Dispatch(res) }

// DispatchTable is the local schedule table of one processing element.
type DispatchTable = core.DispatchTable

// RenderDispatch renders the per-processing-element dispatch tables as text.
func RenderDispatch(res *Result, tables []*DispatchTable) string {
	return core.RenderDispatch(res, tables)
}

// WriteTableJSON exports a generated schedule table as JSON.
func WriteTableJSON(w io.Writer, g *Graph, tbl *ScheduleTable) error {
	return textio.WriteTableJSON(w, g, tbl)
}

// WriteTableCSV exports a generated schedule table as CSV in the layout of
// Table 1 of the paper.
func WriteTableCSV(w io.Writer, g *Graph, tbl *ScheduleTable) error {
	return textio.WriteTableCSV(w, g, tbl)
}

// ReadTableJSON parses a schedule table exported by WriteTableJSON.
func ReadTableJSON(r io.Reader, g *Graph) (*ScheduleTable, error) {
	return textio.ReadTableJSON(r, g)
}

// Versioned document model (v1). A ProblemDoc is a single JSON document
// bundling the graph, the architecture and the scheduling options; a
// SolutionDoc is the matching result document served by cpgserve.
type (
	// ProblemDoc is the versioned single-document problem format.
	ProblemDoc = textio.ProblemDoc
	// SolutionDoc is the versioned result document.
	SolutionDoc = textio.SolutionDoc
	// OptionsDoc is the document form of Options.
	OptionsDoc = textio.OptionsDoc
)

// ProblemVersion is the document version understood by this build.
const ProblemVersion = textio.ProblemVersion

// EncodeProblem bundles a graph, architecture and options into a v1 problem
// document.
func EncodeProblem(g *Graph, a *Architecture, opts Options) *ProblemDoc {
	return textio.EncodeProblem(g, a, opts)
}

// DecodeProblem validates a problem document and rebuilds the in-memory
// model, rejecting unsupported versions, dangling references and cyclic
// graphs.
func DecodeProblem(d *ProblemDoc) (*Graph, *Architecture, Options, error) {
	return textio.DecodeProblem(d)
}

// ReadProblem parses a v1 problem document, rejecting unknown fields and
// unsupported versions.
func ReadProblem(r io.Reader) (*ProblemDoc, error) { return textio.ReadProblem(r) }

// WriteProblem writes a problem document as indented JSON.
func WriteProblem(w io.Writer, d *ProblemDoc) error { return textio.WriteProblem(w, d) }

// EncodeSolution converts a scheduling result into its v1 document form.
func EncodeSolution(res *Result) *SolutionDoc { return textio.EncodeSolution(res) }

// ProblemHash returns the content hash identifying a problem for caching;
// identical hashes yield byte-identical schedule tables.
func ProblemHash(d *ProblemDoc) (string, error) { return textio.ProblemHash(d) }

// Scheduling service: a long-lived, concurrency-aware front end to Schedule
// with a global worker budget and a solved-problem memo (see cmd/cpgserve
// for the HTTP server built on top).
type (
	// Service generates schedule tables on behalf of concurrent callers.
	Service = service.Service
	// ServiceConfig parameterises NewService.
	ServiceConfig = service.Config
	// Problem is one scheduling request handled by a Service.
	Problem = service.Problem
	// Solution is the outcome of one Service request.
	Solution = service.Solution
	// ServiceStats is a snapshot of the Service counters.
	ServiceStats = service.Stats
)

// NewService returns a Service with the given worker budget and memo
// capacity; a negative budget is rejected with ErrNegativeWorkers.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// ProblemFromDoc validates a v1 problem document and converts it into a
// Service request.
func ProblemFromDoc(d *ProblemDoc) (*Problem, error) { return service.FromDoc(d) }

// Distributed experiment sweep: the Fig. 5/6 sweep partitions into shards
// by a stable per-graph hash; shards execute anywhere (in-process, through a
// Service, or on remote cpgserve instances via distrib.Coordinator in
// cmd/cpgexper) and merge back into the exact cells of a single-process run.
type (
	// SweepConfig parameterises the Fig. 5/6 synthetic-graph sweep,
	// including its shard selection.
	SweepConfig = expr.SweepConfig
	// SweepCell aggregates the measurements of one (nodes, paths) cell.
	SweepCell = expr.Cell
	// SweepShardResult carries the raw per-graph results of one shard.
	SweepShardResult = expr.ShardResult
)

// RunSweep executes a whole sweep and returns its per-cell statistics.
func RunSweep(cfg SweepConfig) ([]SweepCell, error) { return expr.RunSweep(cfg) }

// RunSweepShard executes one shard of a sweep; cancelling ctx aborts it
// promptly.
func RunSweepShard(ctx context.Context, cfg SweepConfig) (*SweepShardResult, error) {
	return expr.RunSweepShardContext(ctx, cfg)
}

// MergeSweepCells recombines shard results into the cells of a
// single-process run, detecting coverage gaps and duplicates.
func MergeSweepCells(cfg SweepConfig, shards []*SweepShardResult) ([]SweepCell, error) {
	return expr.MergeCells(cfg, shards)
}

// DOT renders the graph in Graphviz DOT format.
func DOT(g *Graph, a *Architecture) string { return textio.DOT(g, a) }
