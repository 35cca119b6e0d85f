// Package cpg implements the conditional process graph (CPG) abstraction of
// the paper: a directed, acyclic, polar graph Γ(V, ES, EC) whose nodes are
// processes and whose edges are either simple (data flow) or conditional
// (data flow guarded by the value of a condition computed by a disjunction
// process).
//
// Each process is mapped to a processing element of an arch.Architecture:
// ordinary processes to programmable processors or hardware, communication
// processes to buses (or memory modules). The source and sink are dummy
// processes with zero execution time.
//
// The package computes process guards, classifies disjunction and conjunction
// processes, validates the restrictions stated in section 2 of the paper,
// enumerates the alternative paths through the graph and extracts the
// subgraph that is active under a given combination of condition values.
package cpg

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/cond"
)

// ProcID identifies a process within a graph.
type ProcID int

// NoProc is the sentinel for "no process".
const NoProc ProcID = -1

// Kind classifies processes.
type Kind int

const (
	// KindOrdinary is a process specified by the designer and mapped to a
	// processor or hardware element.
	KindOrdinary Kind = iota
	// KindComm is a communication process inserted on an edge connecting
	// processes mapped to different processing elements; it is mapped to
	// a bus (or memory) and its execution time is the transfer time.
	KindComm
	// KindSource is the dummy first process of the polar graph.
	KindSource
	// KindSink is the dummy last process of the polar graph.
	KindSink
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindOrdinary:
		return "ordinary"
	case KindComm:
		return "comm"
	case KindSource:
		return "source"
	case KindSink:
		return "sink"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind converts a kind name produced by Kind.String back into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "ordinary":
		return KindOrdinary, nil
	case "comm":
		return KindComm, nil
	case "source":
		return KindSource, nil
	case "sink":
		return KindSink, nil
	default:
		return 0, fmt.Errorf("cpg: unknown process kind %q", s)
	}
}

// Process is one node of the graph.
type Process struct {
	ID   ProcID
	Name string
	Kind Kind
	// Exec is the nominal execution time tPi (transfer time for
	// communication processes). The dummy source and sink have Exec 0.
	Exec int64
	// PE is the processing element the process is mapped to (NoPE for the
	// dummy source and sink).
	PE arch.PEID
}

// IsDummy reports whether the process is the source or the sink.
func (p *Process) IsDummy() bool { return p.Kind == KindSource || p.Kind == KindSink }

// EdgeID identifies an edge within a graph.
type EdgeID int

// Edge connects two processes. A conditional edge carries a condition literal
// and transmits only when the condition has the given value.
type Edge struct {
	ID       EdgeID
	From, To ProcID
	// HasCond marks a conditional edge (a member of EC).
	HasCond bool
	Cond    cond.Cond
	CondVal bool
}

// Lit returns the condition literal of a conditional edge.
func (e *Edge) Lit() cond.Lit { return cond.Lit{Cond: e.Cond, Val: e.CondVal} }

// CondDef describes one condition: its name and the disjunction process that
// computes its value.
type CondDef struct {
	ID      cond.Cond
	Name    string
	Decider ProcID
}

// Graph is a conditional process graph under construction or finalized.
// Mutating methods (AddProcess, AddEdge, ...) may only be used before
// Finalize; query methods that depend on derived data (guards, topological
// order, disjunction/conjunction classification, path enumeration) require a
// finalized graph.
type Graph struct {
	name  string
	procs []*Process
	edges []*Edge
	out   [][]EdgeID
	in    [][]EdgeID
	conds []*CondDef

	source ProcID
	sink   ProcID

	finalized   bool
	topo        []ProcID
	guards      []cond.DNF
	disjunction []bool
	conjunction []bool
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{name: name, source: NoProc, sink: NoProc}
}

// Name returns the graph name.
func (g *Graph) Name() string { return g.name }

// Finalized reports whether Finalize has completed successfully.
func (g *Graph) Finalized() bool { return g.finalized }

func (g *Graph) addProcess(name string, kind Kind, exec int64, pe arch.PEID) ProcID {
	id := ProcID(len(g.procs))
	if name == "" {
		name = fmt.Sprintf("P%d", int(id))
	}
	g.procs = append(g.procs, &Process{ID: id, Name: name, Kind: kind, Exec: exec, PE: pe})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.finalized = false
	return id
}

// AddProcess adds an ordinary process with execution time exec mapped to pe.
func (g *Graph) AddProcess(name string, exec int64, pe arch.PEID) ProcID {
	return g.addProcess(name, KindOrdinary, exec, pe)
}

// AddComm adds a communication process (transfer time exec) mapped to a bus
// or memory module.
func (g *Graph) AddComm(name string, exec int64, pe arch.PEID) ProcID {
	return g.addProcess(name, KindComm, exec, pe)
}

// AddSource adds the dummy source process. At most one source may exist; if
// none is added explicitly, Finalize creates one.
func (g *Graph) AddSource(name string) ProcID {
	id := g.addProcess(name, KindSource, 0, arch.NoPE)
	g.source = id
	return id
}

// AddSink adds the dummy sink process. At most one sink may exist; if none is
// added explicitly, Finalize creates one.
func (g *Graph) AddSink(name string) ProcID {
	id := g.addProcess(name, KindSink, 0, arch.NoPE)
	g.sink = id
	return id
}

// AddCondition declares a condition computed by the given disjunction
// process and returns its identifier.
func (g *Graph) AddCondition(name string, decider ProcID) cond.Cond {
	id := cond.Cond(len(g.conds))
	if name == "" {
		name = fmt.Sprintf("c%d", int(id))
	}
	g.conds = append(g.conds, &CondDef{ID: id, Name: name, Decider: decider})
	g.finalized = false
	return id
}

func (g *Graph) addEdge(from, to ProcID, hasCond bool, c cond.Cond, v bool) EdgeID {
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, &Edge{ID: id, From: from, To: to, HasCond: hasCond, Cond: c, CondVal: v})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.finalized = false
	return id
}

// AddEdge adds a simple edge from one process to another.
func (g *Graph) AddEdge(from, to ProcID) EdgeID {
	return g.addEdge(from, to, false, cond.None, false)
}

// AddCondEdge adds a conditional edge that transmits only when condition c
// has value v. Conditional edges must leave the disjunction process that
// computes c.
func (g *Graph) AddCondEdge(from, to ProcID, c cond.Cond, v bool) EdgeID {
	return g.addEdge(from, to, true, c, v)
}

// NumProcs returns the number of processes (including dummies and
// communication processes).
func (g *Graph) NumProcs() int { return len(g.procs) }

// NumConds returns the number of conditions.
func (g *Graph) NumConds() int { return len(g.conds) }

// CondMask returns the declared conditions as a bitmask (bit i set means
// condition i exists). Finalize guarantees the count fits cond.MaxConds, so
// the mask is exact for finalized graphs; before Finalize an oversized
// declaration saturates to all ones rather than silently wrapping.
func (g *Graph) CondMask() uint64 {
	n := len(g.conds)
	if n >= cond.MaxConds {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// NumOrdinary returns the number of ordinary processes.
func (g *Graph) NumOrdinary() int {
	n := 0
	for _, p := range g.procs {
		if p.Kind == KindOrdinary {
			n++
		}
	}
	return n
}

// Process returns the process with the given identifier, or nil if out of
// range.
func (g *Graph) Process(id ProcID) *Process {
	if id < 0 || int(id) >= len(g.procs) {
		return nil
	}
	return g.procs[id]
}

// Procs returns all processes in identifier order.
func (g *Graph) Procs() []*Process { return append([]*Process(nil), g.procs...) }

// Edge returns the edge with the given identifier, or nil if out of range.
func (g *Graph) Edge(id EdgeID) *Edge {
	if id < 0 || int(id) >= len(g.edges) {
		return nil
	}
	return g.edges[id]
}

// Edges returns all edges in identifier order.
func (g *Graph) Edges() []*Edge { return append([]*Edge(nil), g.edges...) }

// Conditions returns the condition definitions in identifier order.
func (g *Graph) Conditions() []*CondDef { return append([]*CondDef(nil), g.conds...) }

// Condition returns the definition of condition c, or nil.
func (g *Graph) Condition(c cond.Cond) *CondDef {
	if c < 0 || int(c) >= len(g.conds) {
		return nil
	}
	return g.conds[c]
}

// CondName returns the name of condition c (usable as a cond.Namer).
func (g *Graph) CondName(c cond.Cond) string {
	if def := g.Condition(c); def != nil {
		return def.Name
	}
	return fmt.Sprintf("c%d", int(c))
}

// Sink returns the dummy sink process identifier.
func (g *Graph) Sink() ProcID { return g.sink }

// Succs returns the successor processes of p.
func (g *Graph) Succs(p ProcID) []ProcID {
	out := make([]ProcID, 0, len(g.out[p]))
	for _, e := range g.out[p] {
		out = append(out, g.edges[e].To)
	}
	return out
}

// Preds returns the predecessor processes of p.
func (g *Graph) Preds(p ProcID) []ProcID {
	out := make([]ProcID, 0, len(g.in[p]))
	for _, e := range g.in[p] {
		out = append(out, g.edges[e].From)
	}
	return out
}

// FindByName returns the process with the given name.
func (g *Graph) FindByName(name string) (ProcID, bool) {
	for _, p := range g.procs {
		if p.Name == name {
			return p.ID, true
		}
	}
	return NoProc, false
}

// Guard returns the guard XPi of process p: the necessary condition for the
// process to be activated. The graph must be finalized.
func (g *Graph) Guard(p ProcID) cond.DNF {
	g.mustBeFinalized()
	return g.guards[p]
}

// IsDisjunction reports whether p is a disjunction process (it has
// conditional output edges). The graph must be finalized.
func (g *Graph) IsDisjunction(p ProcID) bool {
	g.mustBeFinalized()
	return g.disjunction[p]
}

// IsConjunction reports whether p is a conjunction process (alternative
// paths meet in it, i.e. some predecessor may be inactive while p is active).
// The graph must be finalized.
func (g *Graph) IsConjunction(p ProcID) bool {
	g.mustBeFinalized()
	return g.conjunction[p]
}

func (g *Graph) mustBeFinalized() {
	if !g.finalized {
		panic("cpg: graph must be finalized before derived queries")
	}
}

// Finalize completes the graph: it adds a dummy source and sink when missing,
// computes a topological order (failing on cycles), computes guards,
// classifies disjunction and conjunction processes and validates the model
// restrictions. It is idempotent.
func (g *Graph) Finalize(a *arch.Architecture) error {
	if g.finalized {
		return nil
	}
	// The bitset condition algebra caps conditions per graph; reject the
	// graph here, before guards build any cube, so an oversized model fails
	// with a clear error instead of a panic deep in the cond package.
	if len(g.conds) > cond.MaxConds {
		return fmt.Errorf("cpg: graph %q declares %d conditions, more than the %d the bitset condition algebra supports",
			g.name, len(g.conds), cond.MaxConds)
	}
	if err := g.ensurePolar(); err != nil {
		return err
	}
	if err := g.computeTopo(); err != nil {
		return err
	}
	g.computeGuards()
	g.classify()
	if err := g.validate(a); err != nil {
		return err
	}
	g.finalized = true
	return nil
}

// ensurePolar adds a dummy source connected to every process without
// predecessors and a dummy sink fed by every process without successors.
func (g *Graph) ensurePolar() error {
	if g.source == NoProc {
		roots := []ProcID{}
		for _, p := range g.procs {
			if p.Kind == KindSink {
				continue
			}
			if len(g.in[p.ID]) == 0 {
				roots = append(roots, p.ID)
			}
		}
		if len(g.procs) == 0 {
			return errors.New("cpg: graph has no processes")
		}
		src := g.AddSource("P0src")
		for _, r := range roots {
			g.AddEdge(src, r)
		}
	}
	if g.sink == NoProc {
		leaves := []ProcID{}
		for _, p := range g.procs {
			if p.Kind == KindSource {
				continue
			}
			if len(g.out[p.ID]) == 0 {
				leaves = append(leaves, p.ID)
			}
		}
		snk := g.AddSink("Psink")
		for _, l := range leaves {
			g.AddEdge(l, snk)
		}
	}
	// A source added explicitly but left unconnected to the roots would
	// break polarity; connect it.
	for _, p := range g.procs {
		if p.ID == g.source || p.ID == g.sink {
			continue
		}
		if len(g.in[p.ID]) == 0 {
			g.AddEdge(g.source, p.ID)
		}
		if len(g.out[p.ID]) == 0 {
			g.AddEdge(p.ID, g.sink)
		}
	}
	return nil
}

// computeTopo performs a Kahn topological sort, reporting an error on cycles.
func (g *Graph) computeTopo() error {
	n := len(g.procs)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	queue := []ProcID{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, ProcID(i))
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	order := make([]ProcID, 0, n)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		order = append(order, p)
		next := []ProcID{}
		for _, e := range g.out[p] {
			to := g.edges[e].To
			indeg[to]--
			if indeg[to] == 0 {
				next = append(next, to)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		queue = append(queue, next...)
	}
	if len(order) != n {
		return errors.New("cpg: graph contains a cycle")
	}
	g.topo = order
	return nil
}

// computeGuards derives the guard of every process in topological order:
// the guard of the source is true and the guard of a process is the
// disjunction, over its incoming edges, of the predecessor guard conjoined
// with the edge condition.
func (g *Graph) computeGuards() {
	n := len(g.procs)
	g.guards = make([]cond.DNF, n)
	for i := range g.guards {
		g.guards[i] = cond.DNFFalse()
	}
	for _, p := range g.topo {
		if len(g.in[p]) == 0 {
			g.guards[p] = cond.DNFTrue()
			continue
		}
		acc := cond.DNFFalse()
		for _, eid := range g.in[p] {
			e := g.edges[eid]
			contrib := g.guards[e.From]
			if e.HasCond {
				contrib = contrib.AndCube(cond.MustCube(e.Lit()))
			}
			acc = acc.Or(contrib)
		}
		g.guards[p] = acc
	}
}

// classify marks disjunction processes (conditional output edges) and
// conjunction processes (some incoming contribution is not implied by the
// node guard, i.e. alternative paths meet here).
func (g *Graph) classify() {
	n := len(g.procs)
	g.disjunction = make([]bool, n)
	g.conjunction = make([]bool, n)
	for _, p := range g.procs {
		for _, eid := range g.out[p.ID] {
			if g.edges[eid].HasCond {
				g.disjunction[p.ID] = true
				break
			}
		}
		if len(g.in[p.ID]) == 0 {
			continue
		}
		for _, eid := range g.in[p.ID] {
			e := g.edges[eid]
			contrib := g.guards[e.From]
			if e.HasCond {
				contrib = contrib.AndCube(cond.MustCube(e.Lit()))
			}
			if !g.guards[p.ID].Implies(contrib) {
				g.conjunction[p.ID] = true
				break
			}
		}
	}
}

// validate checks the model restrictions of section 2 of the paper.
func (g *Graph) validate(a *arch.Architecture) error {
	if g.source == NoProc || g.sink == NoProc {
		return errors.New("cpg: graph is not polar (missing source or sink)")
	}
	// Mapping checks.
	for _, p := range g.procs {
		switch p.Kind {
		case KindSource, KindSink:
			if p.Exec != 0 {
				return fmt.Errorf("cpg: dummy process %s must have zero execution time", p.Name)
			}
		case KindOrdinary:
			if a != nil {
				pe := a.PE(p.PE)
				if pe == nil {
					return fmt.Errorf("cpg: process %s is not mapped to a processing element", p.Name)
				}
				if pe.Kind != arch.KindProcessor && pe.Kind != arch.KindHardware {
					return fmt.Errorf("cpg: ordinary process %s is mapped to %s (%s); it must run on a processor or hardware", p.Name, pe.Name, pe.Kind)
				}
			}
			if p.Exec < 0 {
				return fmt.Errorf("cpg: process %s has negative execution time", p.Name)
			}
		case KindComm:
			if a != nil {
				pe := a.PE(p.PE)
				if pe == nil {
					return fmt.Errorf("cpg: communication process %s is not mapped", p.Name)
				}
				if pe.Kind != arch.KindBus && pe.Kind != arch.KindMemory {
					return fmt.Errorf("cpg: communication process %s is mapped to %s (%s); it must run on a bus or memory", p.Name, pe.Name, pe.Kind)
				}
			}
			if p.Exec < 0 {
				return fmt.Errorf("cpg: communication process %s has negative transfer time", p.Name)
			}
		}
	}
	// Conditions must be decided by existing, non-dummy processes, and all
	// conditional edges carrying a condition must leave its decider.
	for _, cd := range g.conds {
		dec := g.Process(cd.Decider)
		if dec == nil || dec.IsDummy() {
			return fmt.Errorf("cpg: condition %s has no valid disjunction process", cd.Name)
		}
	}
	for _, e := range g.edges {
		if e.From == e.To {
			return fmt.Errorf("cpg: self loop on process %s", g.procs[e.From].Name)
		}
		if !e.HasCond {
			continue
		}
		cd := g.Condition(e.Cond)
		if cd == nil {
			return fmt.Errorf("cpg: edge %s->%s refers to an undeclared condition", g.procs[e.From].Name, g.procs[e.To].Name)
		}
		if cd.Decider != e.From {
			return fmt.Errorf("cpg: conditional edge %s->%s carries condition %s which is computed by %s, not by the edge source",
				g.procs[e.From].Name, g.procs[e.To].Name, cd.Name, g.procs[cd.Decider].Name)
		}
	}
	// The source must reach everything and everything must reach the sink
	// (polarity); guaranteed by ensurePolar, but verify for explicitly
	// provided sources/sinks.
	if !g.reachesAllFrom(g.source, true) {
		return errors.New("cpg: not every process is a successor of the source")
	}
	if !g.reachesAllFrom(g.sink, false) {
		return errors.New("cpg: not every process is a predecessor of the sink")
	}
	// Restriction: an edge eij into a non-conjunction process Pj requires
	// XPj => XPi (and => the edge condition), so a process never waits for
	// a message that cannot arrive.
	for _, p := range g.procs {
		if g.conjunction[p.ID] {
			continue
		}
		for _, eid := range g.in[p.ID] {
			e := g.edges[eid]
			contrib := g.guards[e.From]
			if e.HasCond {
				contrib = contrib.AndCube(cond.MustCube(e.Lit()))
			}
			if !g.guards[p.ID].Implies(contrib) {
				return fmt.Errorf("cpg: guard of %s does not imply the guard of its predecessor %s (non-conjunction process would block)",
					g.procs[p.ID].Name, g.procs[e.From].Name)
			}
		}
	}
	// A process with a false guard can never execute.
	for _, p := range g.procs {
		if g.guards[p.ID].IsFalse() {
			return fmt.Errorf("cpg: process %s has an unsatisfiable guard", g.procs[p.ID].Name)
		}
	}
	return nil
}

// reachesAllFrom checks that every process is reachable from start following
// edges forward (forward=true) or backward (forward=false).
func (g *Graph) reachesAllFrom(start ProcID, forward bool) bool {
	seen := make([]bool, len(g.procs))
	stack := []ProcID{start}
	seen[start] = true
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var next []ProcID
		if forward {
			next = g.Succs(p)
		} else {
			next = g.Preds(p)
		}
		for _, q := range next {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}
