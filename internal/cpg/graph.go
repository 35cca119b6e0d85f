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
	"slices"
	"strconv"

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
	conds []*CondDef
	// freeProcs, freeEdges and freeConds are the unused rest of the chunks
	// processes, edges and conditions are allocated from (see next).
	freeProcs []Process
	freeEdges []Edge
	freeConds []CondDef

	source ProcID
	sink   ProcID

	finalized bool
	// adjOff and adj are the adjacency Finalize lays out for n processes:
	// the edges into p are adj[adjOff[p]:adjOff[p+1]] and the edges out of
	// p adj[adjOff[n+p]:adjOff[n+p+1]], each list in identifier order.
	adjOff      []int32
	adj         []EdgeID
	topo        []ProcID
	guards      []cond.DNF
	disjunction []bool
	conjunction []bool
}

// next returns the first element of *free and removes it, first refilling
// *free with a chunk of max(8, have) new elements when it is empty. With have
// the number of elements handed out so far, n elements take O(log n)
// allocations, and a returned pointer stays valid however many follow.
func next[T any](free *[]T, have int) *T {
	if len(*free) == 0 {
		*free = make([]T, max(8, have))
	}
	p := &(*free)[0]
	*free = (*free)[1:]
	return p
}

// numbered returns prefix followed by the decimal digits of i.
func numbered(prefix string, i int) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10))
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
		name = numbered("P", int(id))
	}
	p := next(&g.freeProcs, len(g.procs))
	*p = Process{ID: id, Name: name, Kind: kind, Exec: exec, PE: pe}
	g.procs = append(g.procs, p)
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
		name = numbered("c", int(id))
	}
	cd := next(&g.freeConds, len(g.conds))
	*cd = CondDef{ID: id, Name: name, Decider: decider}
	g.conds = append(g.conds, cd)
	g.finalized = false
	return id
}

func (g *Graph) addEdge(from, to ProcID, hasCond bool, c cond.Cond, v bool) EdgeID {
	if g.Process(from) == nil || g.Process(to) == nil {
		panic(fmt.Sprintf("cpg: edge %d->%d of graph %q names a process it does not have", from, to, g.name))
	}
	id := EdgeID(len(g.edges))
	e := next(&g.freeEdges, len(g.edges))
	*e = Edge{ID: id, From: from, To: to, HasCond: hasCond, Cond: c, CondVal: v}
	g.edges = append(g.edges, e)
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

// inEdges returns the edges into p in identifier order. The graph must be
// finalized; the slice is shared and must not be modified.
func (g *Graph) inEdges(p ProcID) []EdgeID { return g.adj[g.adjOff[p]:g.adjOff[p+1]] }

// outEdges returns the edges out of p in identifier order. The graph must be
// finalized; the slice is shared and must not be modified.
func (g *Graph) outEdges(p ProcID) []EdgeID {
	n := ProcID(len(g.procs))
	return g.adj[g.adjOff[n+p]:g.adjOff[n+p+1]]
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
	g.layOutAdjacency()
	if err := g.computeTopo(); err != nil {
		return err
	}
	contrib := g.computeGuards()
	g.classify(contrib)
	if err := g.validate(a, contrib); err != nil {
		return err
	}
	g.finalized = true
	return nil
}

// ensurePolar adds a dummy source connected to every process without
// predecessors and a dummy sink fed by every process without successors.
func (g *Graph) ensurePolar() error {
	if len(g.procs) == 0 {
		return errors.New("cpg: graph has no processes")
	}
	// Count every process's edges, with room for the two dummies, and keep
	// the counts up to date as edges are added.
	n := len(g.procs)
	deg := make([]int32, 2*(n+2))
	in, out := deg[:n+2], deg[n+2:]
	for _, e := range g.edges {
		out[e.From]++
		in[e.To]++
	}
	link := func(from, to ProcID) {
		g.AddEdge(from, to)
		out[from]++
		in[to]++
	}
	if g.source == NoProc {
		src := g.AddSource("P0src")
		for _, p := range g.procs[:n] {
			if p.Kind != KindSink && in[p.ID] == 0 {
				link(src, p.ID)
			}
		}
	}
	if g.sink == NoProc {
		m := len(g.procs)
		snk := g.AddSink("Psink")
		for _, p := range g.procs[:m] {
			if p.Kind != KindSource && out[p.ID] == 0 {
				link(p.ID, snk)
			}
		}
	}
	// A source added explicitly but left unconnected to the roots would
	// break polarity; connect it.
	for _, p := range g.procs {
		if p.ID == g.source || p.ID == g.sink {
			continue
		}
		if in[p.ID] == 0 {
			link(g.source, p.ID)
		}
		if out[p.ID] == 0 {
			link(p.ID, g.sink)
		}
	}
	return nil
}

// layOutAdjacency lays out the edges into and out of every process in adj,
// indexed by adjOff: a counting sort over the edges in identifier order, so
// every list is in identifier order.
func (g *Graph) layOutAdjacency() {
	n := len(g.procs)
	off := resize(g.adjOff, 2*n+1)
	clear(off)
	// Count the edges of every list, then turn the counts into start offsets.
	for _, e := range g.edges {
		off[e.To]++
		off[n+int(e.From)]++
	}
	var sum int32
	for i, c := range off[:2*n] {
		off[i] = sum
		sum += c
	}
	off[2*n] = sum
	adj := resize(g.adj, int(sum))
	for _, e := range g.edges {
		adj[off[e.To]] = e.ID
		off[e.To]++
		adj[off[n+int(e.From)]] = e.ID
		off[n+int(e.From)]++
	}
	// Each list's offset now points at its end, the start of the next
	// list: shift the offsets back by one list.
	copy(off[1:], off[:2*n])
	off[0] = 0
	g.adjOff, g.adj = off, adj
}

// computeTopo performs a Kahn topological sort, reporting an error on cycles.
// It visits the processes ready to run in first-in first-out order, and the
// processes made ready by one visit in identifier order.
func (g *Graph) computeTopo() error {
	n := len(g.procs)
	indeg := make([]int32, n)
	order := make([]ProcID, 0, n)
	for p := range ProcID(n) {
		indeg[p] = int32(len(g.inEdges(p)))
		if indeg[p] == 0 {
			order = append(order, p)
		}
	}
	// order is also the queue: order[head:] are the processes not yet
	// visited.
	for head := 0; head < len(order); head++ {
		ready := len(order)
		for _, eid := range g.outEdges(order[head]) {
			to := g.edges[eid].To
			indeg[to]--
			if indeg[to] == 0 {
				order = append(order, to)
			}
		}
		slices.Sort(order[ready:])
	}
	if len(order) != n {
		return errors.New("cpg: graph contains a cycle")
	}
	g.topo = order
	return nil
}

// computeGuards derives the guard of every process in topological order:
// the guard of the source is true and the guard of a process is the
// disjunction, over its incoming edges, of the edge's contribution: the
// predecessor guard conjoined with the edge condition. It returns the
// contribution of every edge, indexed by EdgeID. DNFs are immutable, so a
// process with one simple incoming edge shares its predecessor's guard.
func (g *Graph) computeGuards() []cond.DNF {
	g.guards = make([]cond.DNF, len(g.procs))
	contrib := make([]cond.DNF, len(g.edges))
	for _, p := range g.topo {
		in := g.inEdges(p)
		if len(in) == 0 {
			g.guards[p] = cond.DNFTrue()
			continue
		}
		acc := cond.DNFFalse()
		for _, eid := range in {
			e := g.edges[eid]
			c := g.guards[e.From]
			if e.HasCond {
				c = c.AndCube(cond.MustCube(e.Lit()))
			}
			contrib[eid] = c
			acc = acc.Or(c)
		}
		g.guards[p] = acc
	}
	return contrib
}

// classify marks disjunction processes (conditional output edges) and
// conjunction processes (some incoming contribution is not implied by the
// node guard, i.e. alternative paths meet here).
func (g *Graph) classify(contrib []cond.DNF) {
	n := len(g.procs)
	flags := make([]bool, 2*n)
	g.disjunction, g.conjunction = flags[:n:n], flags[n:]
	for p := range ProcID(n) {
		for _, eid := range g.outEdges(p) {
			if g.edges[eid].HasCond {
				g.disjunction[p] = true
				break
			}
		}
		for _, eid := range g.inEdges(p) {
			if !g.guards[p].Implies(contrib[eid]) {
				g.conjunction[p] = true
				break
			}
		}
	}
}

// validate checks the model restrictions of section 2 of the paper, given
// the contribution of every edge to its target's guard.
func (g *Graph) validate(a *arch.Architecture, contrib []cond.DNF) error {
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
	seen := make([]bool, len(g.procs))
	if !g.reachesAll(true, seen) {
		return errors.New("cpg: not every process is a successor of the source")
	}
	if !g.reachesAll(false, seen) {
		return errors.New("cpg: not every process is a predecessor of the sink")
	}
	// Restriction: an edge eij into a non-conjunction process Pj requires
	// XPj => XPi (and => the edge condition), so a process never waits for
	// a message that cannot arrive.
	for _, p := range g.procs {
		if g.conjunction[p.ID] {
			continue
		}
		for _, eid := range g.inEdges(p.ID) {
			if !g.guards[p.ID].Implies(contrib[eid]) {
				return fmt.Errorf("cpg: guard of %s does not imply the guard of its predecessor %s (non-conjunction process would block)",
					g.procs[p.ID].Name, g.procs[g.edges[eid].From].Name)
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

// reachesAll reports whether every process is a successor of the source
// (forward) or a predecessor of the sink (!forward), using seen as scratch.
// It walks the topological order, forward or backward, so every process is
// reached, if at all, before it is visited.
func (g *Graph) reachesAll(forward bool, seen []bool) bool {
	clear(seen)
	n := len(g.topo)
	if forward {
		seen[g.source] = true
		for _, p := range g.topo {
			if !seen[p] {
				return false
			}
			for _, eid := range g.outEdges(p) {
				seen[g.edges[eid].To] = true
			}
		}
		return true
	}
	seen[g.sink] = true
	for i := n - 1; i >= 0; i-- {
		p := g.topo[i]
		if !seen[p] {
			return false
		}
		for _, eid := range g.inEdges(p) {
			seen[g.edges[eid].From] = true
		}
	}
	return true
}
