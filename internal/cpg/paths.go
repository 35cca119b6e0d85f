package cpg

import (
	"fmt"

	"repro/internal/cond"
)

// DefaultMaxPaths bounds the number of alternative paths enumerated by
// AlternativePaths; the experiments of the paper use at most 32.
const DefaultMaxPaths = 4096

// Path describes one alternative path through the graph: the label Lk (a full
// assignment of the conditions decided on the path) and the set of active
// processes.
type Path struct {
	// Label is the conjunction of condition values that selects this path.
	Label cond.Cube
	// Active[p] reports whether process p executes on this path.
	Active []bool
}

// IsActive reports whether process id executes on this path.
func (p *Path) IsActive(id ProcID) bool {
	return int(id) >= 0 && int(id) < len(p.Active) && p.Active[id]
}

// AlternativePaths enumerates every alternative path through the graph, in a
// deterministic order (depth-first over condition identifiers, true branch
// first). maxPaths bounds the enumeration; pass 0 for DefaultMaxPaths.
func (g *Graph) AlternativePaths(maxPaths int) ([]*Path, error) {
	var labels []cond.Cube
	if err := g.pathLabels(maxPaths, func(l cond.Cube) { labels = append(labels, l) }); err != nil {
		return nil, err
	}
	paths := make([]*Path, 0, len(labels))
	for _, l := range labels {
		paths = append(paths, g.PathFor(l))
	}
	return paths, nil
}

// NumAlternativePaths returns the number of alternative paths
// AlternativePaths enumerates, with the same bound and error, without
// building their active sets.
func (g *Graph) NumAlternativePaths(maxPaths int) (int, error) {
	n := 0
	err := g.pathLabels(maxPaths, func(cond.Cube) { n++ })
	return n, err
}

// pathLabels calls visit with the label of every alternative path, in
// enumeration order, and fails once there are more than maxPaths (0 means
// DefaultMaxPaths).
func (g *Graph) pathLabels(maxPaths int, visit func(cond.Cube)) error {
	g.mustBeFinalized()
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	count := 0
	var rec func(assign cond.Cube) error
	rec = func(assign cond.Cube) error {
		if count > maxPaths {
			return fmt.Errorf("cpg: more than %d alternative paths", maxPaths)
		}
		// Find the lowest-numbered condition whose disjunction process is
		// active under the current partial assignment and which is not yet
		// assigned.
		next := cond.None
		for _, cd := range g.conds {
			if assign.Has(cd.ID) {
				continue
			}
			if g.guards[cd.Decider].SatisfiedBy(assign) {
				next = cd.ID
				break
			}
		}
		if next == cond.None {
			count++
			if count > maxPaths {
				return fmt.Errorf("cpg: more than %d alternative paths", maxPaths)
			}
			visit(assign)
			return nil
		}
		if err := rec(assign.MustWith(next, true)); err != nil {
			return err
		}
		return rec(assign.MustWith(next, false))
	}
	return rec(cond.True())
}

// PathFor returns the path (active process set) selected by the given full
// label. The label must assign a value to every condition whose disjunction
// process is active under it.
func (g *Graph) PathFor(label cond.Cube) *Path {
	g.mustBeFinalized()
	active := make([]bool, len(g.procs))
	for _, p := range g.procs {
		active[p.ID] = g.guards[p.ID].SatisfiedBy(label)
	}
	return &Path{Label: label, Active: active}
}

// Subgraph is the part of the graph active under one alternative path, with
// adjacency restricted to active processes and edges. The active adjacency is
// precomputed at extraction time in compressed sparse row form: one offsets
// array and one backing array hold the predecessors and then the successors
// of every process, so the per-call accessors used inside the scheduler's
// inner loop never allocate, and a subgraph takes a fixed number of
// allocations whatever the size of the graph. SubgraphInto re-extracts into
// the buffers of a subgraph its caller no longer reads.
type Subgraph struct {
	G      *Graph
	Label  cond.Cube
	active []bool
	topo   []ProcID
	// adjOff has 2n+1 offsets into adj for a graph with n processes: the
	// active predecessors of p are adj[adjOff[p]:adjOff[p+1]], its active
	// successors adj[adjOff[n+p]:adjOff[n+p+1]].
	adjOff  []int32
	adj     []ProcID
	decided []cond.Cond
	// flags backs active and then the active-edge flags of the extraction;
	// back backs topo and then adj.
	flags []bool
	back  []ProcID
}

// Subgraph extracts the active subgraph Gk for a path.
func (g *Graph) Subgraph(p *Path) *Subgraph {
	return g.SubgraphInto(nil, p)
}

// SubgraphInto is Subgraph writing into dst, reusing its buffers, and
// returning it; a nil dst gets a new subgraph. dst may come from any graph.
func (g *Graph) SubgraphInto(dst *Subgraph, p *Path) *Subgraph {
	g.mustBeFinalized()
	n := len(g.procs)
	s := dst
	if s == nil {
		s = new(Subgraph)
	}
	s.G, s.Label = g, p.Label
	s.flags = resize(s.flags, n+len(g.edges))
	s.active = s.flags[:n:n]
	activeEdge := s.flags[n:]
	copy(s.active, p.Active)
	clear(activeEdge)
	activeEdges, activeProcs := 0, 0
	for _, e := range g.edges {
		if !s.active[e.From] || !s.active[e.To] {
			continue
		}
		if e.HasCond {
			v, ok := p.Label.Value(e.Cond)
			if !ok || v != e.CondVal {
				continue
			}
		}
		activeEdge[e.ID] = true
		activeEdges++
	}
	for _, a := range s.active {
		if a {
			activeProcs++
		}
	}
	// One backing array holds the topological order, then the predecessor
	// and successor lists; the per-process ordering of the lists matches the
	// edge identifier order of g.inEdges / g.outEdges.
	back := resize(s.back, activeProcs+2*activeEdges)[:0]
	for _, id := range g.topo {
		if s.active[id] {
			back = append(back, id)
		}
	}
	s.topo = back[:activeProcs:activeProcs]
	s.adjOff = resize(s.adjOff, 2*n+1)
	s.adjOff[0] = 0
	for i := 0; i < n; i++ {
		for _, eid := range g.inEdges(ProcID(i)) {
			if activeEdge[eid] {
				back = append(back, g.edges[eid].From)
			}
		}
		s.adjOff[i+1] = int32(len(back) - activeProcs)
	}
	for i := 0; i < n; i++ {
		for _, eid := range g.outEdges(ProcID(i)) {
			if activeEdge[eid] {
				back = append(back, g.edges[eid].To)
			}
		}
		s.adjOff[n+i+1] = int32(len(back) - activeProcs)
	}
	s.back = back
	s.adj = back[activeProcs:]
	decided := 0
	for _, cd := range g.conds {
		if s.active[cd.Decider] {
			decided++
		}
	}
	s.decided = resize(s.decided, decided)[:0]
	for _, cd := range g.conds {
		if s.active[cd.Decider] {
			s.decided = append(s.decided, cd.ID)
		}
	}
	return s
}

// resize returns s with length n, reallocating when its capacity is short:
// exactly for a new slice, with room to grow for a reused one. (slices.Grow
// would allocate twice under the race detector.)
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// Active reports whether process id executes on this path.
func (s *Subgraph) Active(id ProcID) bool {
	return int(id) >= 0 && int(id) < len(s.active) && s.active[id]
}

// ActiveProcs returns the active processes in topological order. The returned
// slice is shared with the subgraph and must not be modified.
func (s *Subgraph) ActiveProcs() []ProcID { return s.topo }

// NumActive returns the number of active processes.
func (s *Subgraph) NumActive() int { return len(s.topo) }

// Preds returns the active predecessors of p (through active edges), in edge
// insertion order. The returned slice is shared and must not be modified.
func (s *Subgraph) Preds(p ProcID) []ProcID {
	lo, hi := s.adjOff[p], s.adjOff[p+1]
	return s.adj[lo:hi:hi]
}

// Succs returns the active successors of p (through active edges), in edge
// insertion order. The returned slice is shared and must not be modified.
func (s *Subgraph) Succs(p ProcID) []ProcID {
	n := ProcID(len(s.G.procs))
	lo, hi := s.adjOff[n+p], s.adjOff[n+p+1]
	return s.adj[lo:hi:hi]
}

// DecidedConds returns the conditions decided on this path (those whose
// disjunction process is active), sorted by identifier. The returned slice is
// shared and must not be modified.
func (s *Subgraph) DecidedConds() []cond.Cond { return s.decided }

// CriticalPathLengthsInto writes into dst (grown when too small), for every
// process identifier (active or not), the length of the longest chain of
// execution times from that process to the sink within the subgraph;
// inactive processes keep zero. It is the priority function used by the list
// scheduler, and reusing dst lets callers scheduling many paths share one
// buffer.
func (s *Subgraph) CriticalPathLengthsInto(dst []int64, exec func(ProcID) int64) []int64 {
	n := len(s.G.procs)
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	for i := len(s.topo) - 1; i >= 0; i-- {
		p := s.topo[i]
		best := int64(0)
		for _, q := range s.Succs(p) {
			if dst[q] > best {
				best = dst[q]
			}
		}
		dst[p] = best + exec(p)
	}
	return dst
}

// ValidatePaths enumerates the alternative paths and checks, for every path,
// that every active non-source process has at least one active incoming edge
// and that non-conjunction processes have all incoming edges active. It
// returns the paths so callers can reuse the enumeration.
func (g *Graph) ValidatePaths(maxPaths int) ([]*Path, error) {
	paths, err := g.AlternativePaths(maxPaths)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		sub := g.Subgraph(p)
		for _, id := range sub.ActiveProcs() {
			if id == g.source {
				continue
			}
			preds := sub.Preds(id)
			if len(preds) == 0 {
				return paths, fmt.Errorf("cpg: process %s is active on path %s but has no active predecessor (it would block)",
					g.procs[id].Name, p.Label.Format(g.CondName))
			}
			if !g.conjunction[id] && len(preds) != len(g.inEdges(id)) {
				return paths, fmt.Errorf("cpg: non-conjunction process %s has an inactive predecessor on path %s",
					g.procs[id].Name, p.Label.Format(g.CondName))
			}
		}
	}
	return paths, nil
}
