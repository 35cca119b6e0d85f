package cpg

import (
	"fmt"

	"repro/internal/arch"
)

// CommSpec controls the insertion of communication processes on an edge that
// connects processes mapped to different processing elements.
type CommSpec struct {
	// Time is the transfer time of the communication process.
	Time int64
	// Bus is the bus (or memory module) the communication is assigned to.
	Bus arch.PEID
	// Name optionally overrides the generated communication process name.
	Name string
}

// CommPlanner decides, for a cross-processing-element edge, the transfer time
// and the bus it is assigned to. Returning ok == false leaves the edge as a
// direct dependency without a communication process (useful for modelling
// negligible local transfers).
type CommPlanner func(g *Graph, e *Edge) (CommSpec, bool)

// UniformComms returns a CommPlanner that inserts a communication process of
// the given transfer time on every cross-processing-element edge, cycling
// through the given buses in round-robin order.
func UniformComms(time int64, buses ...arch.PEID) CommPlanner {
	i := 0
	return func(g *Graph, e *Edge) (CommSpec, bool) {
		if len(buses) == 0 {
			return CommSpec{}, false
		}
		b := buses[i%len(buses)]
		i++
		return CommSpec{Time: time, Bus: b}, true
	}
}

// InsertComms inserts a communication process on every edge whose endpoints
// are ordinary processes mapped to different processing elements. The
// original edge from->to is replaced by from->comm->to; a conditional edge
// keeps its condition on the from->comm hop so that the guard of the
// communication process equals the guard of the data it carries.
//
// It must be called before Finalize. The number of inserted communication
// processes is returned.
func InsertComms(g *Graph, a *arch.Architecture, plan CommPlanner) (int, error) {
	if g.finalized {
		return 0, fmt.Errorf("cpg: InsertComms must be called before Finalize")
	}
	if plan == nil {
		return 0, fmt.Errorf("cpg: nil communication planner")
	}
	inserted := 0
	// removed marks the replaced edges among the original ones; the edges
	// added here follow those.
	n := len(g.edges)
	var removed []bool
	for i := range n {
		e := g.edges[i]
		from := g.Process(e.From)
		to := g.Process(e.To)
		if from.IsDummy() || to.IsDummy() {
			continue
		}
		if from.Kind == KindComm || to.Kind == KindComm {
			continue
		}
		if from.PE == to.PE {
			continue
		}
		spec, ok := plan(g, e)
		if !ok {
			continue
		}
		if a != nil {
			pe := a.PE(spec.Bus)
			if pe == nil || (pe.Kind != arch.KindBus && pe.Kind != arch.KindMemory) {
				return inserted, fmt.Errorf("cpg: communication for edge %s->%s assigned to invalid bus %d", from.Name, to.Name, int(spec.Bus))
			}
		}
		name := spec.Name
		if name == "" {
			name = "c_" + from.Name + "_" + to.Name
		}
		comm := g.AddComm(name, spec.Time, spec.Bus)
		// Redirect: from -> comm (keeping the condition), comm -> to.
		if e.HasCond {
			g.AddCondEdge(e.From, comm, e.Cond, e.CondVal)
		} else {
			g.AddEdge(e.From, comm)
		}
		g.AddEdge(comm, e.To)
		if removed == nil {
			removed = make([]bool, n)
		}
		removed[i] = true
		inserted++
	}
	if inserted > 0 {
		g.compactEdges(removed)
	}
	return inserted, nil
}

// compactEdges drops the edges whose identifiers removed marks, in place, and
// renumbers the remaining edges in order. It may only be used on a
// non-finalized graph (edge identifiers change).
func (g *Graph) compactEdges(removed []bool) {
	kept := g.edges[:0]
	for i, e := range g.edges {
		if i < len(removed) && removed[i] {
			continue
		}
		e.ID = EdgeID(len(kept))
		kept = append(kept, e)
	}
	clear(g.edges[len(kept):])
	g.edges = kept
	g.finalized = false
}
