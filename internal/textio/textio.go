// Package textio serializes conditional process graphs and architectures to
// the versioned v1 JSON document format (used by the command line tools and
// the scheduling server) and exports graphs to Graphviz DOT for visual
// inspection.
package textio

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/cond"
	"repro/internal/cpg"
)

// PEDoc is the JSON representation of one processing element.
type PEDoc struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Speed       float64 `json:"speed,omitempty"`
	ConnectsAll bool    `json:"connectsAll,omitempty"`
}

// CondDoc is the JSON representation of one condition.
type CondDoc struct {
	Name    string `json:"name"`
	Decider string `json:"decider"`
}

// ProcDoc is the JSON representation of one process.
type ProcDoc struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"`
	Exec int64  `json:"exec,omitempty"`
	PE   string `json:"pe,omitempty"`
}

// EdgeDoc is the JSON representation of one edge. Condition is empty for
// simple edges; Value selects the branch of a conditional edge.
type EdgeDoc struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Condition string `json:"condition,omitempty"`
	Value     bool   `json:"value,omitempty"`
}

// MaxNameBytes bounds the length in bytes of every name a document
// declares: the problem's, and those of its processing elements, processes
// and conditions. The text table pads every row to the longest name, so one
// huge name would cost a copy of its length per row.
const MaxNameBytes = 1 << 10

// NameTooLongError reports a declared name longer than MaxNameBytes.
type NameTooLongError struct {
	// Kind is what the name names: "problem", "processing element",
	// "process" or "condition".
	Kind string
	// Len is the length of the name in bytes.
	Len int
}

func (e *NameTooLongError) Error() string {
	return fmt.Sprintf("textio: %s name of %d bytes is longer than the limit of %d bytes", e.Kind, e.Len, MaxNameBytes)
}

// checkNames rejects a document declaring a name longer than MaxNameBytes.
func checkNames(doc *ProblemDoc) error {
	check := func(kind, name string) error {
		if len(name) > MaxNameBytes {
			return &NameTooLongError{Kind: kind, Len: len(name)}
		}
		return nil
	}
	if err := check("problem", doc.Name); err != nil {
		return err
	}
	for _, pe := range doc.Elements {
		if err := check("processing element", pe.Name); err != nil {
			return err
		}
	}
	for _, p := range doc.Processes {
		if err := check("process", p.Name); err != nil {
			return err
		}
	}
	for _, cd := range doc.Conditions {
		if err := check("condition", cd.Name); err != nil {
			return err
		}
	}
	return nil
}

// decodeGraph rebuilds the architecture and the (finalized) graph of a
// problem document. Names longer than MaxNameBytes are rejected with a
// *NameTooLongError.
func decodeGraph(doc *ProblemDoc) (*cpg.Graph, *arch.Architecture, error) {
	if err := checkNames(doc); err != nil {
		return nil, nil, err
	}
	a := arch.New()
	if doc.CondTime > 0 {
		a.SetCondTime(doc.CondTime)
	}
	for _, pe := range doc.Elements {
		kind, err := arch.ParseKind(pe.Kind)
		if err != nil {
			return nil, nil, err
		}
		speed := pe.Speed
		if speed <= 0 {
			speed = 1
		}
		switch kind {
		case arch.KindProcessor:
			a.AddProcessor(pe.Name, speed)
		case arch.KindHardware:
			a.AddHardware(pe.Name)
		case arch.KindBus:
			a.AddBus(pe.Name, pe.ConnectsAll)
		case arch.KindMemory:
			a.AddMemory(pe.Name)
		}
	}
	g := cpg.New(doc.Name)
	procIDs := map[string]cpg.ProcID{}
	for _, p := range doc.Processes {
		peID := arch.NoPE
		if p.PE != "" {
			id, ok := a.FindByName(p.PE)
			if !ok {
				return nil, nil, fmt.Errorf("textio: process %q mapped to unknown processing element %q", p.Name, p.PE)
			}
			peID = id
		}
		kind := cpg.KindOrdinary
		if p.Kind != "" {
			k, err := cpg.ParseKind(p.Kind)
			if err != nil {
				return nil, nil, err
			}
			kind = k
		}
		if _, dup := procIDs[p.Name]; dup {
			return nil, nil, fmt.Errorf("textio: duplicate process name %q", p.Name)
		}
		switch kind {
		case cpg.KindComm:
			procIDs[p.Name] = g.AddComm(p.Name, p.Exec, peID)
		case cpg.KindSource, cpg.KindSink:
			return nil, nil, fmt.Errorf("textio: document must not contain dummy process %q", p.Name)
		default:
			procIDs[p.Name] = g.AddProcess(p.Name, p.Exec, peID)
		}
	}
	condIDs := map[string]cond.Cond{}
	for _, cd := range doc.Conditions {
		dec, ok := procIDs[cd.Decider]
		if !ok {
			return nil, nil, fmt.Errorf("textio: condition %q decided by unknown process %q", cd.Name, cd.Decider)
		}
		condIDs[cd.Name] = g.AddCondition(cd.Name, dec)
	}
	for _, ed := range doc.Edges {
		from, ok := procIDs[ed.From]
		if !ok {
			return nil, nil, fmt.Errorf("textio: edge from unknown process %q", ed.From)
		}
		to, ok := procIDs[ed.To]
		if !ok {
			return nil, nil, fmt.Errorf("textio: edge to unknown process %q", ed.To)
		}
		if ed.Condition == "" {
			g.AddEdge(from, to)
			continue
		}
		c, ok := condIDs[ed.Condition]
		if !ok {
			return nil, nil, fmt.Errorf("textio: edge %s->%s uses unknown condition %q", ed.From, ed.To, ed.Condition)
		}
		g.AddCondEdge(from, to, c, ed.Value)
	}
	if err := g.Finalize(a); err != nil {
		return nil, nil, err
	}
	return g, a, nil
}

// DOT renders the graph in Graphviz DOT format: disjunction processes are
// diamonds, conjunction processes are double circles, communication
// processes are small boxes, and conditional edges are labelled with their
// condition literal.
func DOT(g *cpg.Graph, a *arch.Architecture) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name())
	procs := g.Procs()
	sort.Slice(procs, func(i, j int) bool { return procs[i].ID < procs[j].ID })
	for _, p := range procs {
		shape := "ellipse"
		switch {
		case p.IsDummy():
			shape = "point"
		case p.Kind == cpg.KindComm:
			shape = "box"
		case g.Finalized() && g.IsDisjunction(p.ID):
			shape = "diamond"
		case g.Finalized() && g.IsConjunction(p.ID):
			shape = "doublecircle"
		}
		label := p.Name
		if !p.IsDummy() {
			peName := ""
			if pe := a.PE(p.PE); pe != nil {
				peName = pe.Name
			}
			label = fmt.Sprintf("%s\\n%d on %s", p.Name, p.Exec, peName)
		}
		fmt.Fprintf(&b, "  %q [shape=%s,label=%q];\n", p.Name, shape, label)
	}
	for _, e := range g.Edges() {
		from, to := g.Process(e.From), g.Process(e.To)
		if e.HasCond {
			lit := g.CondName(e.Cond)
			if !e.CondVal {
				lit = "!" + lit
			}
			fmt.Fprintf(&b, "  %q -> %q [label=%q,style=bold];\n", from.Name, to.Name, lit)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", from.Name, to.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
