package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/textio"
)

// The paper's experiment grid (section 6): graph sizes and path counts.
var (
	gridNodes = []int{60, 80, 120}
	gridPaths = []int{10, 12, 18, 24, 32}
)

// Edit-session shape. A session is one base problem followed by
// sessionOps requests; each is a τ-only edit of up to maxDirty ordinary
// processes (warm-start eligible, service.DefaultWarmMaxDirty = 8) or, with
// probability revisitShare, a re-submission of one of the session's last
// revisitWindow variants (an exact memo hit). The window is kept far below
// the 256-entry memo even when the other client inserts every request it
// sends meanwhile, so hits never depend on how the two clients interleave.
//
// sessionOps, revisitShare and the uniform 1..maxDirty count of edited
// processes are assumptions, not measurements: no recorded
// design-space-exploration trace backs them. They fix the workload's share
// of memo hits (about 38% of ops) and of warm starts, and so how far a
// caching, warm-start or encoding change can move schedule-edit. Every run
// records latency and counts per op kind (ops_by_kind in its record), so a
// claim can state the mix it depends on; set the values from a measured
// session trace once one exists.
const (
	sessionOps    = 24
	maxDirty      = 8
	revisitShare  = 0.4
	revisitWindow = 6
)

// rng returns a generator seeded from the workload seed and a stream tag, so
// every input stream of a run is independent and fixed by the seed alone.
func rng(seed int64, stream string, idx ...int) *rand.Rand {
	h := uint64(seed)
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	for _, i := range idx {
		h = mix64(h ^ uint64(i))
	}
	return rand.New(rand.NewSource(int64(mix64(h) >> 1)))
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gridCells is the number of (nodes, paths) cells of the grid.
var gridCells = len(gridNodes) * len(gridPaths)

// gridProblem draws one problem of the given grid cell the way expr's sweep
// draws its graphs (gen.RandomConfig), and names it so that no two problems
// of a run share a memo key or a warm-start shape. Callers walk the cells in
// turn, so every run holds the same mix of problem sizes and only the draws
// within a cell vary with the seed.
func gridProblem(r *rand.Rand, cell int, name string) (*textio.ProblemDoc, error) {
	nodes := gridNodes[cell%gridCells/len(gridPaths)]
	paths := gridPaths[cell%len(gridPaths)]
	inst, err := gen.Generate(gen.RandomConfig(r, nodes, paths))
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	doc := textio.EncodeProblem(inst.Graph, inst.Arch, core.Options{})
	doc.Name = name
	return doc, nil
}

func encodeProblem(doc *textio.ProblemDoc) ([]byte, error) {
	var buf bytes.Buffer
	if err := textio.WriteProblem(&buf, doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// request is one /v1/schedule op of a schedule workload.
type request struct {
	Body []byte
	// Kind is "cold" (a problem never sent before), "edit" (a τ-only edit
	// of the session's latest new variant) or "revisit" (a byte-identical
	// re-submission of an earlier variant of the same session).
	Kind string
	// Dirty names the processes an edit changed, relative to the session
	// variant the service last computed (the one it warm-starts from).
	Dirty []string
}

// scheduleUnits generates a schedule workload's fixed work: n units, each
// sent in order by whichever client takes it. A schedule-cold unit is one
// distinct problem, a schedule-edit unit one design-space-exploration
// session.
func scheduleUnits(seed int64, kind string, n int) ([][]request, error) {
	units := make([][]request, n)
	errs := make([]error, n)
	parallel(n, func(u int) {
		if kind == "cold" {
			units[u], errs[u] = coldUnit(seed, u)
		} else {
			units[u], errs[u] = editSession(seed, u)
		}
	})
	return units, errors.Join(errs...)
}

func coldUnit(seed int64, i int) ([]request, error) {
	doc, err := gridProblem(rng(seed, "cold", i), i, fmt.Sprintf("cold-%d-%d", seed, i))
	if err != nil {
		return nil, err
	}
	body, err := encodeProblem(doc)
	if err != nil {
		return nil, err
	}
	return []request{{Body: body, Kind: "cold"}}, nil
}

// editSession generates one session of schedule-edit. Its problems carry the
// session index in their name, so no two sessions (and, since a session runs
// on one client, no two clients) ever share a problem shape.
func editSession(seed int64, session int) ([]request, error) {
	r := rng(seed, "edit", session)
	base, err := gridProblem(r, session, fmt.Sprintf("edit-%d-%d", seed, session))
	if err != nil {
		return nil, err
	}
	var ordinary []int
	for i, p := range base.Processes {
		if p.Kind == "ordinary" {
			ordinary = append(ordinary, i)
		}
	}
	var variants [][]byte
	seen := map[string]bool{}
	body, err := encodeProblem(base)
	if err != nil {
		return nil, err
	}
	variants = append(variants, body)
	seen[string(body)] = true
	reqs := []request{{Body: body, Kind: "cold"}}
	cur := base
	for len(reqs) < sessionOps {
		if len(variants) > 1 && r.Float64() < revisitShare {
			lo := max(0, len(variants)-revisitWindow)
			v := lo + r.Intn(len(variants)-lo)
			reqs = append(reqs, request{Body: variants[v], Kind: "revisit"})
			continue
		}
		next, dirty := editTau(r, cur, ordinary)
		nb, err := encodeProblem(next)
		if err != nil {
			return nil, err
		}
		if seen[string(nb)] {
			continue // recreating an earlier variant would be a hit, not an edit
		}
		variants = append(variants, nb)
		seen[string(nb)] = true
		reqs = append(reqs, request{Body: nb, Kind: "edit", Dirty: dirty})
		cur = next
	}
	return reqs, nil
}

// editTau returns a copy of doc whose execution time differs on 1..maxDirty
// distinct ordinary processes, and the names of those processes.
func editTau(r *rand.Rand, doc *textio.ProblemDoc, ordinary []int) (*textio.ProblemDoc, []string) {
	next := *doc
	next.Processes = slices.Clone(doc.Processes)
	k := 1 + r.Intn(min(maxDirty, len(ordinary)))
	var dirty []string
	for _, j := range r.Perm(len(ordinary))[:k] {
		p := &next.Processes[ordinary[j]]
		old := p.Exec
		for p.Exec == old {
			p.Exec = 5 + r.Int63n(46) // gen's ExecMin..ExecMax
		}
		dirty = append(dirty, p.Name)
	}
	slices.Sort(dirty)
	return &next, dirty
}

// sweepConfig is the k-th timed sweep of a run: the paper's full sweep under
// a fresh seed, because cpgserve memoizes shards by sweep content hash and a
// repeated sweep would be served from that memo.
func sweepConfig(seed int64, k int) expr.SweepConfig {
	cfg := expr.PaperSweep()
	cfg.Seed = 1 + rng(seed, "sweep", k).Int63n(1<<40)
	return cfg
}
