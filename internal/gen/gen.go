// Package gen generates random conditional process graphs and architectures
// with the structural parameters used in the experimental evaluation of the
// paper (section 6): a target number of nodes, a target number of alternative
// paths (10, 12, 18, 24 or 32 in the paper), execution times drawn from a
// uniform or exponential distribution, and architectures consisting of one
// ASIC, one to eleven processors and one to eight buses.
//
// Graphs are generated from a fixed seed, so every experiment is
// reproducible.
package gen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/cpg"
)

// Dist selects the execution-time distribution.
type Dist int

const (
	// DistUniform draws execution times uniformly from [ExecMin, ExecMax].
	DistUniform Dist = iota
	// DistExponential draws execution times from an exponential
	// distribution with mean ExecMean (clamped to at least 1).
	DistExponential
)

// String returns the distribution name.
func (d Dist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistExponential:
		return "exponential"
	default:
		return fmt.Sprintf("dist(%d)", int(d))
	}
}

// Config describes one generated problem instance.
type Config struct {
	// Seed makes the generation reproducible.
	Seed int64
	// Nodes is the target number of ordinary processes (communication
	// processes, source and sink are added on top of this).
	Nodes int
	// TargetPaths is the number of alternative paths through the graph.
	TargetPaths int
	// Processors, Hardware and Buses describe the architecture.
	Processors int
	Hardware   int
	Buses      int
	// CondTime is the condition broadcast time τ0.
	CondTime int64
	// ExecDist, ExecMin, ExecMax and ExecMean parameterise process
	// execution times.
	ExecDist Dist
	ExecMin  int64
	ExecMax  int64
	ExecMean float64
	// CommMin and CommMax bound the communication times (never smaller
	// than CondTime, as assumed by the paper).
	CommMin int64
	CommMax int64
	// HardwareFraction is the probability that a process is mapped to the
	// ASIC rather than to a programmable processor.
	HardwareFraction float64
}

// Normalize fills unset fields with sensible defaults.
func (c Config) Normalize() Config {
	if c.Nodes <= 0 {
		c.Nodes = 60
	}
	if c.TargetPaths <= 0 {
		c.TargetPaths = 10
	}
	if c.Processors <= 0 {
		c.Processors = 2
	}
	if c.Hardware < 0 {
		c.Hardware = 0
	}
	if c.Buses <= 0 {
		c.Buses = 1
	}
	if c.CondTime <= 0 {
		c.CondTime = 1
	}
	if c.ExecMin <= 0 {
		c.ExecMin = 5
	}
	if c.ExecMax < c.ExecMin {
		c.ExecMax = c.ExecMin + 45
	}
	if c.ExecMean <= 0 {
		c.ExecMean = float64(c.ExecMin+c.ExecMax) / 2
	}
	if c.CommMin < c.CondTime {
		c.CommMin = c.CondTime
	}
	if c.CommMax < c.CommMin {
		c.CommMax = c.CommMin + 9
	}
	if c.HardwareFraction < 0 || c.HardwareFraction > 1 {
		c.HardwareFraction = 0.2
	}
	if c.Hardware == 0 && c.HardwareFraction != 0 {
		c.HardwareFraction = 0
	}
	return c
}

// RandomConfig draws a configuration matching the experimental setup of the
// paper for a given graph size and path count: one ASIC, one to eleven
// processors, one to eight buses, and a uniform or exponential execution time
// distribution chosen at random.
func RandomConfig(r *rand.Rand, nodes, paths int) Config {
	cfg := Config{
		Seed:             r.Int63(),
		Nodes:            nodes,
		TargetPaths:      paths,
		Processors:       1 + r.Intn(11),
		Hardware:         1,
		Buses:            1 + r.Intn(8),
		CondTime:         1 + int64(r.Intn(2)),
		ExecMin:          5,
		ExecMax:          50,
		ExecMean:         25,
		CommMin:          3,
		CommMax:          25,
		HardwareFraction: 0.15 + 0.15*r.Float64(),
	}
	if r.Intn(2) == 0 {
		cfg.ExecDist = DistUniform
	} else {
		cfg.ExecDist = DistExponential
	}
	return cfg.Normalize()
}

// Instance is a generated problem: the graph (with communication processes
// inserted) and the architecture it is mapped to.
type Instance struct {
	Config Config
	Graph  *cpg.Graph
	Arch   *arch.Architecture
}

type generator struct {
	r         *rand.Rand
	cfg       Config
	g         *cpg.Graph
	a         *arch.Architecture
	computePE []arch.PEID
	hwPE      []arch.PEID
	busPE     []arch.PEID
	extra     int // ordinary processes still to place beyond the skeleton
	edges     []cpg.EdgeID
}

// Generate builds a random conditional process graph and architecture from
// the configuration.
func Generate(cfg Config) (*Instance, error) {
	cfg = cfg.Normalize()
	if cfg.TargetPaths == 1 {
		// Degenerate but allowed: a graph without conditions.
	}
	gen := &generator{r: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
	gen.buildArch()
	if err := gen.buildGraph(); err != nil {
		return nil, err
	}
	if err := gen.finish(); err != nil {
		return nil, err
	}
	return &Instance{Config: cfg, Graph: gen.g, Arch: gen.a}, nil
}

func (gen *generator) buildArch() {
	a := arch.New()
	for i := 0; i < gen.cfg.Processors; i++ {
		gen.computePE = append(gen.computePE, a.AddProcessor(fmt.Sprintf("cpu%d", i+1), 1))
	}
	for i := 0; i < gen.cfg.Hardware; i++ {
		gen.hwPE = append(gen.hwPE, a.AddHardware(fmt.Sprintf("asic%d", i+1)))
	}
	for i := 0; i < gen.cfg.Buses; i++ {
		// The first bus connects all processors (condition broadcasts);
		// additional buses are ordinary shared buses.
		gen.busPE = append(gen.busPE, a.AddBus(fmt.Sprintf("bus%d", i+1), i == 0))
	}
	a.SetCondTime(gen.cfg.CondTime)
	gen.a = a
}

// execTime draws one execution time.
func (gen *generator) execTime() int64 {
	switch gen.cfg.ExecDist {
	case DistExponential:
		v := int64(math.Round(gen.r.ExpFloat64() * gen.cfg.ExecMean))
		if v < 1 {
			v = 1
		}
		return v
	default:
		return gen.cfg.ExecMin + gen.r.Int63n(gen.cfg.ExecMax-gen.cfg.ExecMin+1)
	}
}

// commTime draws one communication time (at least τ0).
func (gen *generator) commTime() int64 {
	return gen.cfg.CommMin + gen.r.Int63n(gen.cfg.CommMax-gen.cfg.CommMin+1)
}

// pickPE maps one ordinary process.
func (gen *generator) pickPE() arch.PEID {
	if len(gen.hwPE) > 0 && gen.r.Float64() < gen.cfg.HardwareFraction {
		return gen.hwPE[gen.r.Intn(len(gen.hwPE))]
	}
	return gen.computePE[gen.r.Intn(len(gen.computePE))]
}

// newProc adds one ordinary process.
func (gen *generator) newProc() cpg.ProcID {
	return gen.g.AddProcess("", gen.execTime(), gen.pickPE())
}

func (gen *generator) addEdge(from, to cpg.ProcID) {
	gen.edges = append(gen.edges, gen.g.AddEdge(from, to))
}

// chain appends n ordinary processes after from and returns the last one.
func (gen *generator) chain(from cpg.ProcID, n int) cpg.ProcID {
	cur := from
	for i := 0; i < n; i++ {
		p := gen.newProc()
		gen.addEdge(cur, p)
		cur = p
	}
	return cur
}

// factorize splits the target path count into factors >= 2 whose product is
// the target; each factor becomes one condition block in series.
func factorize(r *rand.Rand, n int) []int {
	var factors []int
	for n > 1 {
		var divisors []int
		for d := 2; d <= n && d <= 6; d++ {
			if n%d == 0 {
				divisors = append(divisors, d)
			}
		}
		if len(divisors) == 0 {
			// Prime larger than 6: take the whole remainder as one block.
			factors = append(factors, n)
			break
		}
		f := divisors[r.Intn(len(divisors))]
		factors = append(factors, f)
		n /= f
	}
	return factors
}

// block builds one condition block with the given number of leaves (i.e. the
// number of alternative sub-paths it contributes), starting after `from`, and
// returns the conjunction process that closes it.
func (gen *generator) block(from cpg.ProcID, leaves int) cpg.ProcID {
	if leaves <= 1 {
		return gen.chain(from, 1)
	}
	d := gen.newProc()
	gen.addEdge(from, d)
	c := gen.g.AddCondition("", d)

	split := 1 + gen.r.Intn(leaves-1)
	buildBranch := func(val bool, branchLeaves int) cpg.ProcID {
		start := gen.newProc()
		gen.edges = append(gen.edges, gen.g.AddCondEdge(d, start, c, val))
		if branchLeaves > 1 {
			return gen.block(start, branchLeaves)
		}
		return start
	}
	tEnd := buildBranch(true, split)
	fEnd := buildBranch(false, leaves-split)

	join := gen.newProc()
	gen.addEdge(tEnd, join)
	gen.addEdge(fEnd, join)
	return join
}

func (gen *generator) buildGraph() error {
	gen.g = cpg.New(fmt.Sprintf("gen-n%d-p%d-s%d", gen.cfg.Nodes, gen.cfg.TargetPaths, gen.cfg.Seed))
	factors := factorize(gen.r, gen.cfg.TargetPaths)

	start := gen.newProc()
	cur := start
	for _, f := range factors {
		cur = gen.block(cur, f)
		// A short unconditional segment between blocks.
		cur = gen.chain(cur, 1)
	}

	// Pad the skeleton with additional processes until the target node
	// count is reached: either split an existing edge (lengthening a path)
	// or add a parallel process between the endpoints of an existing edge
	// (adding parallelism). Both preserve guards and path counts.
	// Every process so far is ordinary: communication processes and the
	// dummies come later.
	for gen.g.NumProcs() < gen.cfg.Nodes {
		if len(gen.edges) == 0 {
			gen.chain(cur, 1)
			continue
		}
		eid := gen.edges[gen.r.Intn(len(gen.edges))]
		e := gen.g.Edge(eid)
		if e == nil {
			continue
		}
		p := gen.newProc()
		if gen.r.Intn(2) == 0 && !e.HasCond {
			// Parallel process: from -> p -> to, keeping the original edge.
			// The guard of the target is unchanged because the original
			// edge already contributes the same guard.
			gen.addEdge(e.From, p)
			gen.addEdge(p, e.To)
		} else {
			// Dangling process appended after the edge target; Finalize
			// connects it to the sink. Its guard equals the guard of the
			// target, so no guard in the rest of the graph is widened and
			// the number of alternative paths is preserved.
			gen.addEdge(e.To, p)
		}
	}
	return nil
}

func (gen *generator) finish() error {
	// Insert communication processes on every cross-processing-element edge,
	// spreading them over the buses.
	i := 0
	planner := func(g *cpg.Graph, e *cpg.Edge) (cpg.CommSpec, bool) {
		bus := gen.busPE[i%len(gen.busPE)]
		i++
		return cpg.CommSpec{Time: gen.commTime(), Bus: bus}, true
	}
	if _, err := cpg.InsertComms(gen.g, gen.a, planner); err != nil {
		return err
	}
	if err := gen.g.Finalize(gen.a); err != nil {
		return err
	}
	paths, err := gen.g.NumAlternativePaths(0)
	if err != nil {
		return err
	}
	if paths != gen.cfg.TargetPaths {
		return errors.New("gen: generated graph has an unexpected number of alternative paths")
	}
	return nil
}
