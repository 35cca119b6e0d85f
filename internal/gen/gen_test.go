package gen

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpg"
)

func TestGenerateDefaults(t *testing.T) {
	inst, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if inst.Graph.NumOrdinary() < 60 {
		t.Fatalf("default graph has %d ordinary processes, want >= 60", inst.Graph.NumOrdinary())
	}
	paths, err := inst.Graph.AlternativePaths(0)
	if err != nil {
		t.Fatalf("AlternativePaths: %v", err)
	}
	if len(paths) != 10 {
		t.Fatalf("default graph has %d paths, want 10", len(paths))
	}
}

func TestGenerateTargetPathsExact(t *testing.T) {
	for _, target := range []int{2, 3, 4, 6, 10, 12, 18, 24, 32} {
		inst, err := Generate(Config{Seed: int64(100 + target), Nodes: 60, TargetPaths: target, Processors: 3, Hardware: 1, Buses: 2})
		if err != nil {
			t.Fatalf("Generate(paths=%d): %v", target, err)
		}
		paths, err := inst.Graph.AlternativePaths(0)
		if err != nil {
			t.Fatalf("AlternativePaths: %v", err)
		}
		if len(paths) != target {
			t.Fatalf("generated %d paths, want %d", len(paths), target)
		}
	}
}

func TestGenerateNodeCounts(t *testing.T) {
	for _, nodes := range []int{60, 80, 120} {
		inst, err := Generate(Config{Seed: int64(nodes), Nodes: nodes, TargetPaths: 12, Processors: 4, Hardware: 1, Buses: 2})
		if err != nil {
			t.Fatalf("Generate(nodes=%d): %v", nodes, err)
		}
		if got := inst.Graph.NumOrdinary(); got < nodes {
			t.Fatalf("graph has %d ordinary processes, want >= %d", got, nodes)
		}
		if got := inst.Graph.NumOrdinary(); got > nodes+8 {
			t.Fatalf("graph overshoots the node target badly: %d for target %d", got, nodes)
		}
	}
}

func TestGeneratedGraphsAreValid(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := RandomConfig(r, 60+int(seed%3)*20, []int{10, 12, 18, 24, 32}[seed%5])
		inst, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(seed %d): %v", seed, err)
		}
		if err := inst.Arch.Validate(); err != nil {
			t.Fatalf("architecture invalid (seed %d): %v", seed, err)
		}
		if _, err := inst.Graph.ValidatePaths(0); err != nil {
			t.Fatalf("graph invalid (seed %d): %v", seed, err)
		}
	}
}

func TestGenerateDeterministicForSameSeed(t *testing.T) {
	cfg := Config{Seed: 42, Nodes: 60, TargetPaths: 12, Processors: 3, Hardware: 1, Buses: 2}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a.Graph.NumProcs() != b.Graph.NumProcs() || len(a.Graph.Edges()) != len(b.Graph.Edges()) {
		t.Fatalf("same seed produced different graphs: %d/%d vs %d/%d",
			a.Graph.NumProcs(), len(a.Graph.Edges()), b.Graph.NumProcs(), len(b.Graph.Edges()))
	}
	pa := a.Graph.Procs()
	pb := b.Graph.Procs()
	for i := range pa {
		if pa[i].Exec != pb[i].Exec || pa[i].PE != pb[i].PE || pa[i].Kind != pb[i].Kind {
			t.Fatalf("process %d differs between runs with the same seed", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(Config{Seed: 1, Nodes: 60, TargetPaths: 12})
	b, _ := Generate(Config{Seed: 2, Nodes: 60, TargetPaths: 12})
	same := a.Graph.NumProcs() == b.Graph.NumProcs() && len(a.Graph.Edges()) == len(b.Graph.Edges())
	if same {
		// Even with the same sizes the execution times should differ.
		diff := false
		pa, pb := a.Graph.Procs(), b.Graph.Procs()
		for i := range pa {
			if pa[i].Exec != pb[i].Exec {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatalf("different seeds produced identical graphs")
		}
	}
}

func TestArchitectureMatchesConfig(t *testing.T) {
	inst, err := Generate(Config{Seed: 5, Nodes: 60, TargetPaths: 10, Processors: 7, Hardware: 1, Buses: 5})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	kinds := map[arch.Kind]int{}
	for _, pe := range inst.Arch.PEs() {
		kinds[pe.Kind]++
	}
	if kinds[arch.KindProcessor] != 7 || kinds[arch.KindHardware] != 1 || kinds[arch.KindBus] != 5 {
		t.Fatalf("PEs by kind = %v, want 7 processors, 1 hardware, 5 buses", kinds)
	}
	if got := len(inst.Arch.BroadcastBuses()); got != 1 {
		t.Fatalf("exactly one broadcast bus expected, got %d", got)
	}
}

func TestCommunicationProcessesRespectAssumptions(t *testing.T) {
	inst, err := Generate(Config{Seed: 9, Nodes: 80, TargetPaths: 18, Processors: 4, Hardware: 1, Buses: 3, CondTime: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	comms := 0
	for _, p := range inst.Graph.Procs() {
		if p.Kind != cpg.KindComm {
			continue
		}
		comms++
		if p.Exec < inst.Arch.CondTime {
			t.Fatalf("communication time %d smaller than τ0 %d (violates the paper's assumption)", p.Exec, inst.Arch.CondTime)
		}
		pe := inst.Arch.PE(p.PE)
		if pe == nil || pe.Kind != arch.KindBus {
			t.Fatalf("communication process mapped to %v, want a bus", pe)
		}
	}
	if comms == 0 {
		t.Fatalf("a multi-processor instance should contain communication processes")
	}
}

func TestExponentialDistribution(t *testing.T) {
	inst, err := Generate(Config{Seed: 11, Nodes: 100, TargetPaths: 10, Processors: 3, Hardware: 1, Buses: 1, ExecDist: DistExponential, ExecMean: 20})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var sum, n int64
	for _, p := range inst.Graph.Procs() {
		if p.Kind != cpg.KindOrdinary {
			continue
		}
		if p.Exec < 1 {
			t.Fatalf("exponential execution times must be at least 1")
		}
		sum += p.Exec
		n++
	}
	mean := float64(sum) / float64(n)
	if mean < 8 || mean > 40 {
		t.Fatalf("exponential mean looks wrong: %v (want around 20)", mean)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Nodes != 60 || c.TargetPaths != 10 || c.Processors != 2 || c.Buses != 1 || c.CondTime != 1 {
		t.Fatalf("Normalize defaults wrong: %+v", c)
	}
	if c.CommMin < c.CondTime {
		t.Fatalf("communication times must be at least τ0")
	}
	c2 := Config{Hardware: 0, HardwareFraction: 0.5}.Normalize()
	if c2.HardwareFraction != 0 {
		t.Fatalf("hardware fraction must be zero without an ASIC")
	}
}

func TestRandomConfigRanges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		cfg := RandomConfig(r, 80, 24)
		if cfg.Processors < 1 || cfg.Processors > 11 {
			t.Fatalf("processors out of the paper's range: %d", cfg.Processors)
		}
		if cfg.Buses < 1 || cfg.Buses > 8 {
			t.Fatalf("buses out of the paper's range: %d", cfg.Buses)
		}
		if cfg.Hardware != 1 {
			t.Fatalf("the paper uses exactly one ASIC, got %d", cfg.Hardware)
		}
		if cfg.Nodes != 80 || cfg.TargetPaths != 24 {
			t.Fatalf("node/path targets not preserved: %+v", cfg)
		}
	}
}

func TestFactorizeProduct(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 3, 4, 6, 10, 12, 18, 24, 32, 7, 13} {
		for i := 0; i < 10; i++ {
			fs := factorize(r, n)
			prod := 1
			for _, f := range fs {
				if f < 2 {
					t.Fatalf("factor %d < 2 for n=%d", f, n)
				}
				prod *= f
			}
			if prod != n {
				t.Fatalf("factorize(%d) = %v, product %d", n, fs, prod)
			}
		}
	}
	if got := factorize(r, 1); len(got) != 0 {
		t.Fatalf("factorize(1) = %v, want empty", got)
	}
}

func TestDistString(t *testing.T) {
	if DistUniform.String() != "uniform" || DistExponential.String() != "exponential" {
		t.Fatalf("distribution names wrong")
	}
	if Dist(9).String() == "" {
		t.Fatalf("unknown distribution must render")
	}
}
