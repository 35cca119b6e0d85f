package gen_test

// The external test package avoids an import cycle: textio (used to compare
// generated instances structurally) imports gen.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/textio"
)

// FuzzGenerateDeterminism pins the reproducibility invariant of the
// generator: the same configuration must always build the same instance —
// the property the sweep's per-cell seeding, its shards and the experiment
// regeneration all rely on. Run with
// `go test -fuzz FuzzGenerateDeterminism ./internal/gen`.
func FuzzGenerateDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(10))
	f.Add(int64(1998), uint8(120), uint8(32))
	f.Add(int64(-7), uint8(0), uint8(0))
	f.Add(int64(42), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nodes, paths uint8) {
		cfg := gen.Config{
			Seed:        seed,
			Nodes:       int(nodes % 150),
			TargetPaths: int(paths%32) + 1,
			Processors:  int(nodes%4) + 1,
			Hardware:    int(paths % 2),
			Buses:       int(seed&1) + 1,
		}
		first, err := gen.Generate(cfg)
		if err != nil {
			return // invalid configurations may be rejected, just not panic
		}
		second, err := gen.Generate(cfg)
		if err != nil {
			t.Fatalf("second Generate failed where first succeeded: %v", err)
		}
		var b1, b2 bytes.Buffer
		if err := textio.WriteProblem(&b1, textio.EncodeProblem(first.Graph, first.Arch, core.Options{})); err != nil {
			t.Fatalf("encoding first instance: %v", err)
		}
		if err := textio.WriteProblem(&b2, textio.EncodeProblem(second.Graph, second.Arch, core.Options{})); err != nil {
			t.Fatalf("encoding second instance: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("Generate is not deterministic for %+v", cfg)
		}
		if !first.Graph.Finalized() {
			t.Fatalf("generated graph not finalized")
		}
	})
}
