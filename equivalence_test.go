// Equivalence regression tests: the scheduling core has been rewritten for
// speed (heap-based ready queue, slice-backed state, parallel validation), and
// these tests pin the observable behavior of the original implementation.
// Any change to the golden values below means the optimization changed the
// produced schedules, which is a bug: the fast path must be bit-identical.
package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/table"
)

// statsFingerprint renders the deterministic fields of core.Stats; the
// wall-clock timings are run-dependent and excluded.
func statsFingerprint(s core.Stats) string {
	return fmt.Sprintf("paths=%d backsteps=%d segments=%d conflicts=%d resolved=%d unresolved=%d locks=%d lockviol=%d columns=%d entries=%d",
		s.Paths, s.BackSteps, s.SegmentsPlaced, s.Conflicts, s.ConflictsResolved,
		s.UnresolvedConflicts, s.Locks, s.LockViolations, s.Columns, s.Entries)
}

// scheduleFingerprint renders everything deterministic about a scheduling
// result: the schedule table, the delays, the per-path delays and the stats.
func scheduleFingerprint(res *core.Result) string {
	var b strings.Builder
	b.WriteString(res.Table.Render(table.RenderOptions{Namer: res.Graph.CondName, RowName: res.RowName}))
	fmt.Fprintf(&b, "deltaM=%d deltaMax=%d deterministic=%v\n", res.DeltaM, res.DeltaMax, res.Deterministic())
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "path %s optimal=%d table=%d\n", p.Label.Format(res.Graph.CondName), p.OptimalDelay, p.TableDelay)
	}
	b.WriteString(statsFingerprint(res.Stats))
	b.WriteByte('\n')
	return b.String()
}

// TestFigure1EquivalentToSeed compares the full fingerprint of the worked
// example (Table 1 of the paper) against testdata/figure1_golden.txt, captured
// from the seed implementation. Set UPDATE_GOLDEN=1 to regenerate — but only
// after convincing yourself the schedule change is intentional.
func TestFigure1EquivalentToSeed(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	const goldenPath = "testdata/figure1_golden.txt"
	res, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	got := scheduleFingerprint(res)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Figure 1 fingerprint differs from the seed implementation:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// miniSweepFingerprint schedules graph i of the equivalence mini-sweep and
// returns its fingerprint. The instance derivation (seed, size, path count)
// is pinned: changing it invalidates the golden hashes below.
func miniSweepFingerprint(t *testing.T, i int) string {
	t.Helper()
	nodes := []int{24, 40, 60}[i%3]
	paths := []int{4, 6, 8, 10}[i%4]
	r := rand.New(rand.NewSource(int64(9000 + i)))
	inst, err := gen.Generate(gen.RandomConfig(r, nodes, paths))
	if err != nil {
		t.Fatalf("Generate(%d): %v", i, err)
	}
	res, err := core.Schedule(inst.Graph, inst.Arch, core.Options{})
	if err != nil {
		t.Fatalf("Schedule(%d): %v", i, err)
	}
	return fmt.Sprintf("graph %d nodes=%d paths=%d\n%s", i, nodes, paths, scheduleFingerprint(res))
}

// Golden sha256 over the fingerprints of the mini-sweep, captured from the
// seed implementation before the scheduling core was rewritten.
const (
	miniSweepGoldenShort = "9b65a893cc9ca6800e902d36b2b9fae2c1bfe8d7567975c9e23aafb08a4ed195" // graphs 0..59 (-short)
	miniSweepGolden      = "29e756999592abb67199f1729557fa964bae3e6f078cc2c01c9ecadbf5082f13" // graphs 0..499
)

func TestMiniSweepEquivalentToSeed(t *testing.T) {
	graphs, want := 500, miniSweepGolden
	if testing.Short() {
		graphs, want = 60, miniSweepGoldenShort
	}
	h := sha256.New()
	for i := 0; i < graphs; i++ {
		fmt.Fprint(h, miniSweepFingerprint(t, i))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != want {
		t.Errorf("mini-sweep hash over %d graphs = %s, want %s (the rewritten scheduler diverges from the seed behavior)", graphs, got, want)
	}
}
