package atm

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestProcessAndPathCountsMatchTable2(t *testing.T) {
	wantProcs := map[Mode]int{Mode1: 32, Mode2: 23, Mode3: 42}
	wantPaths := map[Mode]int{Mode1: 6, Mode2: 3, Mode3: 8}
	for _, m := range []Mode{Mode1, Mode2, Mode3} {
		procs, err := ProcessCount(m)
		if err != nil {
			t.Fatalf("ProcessCount(%d): %v", m, err)
		}
		if procs != wantProcs[m] {
			t.Fatalf("mode %d has %d processes, want %d (Table 2)", m, procs, wantProcs[m])
		}
		paths, err := PathCount(m)
		if err != nil {
			t.Fatalf("PathCount(%d): %v", m, err)
		}
		if paths != wantPaths[m] {
			t.Fatalf("mode %d has %d paths, want %d (Table 2)", m, paths, wantPaths[m])
		}
	}
}

func TestStandardConfigs(t *testing.T) {
	cfgs := StandardConfigs()
	if len(cfgs) != 10 {
		t.Fatalf("Table 2 has 10 architecture configurations, got %d", len(cfgs))
	}
	labels := map[string]bool{}
	for _, c := range cfgs {
		l := c.Label()
		if labels[l] {
			t.Fatalf("duplicate configuration label %q", l)
		}
		labels[l] = true
	}
	if !labels["1P/1M 486"] || !labels["2P/2M 2xPentium"] || !labels["2P/1M 486+Pentium"] {
		t.Fatalf("expected labels missing: %v", labels)
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	if _, _, err := Build(Mode1, ArchConfig{Memories: 1}, MapAllFirst); err == nil {
		t.Fatalf("zero processors must be rejected")
	}
	if _, _, err := Build(Mode1, ArchConfig{Processors: []ProcessorType{I486}, Memories: 0}, MapAllFirst); err == nil {
		t.Fatalf("zero memories must be rejected")
	}
	if _, _, err := Build(Mode(9), ArchConfig{Processors: []ProcessorType{I486}, Memories: 1}, MapAllFirst); err == nil {
		t.Fatalf("unknown mode must be rejected")
	}
	if Mapping(9).String() == "" || MapSplit.String() != "split" {
		t.Fatalf("mapping names wrong")
	}
}

func TestBuildGraphsAreValid(t *testing.T) {
	for _, m := range []Mode{Mode1, Mode2, Mode3} {
		for _, cfg := range StandardConfigs() {
			g, a, err := Build(m, cfg, MapSplit)
			if err != nil {
				t.Fatalf("Build(mode %d, %s): %v", m, cfg.Label(), err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("architecture %s invalid: %v", cfg.Label(), err)
			}
			if _, err := g.ValidatePaths(0); err != nil {
				t.Fatalf("mode %d graph on %s invalid: %v", m, cfg.Label(), err)
			}
		}
	}
}

// evalAll evaluates one mode on the named subset of configurations and
// returns the delays keyed by configuration label.
func evalAll(t *testing.T, mode Mode, labels []string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, cfg := range StandardConfigs() {
		l := cfg.Label()
		wanted := false
		for _, w := range labels {
			if w == l {
				wanted = true
			}
		}
		if !wanted {
			continue
		}
		ev, err := Evaluate(mode, cfg, core.Options{})
		if err != nil {
			t.Fatalf("Evaluate(mode %d, %s): %v", mode, l, err)
		}
		if !ev.Result.Deterministic() {
			t.Fatalf("mode %d on %s produced a non-deterministic table: %v",
				mode, l, ev.Result.Violations)
		}
		out[l] = ev.Delay
	}
	return out
}

func TestMode2NoParallelismNoGainFromSecondProcessorOrMemory(t *testing.T) {
	d := evalAll(t, Mode2, []string{"1P/1M 486", "1P/1M Pentium", "1P/2M 486", "2P/1M 2x486", "2P/1M 2xPentium", "2P/2M 2x486"})
	if d["1P/1M Pentium"] >= d["1P/1M 486"] {
		t.Fatalf("a faster processor must reduce the mode 2 delay: %v", d)
	}
	if d["2P/1M 2x486"] != d["1P/1M 486"] {
		t.Fatalf("mode 2 has no parallelism, a second 486 must not change the delay: %v", d)
	}
	if d["2P/1M 2xPentium"] != d["1P/1M Pentium"] {
		t.Fatalf("mode 2 has no parallelism, a second Pentium must not change the delay: %v", d)
	}
	if d["1P/2M 486"] != d["1P/1M 486"] || d["2P/2M 2x486"] != d["2P/1M 2x486"] {
		t.Fatalf("mode 2 performs no parallel memory accesses, a second memory module must not help: %v", d)
	}
}

func TestMode3SecondProcessorHelpsOnly486(t *testing.T) {
	d := evalAll(t, Mode3, []string{"1P/1M 486", "1P/1M Pentium", "2P/1M 2x486", "2P/1M 2xPentium", "2P/2M 2x486"})
	if d["2P/1M 2x486"] >= d["1P/1M 486"] {
		t.Fatalf("mode 3: a second 486 must reduce the worst-case delay: %v", d)
	}
	if d["2P/1M 2xPentium"] != d["1P/1M Pentium"] {
		t.Fatalf("mode 3: a second Pentium must not change the worst-case delay: %v", d)
	}
	if d["1P/1M Pentium"] >= d["1P/1M 486"] {
		t.Fatalf("mode 3: the Pentium must be faster than the 486: %v", d)
	}
	if d["2P/2M 2x486"] != d["2P/1M 2x486"] {
		t.Fatalf("mode 3 performs no parallel memory accesses, a second memory module must not help: %v", d)
	}
}

func TestMode1SecondProcessorAlwaysHelpsSecondMemoryOnlyForPentiums(t *testing.T) {
	d := evalAll(t, Mode1, []string{
		"1P/1M 486", "1P/1M Pentium", "1P/2M 486", "1P/2M Pentium",
		"2P/1M 2x486", "2P/1M 2xPentium", "2P/2M 2x486", "2P/2M 2xPentium",
	})
	if d["2P/1M 2x486"] >= d["1P/1M 486"] {
		t.Fatalf("mode 1: a second 486 must reduce the worst-case delay: %v", d)
	}
	if d["2P/1M 2xPentium"] >= d["1P/1M Pentium"] {
		t.Fatalf("mode 1: a second Pentium must reduce the worst-case delay: %v", d)
	}
	// With a single processor the memory accesses are issued from one
	// processor and essentially serialize; a second memory module must not
	// bring any relevant gain (the paper reports exactly zero; the
	// reconstruction tolerates a negligible residue from interleaving).
	if gain := d["1P/1M 486"] - d["1P/2M 486"]; gain != 0 {
		t.Fatalf("mode 1: second memory module must not help a single 486: gain %d (%v)", gain, d)
	}
	if gain := d["1P/1M Pentium"] - d["1P/2M Pentium"]; gain < 0 || gain > 10 {
		t.Fatalf("mode 1: second memory module must bring at most a negligible gain to a single Pentium: gain %d (%v)", gain, d)
	}
	if d["2P/2M 2x486"] != d["2P/1M 2x486"] {
		t.Fatalf("mode 1: with two 486 processors the accesses do not overlap, a second module must not help: %v", d)
	}
	if gain := d["2P/1M 2xPentium"] - d["2P/2M 2xPentium"]; gain < 50 {
		t.Fatalf("mode 1: with two Pentium processors the accesses overlap, a second module must clearly help: gain %d (%v)", gain, d)
	}
}

func TestEvaluatePicksSplitMappingWhenItHelps(t *testing.T) {
	cfg := ArchConfig{Processors: []ProcessorType{I486, I486}, Memories: 1}
	ev, err := Evaluate(Mode3, cfg, core.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.Mapping != MapSplit && ev.Mapping != MapSplitSwapped {
		t.Fatalf("two 486 processors should prefer off-loading the branch, got %v", ev.Mapping)
	}
	cfgP := ArchConfig{Processors: []ProcessorType{Pentium, Pentium}, Memories: 1}
	evP, err := Evaluate(Mode3, cfgP, core.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if evP.Mapping == MapSplit || evP.Mapping == MapSplitSwapped {
		t.Fatalf("two Pentium processors should keep mode 3 on a single processor, got %v", evP.Mapping)
	}
}

func TestMixedProcessorConfigurationUsesTheFasterProcessor(t *testing.T) {
	cfg := ArchConfig{Processors: []ProcessorType{I486, Pentium}, Memories: 1}
	ev, err := Evaluate(Mode2, cfg, core.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	single, err := Evaluate(Mode2, ArchConfig{Processors: []ProcessorType{Pentium}, Memories: 1}, core.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.Delay != single.Delay {
		t.Fatalf("mode 2 on 486+Pentium should run entirely on the Pentium: got %d, want %d", ev.Delay, single.Delay)
	}
}

func TestDelaysAreInPaperBallpark(t *testing.T) {
	// The absolute numbers cannot match the paper exactly (the VHDL source
	// is unavailable), but the reconstructed modes must stay in the same
	// order of magnitude as Table 2.
	bounds := map[Mode][2]int64{
		Mode1: {3000, 6500}, // paper: 4471 (486, 1P/1M)
		Mode2: {1200, 2600}, // paper: 1732
		Mode3: {4500, 7500}, // paper: 5852
	}
	for mode, b := range bounds {
		ev, err := Evaluate(mode, ArchConfig{Processors: []ProcessorType{I486}, Memories: 1}, core.Options{})
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		if ev.Delay < b[0] || ev.Delay > b[1] {
			t.Fatalf("mode %d delay %d outside the expected range %v", mode, ev.Delay, b)
		}
	}
}

func TestConfigLabelFormat(t *testing.T) {
	c := ArchConfig{Processors: []ProcessorType{I486, Pentium}, Memories: 2}
	if got := c.Label(); !strings.Contains(got, "2P/2M") || !strings.Contains(got, "486+Pentium") {
		t.Fatalf("Label = %q", got)
	}
}
