package distribtest

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/expr"

	"fmt"
)

func goldenCSV(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../../testdata/sweep_golden.csv")
	if err != nil {
		t.Fatalf("reading golden sweep CSV (regenerate with `go run ./scripts/gengolden`): %v", err)
	}
	return string(data)
}

func cellsCSV(t *testing.T, cells []expr.Cell) string {
	t.Helper()
	var buf bytes.Buffer
	if err := expr.WriteSweepCSV(&buf, expr.ZeroTimes(cells)); err != nil {
		t.Fatalf("WriteSweepCSV: %v", err)
	}
	return buf.String()
}

// logRec collects coordinator log lines so scenarios can assert on the
// documented markers ("stolen", "retrying", "journal: reusing", ...).
type logRec struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRec) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRec) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

func (l *logRec) all() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// fastRetries makes retry pacing negligible so churn tests stay fast; the
// retry logic itself is unchanged.
func fastRetries(co *distrib.Coordinator) *distrib.Coordinator {
	co.RetryBaseDelay = time.Millisecond
	co.RetryMaxDelay = 5 * time.Millisecond
	return co
}

// TestGoldenBackendKilledMidShard: a backend dies in its first shard before
// delivering a single graph (then refuses every connection, like a killed
// process). Its shards fail over to the survivor and the merged CSV is still
// byte-identical to the golden file.
func TestGoldenBackendKilledMidShard(t *testing.T) {
	golden := goldenCSV(t)
	var dead atomic.Bool
	dying := &Backend{BackendName: "dying", Decide: func(shard, attempt int) Action {
		if dead.Swap(true) {
			return Action{Kind: Fail, Err: errors.New("connection refused (process gone)")}
		}
		return Action{Kind: Die, Err: errors.New("connection reset mid-shard")}
	}}
	healthy := &Backend{BackendName: "healthy"}

	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{
		Shards:      4,
		Backends:    []distrib.Backend{dying, healthy},
		MaxAttempts: 6,
		Log:         rec.logf,
	})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep with a backend killed mid-shard: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if dying.TotalAttempts() == 0 {
		t.Errorf("dying backend was never dispatched to")
	}
	if dying.TotalCompletions() != 0 {
		t.Errorf("dying backend delivered %d shards; scripted to deliver none", dying.TotalCompletions())
	}
	if healthy.TotalCompletions() < 4 {
		t.Errorf("healthy backend delivered %d shards, want all 4", healthy.TotalCompletions())
	}
	if !rec.contains("retrying") {
		t.Errorf("expected a retry off the dying backend in the log:\n%s", rec.all())
	}
}

// TestGoldenBackendJoinsMidSweep: the sweep starts with one backend that
// wedges after its first shard; a second backend registered mid-sweep picks
// up the remaining shards (including stealing the wedged one) and the CSV is
// still golden.
func TestGoldenBackendJoinsMidSweep(t *testing.T) {
	golden := goldenCSV(t)
	gate := NewGate()
	t.Cleanup(gate.Release)
	a := &Backend{BackendName: "a", Decide: func(shard, attempt int) Action {
		if shard == 0 {
			return Action{} // first shard is fine; everything after wedges
		}
		return Action{Gate: gate}
	}}
	b := &Backend{BackendName: "b"}

	reg := distrib.NewRegistry()
	if err := reg.Register(a); err != nil {
		t.Fatal(err)
	}
	rec := &logRec{}
	var join sync.Once
	co := fastRetries(&distrib.Coordinator{
		Shards:   4,
		Registry: reg,
		Log: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			rec.logf("%s", line)
			// The moment a finishes its first shard, the fleet grows: b
			// joins mid-sweep through the registry.
			if strings.Contains(line, "done on a (") {
				join.Do(func() {
					if err := reg.Register(b); err != nil {
						t.Errorf("mid-sweep Register: %v", err)
					}
				})
			}
		},
	})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep with a backend joining mid-sweep: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if a.Completions(0) != 1 {
		t.Errorf("backend a delivered shard 0 %d times, want 1", a.Completions(0))
	}
	if b.TotalCompletions() < 3 {
		t.Errorf("late-joining backend delivered %d shards, want the remaining 3", b.TotalCompletions())
	}
}

// TestGoldenShardStolenFromSlowBackend: with shard timeouts disabled, the
// only way a wedged backend's shard can finish is work-stealing — the idle
// survivor re-runs it, the first finisher wins, and the CSV is golden.
func TestGoldenShardStolenFromSlowBackend(t *testing.T) {
	golden := goldenCSV(t)
	gate := NewGate()
	t.Cleanup(gate.Release)
	slow := &Backend{BackendName: "slow", Decide: func(shard, attempt int) Action {
		if shard == 0 {
			return Action{Gate: gate} // wedged until test cleanup
		}
		return Action{}
	}}
	fast := &Backend{BackendName: "fast"}

	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{
		Shards:       2,
		Backends:     []distrib.Backend{slow, fast},
		ShardTimeout: -1, // no timeout: only stealing can rescue shard 0
		Log:          rec.logf,
	})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep with a wedged backend: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if !rec.contains("stolen") {
		t.Errorf("expected a steal in the log:\n%s", rec.all())
	}
	if fast.Completions(0) != 1 {
		t.Errorf("fast backend delivered the stolen shard %d times, want 1", fast.Completions(0))
	}
	if slow.TotalCompletions() != 0 {
		t.Errorf("wedged backend delivered %d shards, want 0", slow.TotalCompletions())
	}
}

// TestGoldenJournalResume: a first coordinator run journals its completed
// shards and then fails; a restarted coordinator pointed at the same journal
// re-dispatches only the missing shards and still produces the golden CSV.
func TestGoldenJournalResume(t *testing.T) {
	golden := goldenCSV(t)
	dir := t.TempDir()
	jr, err := distrib.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: the only backend completes shards 0 and 1, then refuses the
	// rest — the sweep fails, but the two finished shards are journaled.
	broken := &Backend{BackendName: "broken", Decide: func(shard, attempt int) Action {
		if shard <= 1 {
			return Action{}
		}
		return Action{Kind: Fail}
	}}
	co1 := fastRetries(&distrib.Coordinator{
		Shards:      4,
		Backends:    []distrib.Backend{broken},
		Journal:     jr,
		MaxAttempts: 2,
	})
	if _, err := co1.Run(context.Background(), expr.GoldenSweep()); err == nil {
		t.Fatalf("run 1 completed; scripted to fail on shards 2 and 3")
	}
	if got := broken.Completions(0) + broken.Completions(1); got != 2 {
		t.Fatalf("run 1 delivered %d of the 2 completable shards", got)
	}

	// Run 2: a fresh coordinator (fresh process, same journal directory)
	// with a healthy backend. Shards 0 and 1 must come from the journal,
	// never hitting the backend; 2 and 3 are re-dispatched.
	jr2, err := distrib.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	healthy := &Backend{BackendName: "healthy"}
	rec := &logRec{}
	co2 := fastRetries(&distrib.Coordinator{
		Shards:   4,
		Backends: []distrib.Backend{healthy},
		Journal:  jr2,
		Log:      rec.logf,
	})
	cells, err := co2.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("resumed sweep: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV after resume differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if !rec.contains("journal: reusing 2/4") {
		t.Errorf("expected the resume to reuse 2/4 journaled shards:\n%s", rec.all())
	}
	for _, shard := range []int{0, 1} {
		if n := healthy.Attempts(shard); n != 0 {
			t.Errorf("journaled shard %d was re-dispatched %d times; resume must only dispatch missing shards", shard, n)
		}
	}
	for _, shard := range []int{2, 3} {
		if n := healthy.Completions(shard); n != 1 {
			t.Errorf("missing shard %d delivered %d times after resume, want 1", shard, n)
		}
	}
}

// TestGoldenFlakyBackendBackoff: a single backend whose every shard fails
// once and then succeeds exercises the bounded-backoff retry path end to
// end; the retry count is exact and the CSV is golden.
func TestGoldenFlakyBackendBackoff(t *testing.T) {
	golden := goldenCSV(t)
	flaky := &Backend{BackendName: "flaky", Decide: func(shard, attempt int) Action {
		if attempt == 0 {
			return Action{Kind: Fail}
		}
		return Action{}
	}}
	reg := distrib.NewRegistry()
	// A lone flaky backend would hit the consecutive-failure eviction
	// threshold before its first success; a real deployment would keep a
	// second backend, here we raise the threshold instead.
	reg.FailAfter = 100
	if err := reg.Register(flaky); err != nil {
		t.Fatal(err)
	}
	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{Shards: 3, Registry: reg, Log: rec.logf})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep on flaky backend: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := flaky.TotalAttempts(); got != 6 {
		t.Errorf("flaky backend saw %d attempts, want exactly 6 (one failure + one success per shard)", got)
	}
	if got := flaky.TotalCompletions(); got != 3 {
		t.Errorf("flaky backend delivered %d shards, want 3", got)
	}
	if !rec.contains("retrying") {
		t.Errorf("expected backoff retries in the log:\n%s", rec.all())
	}
}

// TestRegistryProbesScriptedFleet drives Registry.ProbeOnce against scripted
// probes: consecutive probe failures evict a backend, a healthy probe
// re-admits it and refreshes its capacity, and a probe-reported drain parks
// it without counting as a failure.
func TestRegistryProbesScriptedFleet(t *testing.T) {
	good := &Backend{BackendName: "good"}
	good.SetProbe(4, false, nil)
	bad := &Backend{BackendName: "bad"}
	bad.SetProbe(2, false, nil)

	reg := distrib.NewRegistry()
	for _, b := range []*Backend{good, bad} {
		if err := reg.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	state := func(name string) distrib.MemberInfo {
		t.Helper()
		for _, m := range reg.Members() {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("backend %s not in registry", name)
		return distrib.MemberInfo{}
	}

	reg.ProbeOnce(ctx)
	if got := state("good"); got.State != distrib.StateActive || got.Capacity != 4 {
		t.Fatalf("good after probe: %+v, want active with capacity 4", got)
	}

	bad.SetProbe(0, false, errors.New("probe: connection refused"))
	for i := 0; i < distrib.DefaultFailAfter; i++ {
		reg.ProbeOnce(ctx)
	}
	if got := state("bad"); got.State != distrib.StateDown {
		t.Fatalf("bad after %d failed probes: %+v, want down", distrib.DefaultFailAfter, got)
	}
	if got := state("good"); got.State != distrib.StateActive {
		t.Fatalf("good must stay active while bad is evicted: %+v", got)
	}

	bad.SetProbe(3, false, nil)
	reg.ProbeOnce(ctx)
	if got := state("bad"); got.State != distrib.StateActive || got.Capacity != 3 {
		t.Fatalf("bad after recovery probe: %+v, want re-admitted with capacity 3", got)
	}

	good.SetProbe(4, true, nil)
	reg.ProbeOnce(ctx)
	if got := state("good"); got.State != distrib.StateDraining {
		t.Fatalf("good after drain probe: %+v, want draining", got)
	}
	if got := state("good"); got.Failures != 0 {
		t.Fatalf("draining is not a failure: %+v", got)
	}
	good.SetProbe(4, false, nil)
	reg.ProbeOnce(ctx)
	if got := state("good"); got.State != distrib.StateActive {
		t.Fatalf("good after drain lifted: %+v, want active", got)
	}
}

// TestGoldenSweepUnderShedding: one backend sheds (HTTP-429-style
// backpressure) the first attempt of every shard while a registry with a
// hair-trigger eviction threshold watches. If sheds counted toward the
// consecutive-failure eviction, the lone backend would be evicted on the
// first shed and the sweep would stall; instead every shard is retried after
// backoff on the same backend, the backend stays active, and the merged CSV
// is byte-identical to the golden file.
func TestGoldenSweepUnderShedding(t *testing.T) {
	golden := goldenCSV(t)
	shedding := &Backend{BackendName: "shedding", Decide: func(shard, attempt int) Action {
		if attempt == 0 {
			return Action{Kind: Fail, Err: &distrib.BackpressureError{
				Status:     429,
				RetryAfter: time.Millisecond,
				Msg:        `{"error":{"status":429,"message":"server overloaded"}}`,
			}}
		}
		return Action{}
	}}
	reg := distrib.NewRegistry()
	reg.FailAfter = 1 // any real failure evicts instantly — sheds must not
	if err := reg.Register(shedding); err != nil {
		t.Fatal(err)
	}
	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{Shards: 3, Registry: reg, Log: rec.logf})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep under shedding: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := reg.Members()[0].State; got != distrib.StateActive {
		t.Errorf("shedding backend ended %s, want active (sheds must not evict)", got)
	}
	if got := shedding.TotalAttempts(); got != 6 {
		t.Errorf("shedding backend saw %d attempts, want exactly 6 (one shed + one success per shard)", got)
	}
	if got := shedding.TotalCompletions(); got != 3 {
		t.Errorf("shedding backend delivered %d shards, want 3", got)
	}
	if !rec.contains("shed (backpressure)") {
		t.Errorf("expected backpressure retries in the log:\n%s", rec.all())
	}
}

// TestGoldenStreamTornMidShard: a backend dies after delivering k
// of its shard's n graph frames. The retry must carry a skip list of exactly
// the k received graphs — so only the n−k unreceived ones are recomputed —
// and the merged CSV is still byte-identical to the golden file.
func TestGoldenStreamTornMidShard(t *testing.T) {
	golden := goldenCSV(t)
	scfg := expr.GoldenSweep().Normalize()
	scfg.ShardIndex, scfg.ShardCount = 0, 2
	n := scfg.ShardSize()
	if n < 2 {
		t.Fatalf("shard 0 too small for a mid-stream tear: %d graphs", n)
	}
	k := n / 2

	flaky := &Backend{BackendName: "flaky", Decide: func(shard, attempt int) Action {
		if shard == 0 && attempt == 0 {
			return Action{Kind: Die, AfterGraphs: k, Err: errors.New("connection reset mid-stream")}
		}
		return Action{}
	}}
	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{
		Shards:   2,
		Backends: []distrib.Backend{flaky},
		Log:      rec.logf,
	})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep with a torn stream: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := flaky.Attempts(0); got != 2 {
		t.Errorf("shard 0 took %d attempts, want 2 (tear + resume)", got)
	}
	if got := flaky.SkipLens(0); len(got) != 2 || got[0] != 0 || got[1] != k {
		t.Errorf("shard 0 skip lists per attempt = %v, want [0 %d] (only unreceived graphs re-dispatched)", got, k)
	}
	if got := flaky.GraphsStreamed(0); got != n {
		t.Errorf("shard 0 streamed %d graph frames in total, want exactly %d (%d before the tear + %d after)", got, n, k, n-k)
	}
	if !rec.contains("salvaged") {
		t.Errorf("expected a salvage line in the log:\n%s", rec.all())
	}
}

// TestGoldenStreamPartialSpoolResume: a backend tears its shard after k
// frames and then the whole fleet dies, failing the sweep — but the
// journal holds the k graphs in the shard's unfinished file. A restarted
// coordinator with a fresh fleet must reload them, dispatch the shard with a
// skip list of exactly k, and produce the golden CSV.
func TestGoldenStreamPartialSpoolResume(t *testing.T) {
	golden := goldenCSV(t)
	scfg := expr.GoldenSweep().Normalize()
	scfg.ShardIndex, scfg.ShardCount = 0, 2
	n := scfg.ShardSize()
	k := n / 2
	if k == 0 {
		t.Fatalf("shard 0 too small for a mid-stream tear: %d graphs", n)
	}
	dir := t.TempDir()
	journal, err := distrib.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}

	doomed := &Backend{BackendName: "doomed", Decide: func(shard, attempt int) Action {
		if shard == 0 && attempt == 0 {
			return Action{Kind: Die, AfterGraphs: k, Err: errors.New("connection reset mid-stream")}
		}
		return Action{Kind: Fail, Err: errors.New("connection refused (process gone)")}
	}}
	rec1 := &logRec{}
	co1 := fastRetries(&distrib.Coordinator{
		Shards:      2,
		Backends:    []distrib.Backend{doomed},
		MaxAttempts: 2,
		Journal:     journal,
		Log:         rec1.logf,
	})
	if _, err := co1.Run(context.Background(), expr.GoldenSweep()); err == nil {
		t.Fatalf("first run must fail (fleet scripted to die)\nlog:\n%s", rec1.all())
	}

	healthy := &Backend{BackendName: "healthy"}
	rec2 := &logRec{}
	co2 := fastRetries(&distrib.Coordinator{
		Shards:   2,
		Backends: []distrib.Backend{healthy},
		Journal:  journal,
		Log:      rec2.logf,
	})
	cells, err := co2.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("resumed sweep: %v\nlog:\n%s", err, rec2.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV after resume differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if !rec2.contains("partial spools") {
		t.Errorf("expected a partial-spool reuse line in the log:\n%s", rec2.all())
	}
	if got := healthy.SkipLens(0); len(got) != 1 || got[0] != k {
		t.Errorf("resumed shard 0 skip lists = %v, want [%d] (spooled graphs must not be recomputed)", got, k)
	}
	if got := healthy.GraphsStreamed(0); got != n-k {
		t.Errorf("resumed shard 0 streamed %d graphs, want %d (the unreceived remainder)", got, n-k)
	}
}
