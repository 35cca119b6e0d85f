package distribtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/obs"
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
// documented markers ("retrying", "evicting", "journal: reusing", ...).
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

// counter reads one unlabeled counter from the registry's exposition.
func counter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("%s is not exposed:\n%s", name, buf.String())
	return 0
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
	if got := dying.TotalAttempts(); got > 3 {
		t.Errorf("dying backend got %d attempts; it is evicted after 3 consecutive failures", got)
	}
	if healthy.TotalCompletions() < 4 {
		t.Errorf("healthy backend delivered %d shards, want all 4", healthy.TotalCompletions())
	}
	if !rec.contains("retrying") {
		t.Errorf("expected a retry off the dying backend in the log:\n%s", rec.all())
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
// end; the retry count is exact and the CSV is golden. Two shards keep the
// backend's failure streak at two, below the eviction threshold of three:
// the third attempt is the first retry, and it succeeds.
func TestGoldenFlakyBackendBackoff(t *testing.T) {
	golden := goldenCSV(t)
	flaky := &Backend{BackendName: "flaky", Decide: func(shard, attempt int) Action {
		if attempt == 0 {
			return Action{Kind: Fail}
		}
		return Action{}
	}}
	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{Shards: 2, Backends: []distrib.Backend{flaky}, Log: rec.logf})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep on flaky backend: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := flaky.TotalAttempts(); got != 4 {
		t.Errorf("flaky backend saw %d attempts, want exactly 4 (one failure + one success per shard)", got)
	}
	if got := flaky.TotalCompletions(); got != 2 {
		t.Errorf("flaky backend delivered %d shards, want 2", got)
	}
	if !rec.contains("retrying") {
		t.Errorf("expected backoff retries in the log:\n%s", rec.all())
	}
}

// TestGoldenSweepUnderShedding: one backend sheds (HTTP-429-style
// backpressure) the first attempt of each of three shards — three sheds in a
// row, as many as the eviction threshold. If sheds counted toward the
// consecutive-failure eviction, the lone backend would be evicted and the
// sweep would stall; instead every shard is retried after backoff on the
// same backend, and the merged CSV is byte-identical to the golden file.
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
	reg := obs.NewRegistry()
	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{
		Shards:   3,
		Backends: []distrib.Backend{shedding},
		Metrics:  distrib.NewMetrics(reg),
		Log:      rec.logf,
	})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep under shedding: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := counter(t, reg, "cpg_distrib_evictions_total"); got != 0 || rec.contains("evicting") {
		t.Errorf("%d evictions; sheds must not evict:\n%s", got, rec.all())
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

// TestGoldenStreamTornMidShard: a backend dies after delivering k of its
// shard's n graph frames. The k graphs are discarded with the attempt: the
// retry recomputes the whole shard, and the merged CSV is still
// byte-identical to the golden file.
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
	if got := flaky.GraphsStreamed(0); got != k+n {
		t.Errorf("shard 0 streamed %d graph frames in total, want %d (%d before the tear + the whole shard again)", got, k+n, k)
	}
	if !rec.contains("retrying") {
		t.Errorf("expected a retry line in the log:\n%s", rec.all())
	}
}

// TestGoldenEachShardOnce: two healthy backends and two shards, the second
// shard held until the first completes. The backend that finished first
// stays idle: each shard has one attempt, and every graph is streamed once.
func TestGoldenEachShardOnce(t *testing.T) {
	golden := goldenCSV(t)
	first := NewGate()
	t.Cleanup(first.Release)
	decide := func(shard, attempt int) Action {
		if shard == 1 {
			return Action{Gate: first}
		}
		return Action{}
	}
	a := &Backend{BackendName: "a", Decide: decide}
	b := &Backend{BackendName: "b", Decide: decide}
	reg := obs.NewRegistry()
	rec := &logRec{}
	co := &distrib.Coordinator{
		Shards:   2,
		Backends: []distrib.Backend{a, b},
		Metrics:  distrib.NewMetrics(reg),
		Log: func(format string, args ...any) {
			rec.logf(format, args...)
			if strings.HasPrefix(fmt.Sprintf(format, args...), "shard 0/2 done on ") {
				first.Release()
			}
		},
	}
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := a.TotalAttempts() + b.TotalAttempts(); got != 2 {
		t.Errorf("%d attempts for 2 shards, want 2:\n%s", got, rec.all())
	}
	if got := counter(t, reg, "cpg_distrib_attempts_total"); got != 2 {
		t.Errorf("attempts counter = %d, want 2", got)
	}
	if got, want := counter(t, reg, "cpg_distrib_graphs_streamed_total"), int64(expr.GoldenSweep().ShardSize()); got != want {
		t.Errorf("graphs streamed = %d, want the sweep's %d graphs once each", got, want)
	}
}

// TestGoldenFailingBackendEvicted: a backend that fails every attempt gets
// exactly three, then no further shard, and the sweep finishes on the other
// backend. The healthy backend holds its first shard until the eviction, so
// the failing one, idle first every time, meets the retries until then.
func TestGoldenFailingBackendEvicted(t *testing.T) {
	golden := goldenCSV(t)
	evicted := NewGate()
	t.Cleanup(evicted.Release)
	bad := &Backend{BackendName: "bad", Decide: func(int, int) Action {
		return Action{Kind: Fail, Err: errors.New("connection refused")}
	}}
	good := &Backend{BackendName: "good", Decide: func(int, int) Action {
		return Action{Gate: evicted}
	}}
	reg := obs.NewRegistry()
	rec := &logRec{}
	co := fastRetries(&distrib.Coordinator{
		Shards:   4,
		Backends: []distrib.Backend{bad, good},
		Metrics:  distrib.NewMetrics(reg),
		Log: func(format string, args ...any) {
			rec.logf(format, args...)
			if strings.HasPrefix(fmt.Sprintf(format, args...), "evicting backend bad") {
				evicted.Release()
			}
		},
	})
	cells, err := co.Run(context.Background(), expr.GoldenSweep())
	if err != nil {
		t.Fatalf("sweep: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if got := bad.TotalAttempts(); got != 3 {
		t.Errorf("failing backend got %d attempts, want exactly 3:\n%s", got, rec.all())
	}
	if got := good.TotalCompletions(); got != 4 {
		t.Errorf("healthy backend delivered %d shards, want all 4", got)
	}
	if got := counter(t, reg, "cpg_distrib_evictions_total"); got != 1 || !rec.contains("evicting backend bad after 3 consecutive failed attempts") {
		t.Errorf("%d evictions, want 1 with its log line:\n%s", got, rec.all())
	}
}

// TestGoldenTornJournalFileRedispatched: a coordinator killed while writing
// a shard's journal file leaves the file torn — here its header and first
// two graph frames. The restarted coordinator reuses the complete shard,
// re-runs the torn one whole and rewrites its file complete, so a third run
// needs no backend at all.
func TestGoldenTornJournalFileRedispatched(t *testing.T) {
	golden := goldenCSV(t)
	dir := t.TempDir()
	jr, err := distrib.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(b *Backend, rec *logRec) ([]expr.Cell, error) {
		co := fastRetries(&distrib.Coordinator{Shards: 2, Backends: []distrib.Backend{b}, Journal: jr, Log: rec.logf})
		return co.Run(context.Background(), expr.GoldenSweep())
	}
	if _, err := run(&Backend{BackendName: "first"}, &logRec{}); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "shard-00001-of-00002.ndjson"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journal holds %v (%v), want one file for shard 1/2", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("shard 1/2 file too short to tear: %q", data)
	}
	if err := os.WriteFile(files[0], []byte(strings.Join(lines[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	healthy := &Backend{BackendName: "healthy"}
	rec := &logRec{}
	cells, err := run(healthy, rec)
	if err != nil {
		t.Fatalf("resumed sweep: %v\nlog:\n%s", err, rec.all())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV after resume differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
	if !rec.contains("journal: reusing 1/2") {
		t.Errorf("expected the resume to reuse the complete shard:\n%s", rec.all())
	}
	scfg := expr.GoldenSweep()
	scfg.ShardIndex, scfg.ShardCount = 1, 2
	if healthy.Attempts(0) != 0 || healthy.Attempts(1) != 1 || healthy.GraphsStreamed(1) != scfg.ShardSize() {
		t.Errorf("resume attempts %d and %d, shard 1 streamed %d graphs; want 0, 1 and the whole shard's %d",
			healthy.Attempts(0), healthy.Attempts(1), healthy.GraphsStreamed(1), scfg.ShardSize())
	}

	refuse := &Backend{BackendName: "refuse", Decide: func(int, int) Action { return Action{Kind: Fail} }}
	cells, err = run(refuse, &logRec{})
	if err != nil || refuse.TotalAttempts() != 0 {
		t.Fatalf("third run: %v after %d attempts; the rewritten journal must hold both shards", err, refuse.TotalAttempts())
	}
	if got := cellsCSV(t, cells); got != golden {
		t.Errorf("CSV from the journal alone differs from golden:\n--- golden\n%s\n--- got\n%s", golden, got)
	}
}
