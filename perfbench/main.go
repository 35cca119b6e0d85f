// Command perfbench is the repository's end-to-end benchmark. It drives the
// real cpgserve binary over HTTP and distrib.Coordinator over cpgserve
// backends on three closed-loop workloads, checks every output, and prints
// the end-to-end metrics; with -trace 1 it instead replays the same seeded
// inputs in-process, single-threaded, through each layer's public entry
// points and prints the per-layer ledger.
//
// Run it through run.sh from the repository root, which builds it and
// cpgserve from the same checkout:
//
//	bash perfbench/run.sh --workload schedule-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 unless a canary
// or reference check failed (1, the result still printed with correct set to
// false) or the harness itself could not run (2, no result printed). Tables
// the program flags as not deterministic, and responses failing a per-op
// check, are failed ops counted by reason, not errors.
//
// Workloads, each a closed loop from one process over two connections:
//
//   - schedule-cold: distinct problems from the paper's grid (nodes 60, 80,
//     120 × paths 10, 12, 18, 24, 32, drawn by gen.RandomConfig) POSTed to
//     /v1/schedule on one cpgserve -workers 2. Exercises cpg, listsched,
//     core, table, sim, textio and httpserver; the service memo and warm
//     start never engage (their ratios read 0), gen and distrib do not run
//     in the server.
//   - schedule-edit: the same server, sessions of one cold base problem
//     followed by τ-only edits of 1-8 ordinary processes (warm-start
//     eligible) and re-submissions of the session's recent variants (memo
//     hits). The session length, revisit share and edit sizes are
//     assumptions (see inputs.go); runs record every op kind's count and
//     latency. Exercises service (memo, warm start), textio (a hit still
//     encodes the whole solution) and httpserver; cpg, listsched and core
//     run only for the paths a warm start does not reuse; gen and distrib
//     do not run.
//   - sweep: the paper's full sweep (expr.PaperSweep, 1080 graphs) through
//     distrib.Coordinator over two cpgserve -workers 1 backends on the
//     streamed transport, a fresh sweep seed per timed sweep. Exercises gen
//     (backends generate the graphs), cpg, listsched, core (the merge
//     above all), table, sim and distrib; the textio problem/solution codec,
//     the schedule memo and service.schedule do not run.
//
// An op is one request on the schedule workloads and one scheduled graph on
// sweep, whose latency is the graph's path-scheduling plus merge time as
// its backend measured it. Each run's work is fixed by the seed and
// --seconds, so attempted, failed and increase_pct repeat exactly for a
// seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of a workload produced.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds printed metrics that are not part of the result line:
	// increase_pct is exact for a seed but spreads too widely across seeds
	// for a regression bound.
	Extra map[string]metric `json:"-"`
	// Reasons counts failed ops per failure reason; Mismatches lists every
	// canary or reference mismatch (any entry makes Correct false).
	Reasons    map[string]int `json:"-"`
	Mismatches []string       `json:"-"`
	// Raw holds the run's raw values, written to the run record.
	Raw map[string]any `json:"-"`
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]metric{}, Extra: map[string]metric{}, Reasons: map[string]int{}, Raw: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.Metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) fail(reason string) {
	o.Failed++
	o.Reasons[reason]++
}

func (o *outcome) mismatch(format string, args ...any) {
	o.Mismatches = append(o.Mismatches, fmt.Sprintf(format, args...))
}

// env is the context of one run.
type env struct {
	ctx     context.Context
	root    string // checkout root (testdata, cmd)
	bin     string // directory holding the cpgserve binary
	dir     string // this run's directory for server logs, spans and the record
	seed    int64
	seconds int
}

type workload struct {
	name  string
	run   func(*env) (*outcome, error)
	trace func(*env) (*outcome, error)
}

var workloads = []workload{
	{"schedule-cold", runScheduleCold, traceScheduleCold},
	{"schedule-edit", runScheduleEdit, traceScheduleEdit},
	{"sweep", runSweep, traceSweep},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: schedule-cold, schedule-edit or sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "nominal measuring time of one run")
	trace := flag.Int("trace", 0, "1 = traced in-process replay reporting the per-layer ledger")
	root := flag.String("root", ".", "repository checkout root")
	out := flag.String("out", ".bench_build", "build directory holding bin/cpgserve; run records go to its runs/ subdirectory")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(*out, "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := &env{ctx: ctx, root: *root, bin: filepath.Join(*out, "bin"), dir: dir, seed: *seed, seconds: *seconds}
	run := w.trace
	if *trace == 0 {
		run = w.run
	}
	o, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	o.Correct = len(o.Mismatches) == 0
	o.Raw["host"] = hostInfo(*seed)
	o.Raw["workload"] = *name
	o.Raw["trace"] = *trace
	if err := writeRecord(filepath.Join(dir, "record.json"), o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	report(o, *name, dir)
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !o.Correct {
		return 1
	}
	return 0
}

// hostInfo is the context every result is recorded with.
func hostInfo(seed int64) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"server_gomaxprocs":  serverProcs,
		"go":                 runtime.Version(),
		"cpu":                cpu,
		"seed":               seed,
		"load_connections":   clients,
		"schedule_workers":   scheduleWorkers,
		"sweep_backends":     sweepBackends,
		"sweep_workers_each": sweepWorkers,
	}
}

func writeRecord(path string, o *outcome) error {
	rec := map[string]any{
		"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed,
		"metrics": o.Metrics, "extra": o.Extra, "reasons": o.Reasons, "mismatches": o.Mismatches, "raw": o.Raw,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// report prints the human-readable summary that precedes the result line.
func report(o *outcome, name, dir string) {
	h := o.Raw["host"].(map[string]any)
	fmt.Printf("perfbench %s: seed %v, nproc %v, GOMAXPROCS %v (cpgserve %v), %v, %s\n",
		name, h["seed"], h["nproc"], h["gomaxprocs"], h["server_gomaxprocs"], h["go"], h["cpu"])
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	if st, ok := o.Raw["host_steal_share"].(float64); ok {
		fmt.Printf("  host CPU time stolen by the hypervisor in the timed window: %.1f%%\n", 100*st)
	}
	for n, m := range o.Extra {
		fmt.Printf("  %-34s %14.4f %s (printed only)\n", n, m.Value, m.Unit)
	}
	if kinds, ok := o.Raw["ops_by_kind"].(map[string]*kindStats); ok {
		names := make([]string, 0, len(kinds))
		for k := range kinds {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			ks := kinds[k]
			fmt.Printf("  ops %-10s %5d (share %.3f, failed %d, memo hits %d): latency p50 %.3f ms, p99 %.3f ms, mean %.3f ms\n",
				k, ks.Ops, ks.Share, ks.Failed, ks.CacheHits, ks.P50Ms, ks.P99Ms, ks.MeanMs)
		}
	}
	if tail, ok := o.Raw["p99_tail_samples"].(int); ok && tail < 10 {
		fmt.Printf("  note: latency_p99_ms has only %d samples beyond it (10 needed for a valid percentile)\n", tail)
	}
	share := 0.0
	if o.Attempted > 0 {
		share = float64(o.Failed) / float64(o.Attempted)
	}
	reasons := make([]string, 0, len(o.Reasons))
	for r, n := range o.Reasons {
		reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(reasons)
	fmt.Printf("  %-34s %14.6f ratio (%d of %d failed: %s)\n", "fail_share", share, o.Failed, o.Attempted, strings.Join(reasons, ", "))
	for _, m := range o.Mismatches {
		fmt.Printf("  OUTPUT MISMATCH: %s\n", m)
	}
	fmt.Printf("  record: %s\n", filepath.Join(dir, "record.json"))
}
