// Command cpgexper regenerates the tables and figures of the paper's
// experimental evaluation (section 6):
//
//	cpgexper -exp fig1     # worked example: path delays (Fig. 2), Table 1
//	cpgexper -exp fig4     # time charts of the optimal path schedules
//	cpgexper -exp fig5     # increase of δmax over δM on generated graphs
//	cpgexper -exp fig6     # execution time of the schedule merging
//	cpgexper -exp sweep    # the Fig. 5/6 sweep as CSV only (implies -csv -)
//	cpgexper -exp table2   # ATM OAM worst-case delays
//	cpgexper -exp ablate   # sweep under every path-selection policy and
//	                       # every scheduling strategy
//	cpgexper -exp all      # everything above except sweep and ablate
//
// The Fig. 5 / Fig. 6 sweep uses a reduced number of graphs per cell by
// default; pass -full to regenerate the paper's 1080-graph experiment,
// -graphs N to choose the number of graphs per (size, paths) cell, and
// -nodes/-paths to choose the cell grid. The sweep runs on all CPUs by
// default (-workers N bounds it; the figures printed on stdout are
// byte-identical for every worker count), and progress is reported on stderr
// (-progress=false silences it; a coordinated sweep reports failed attempts,
// retries and evictions there either way).
//
// The sweep can also run distributed. The coordinator mode splits it into
// -shards N shard jobs (stable per-graph assignment), fans them concurrently
// over the -remote cpgserve servers (comma-separated base URLs, one shard at
// a time each; without -remote the shards execute in this process under one
// shared worker budget), verifies coverage and merges the partial results —
// the merged figures and CSV are byte-identical to a single-process run with
// the same seed (wall-clock columns aside; -zero-times zeroes them for
// diffing). Backends stream their shards as NDJSON frames (POST /v1/sweep). A
// failed or timed-out attempt (-shard-timeout) costs its whole shard, which is
// retried with bounded exponential backoff on the first idle backend; a
// backend whose attempts fail three times in a row gets no further shards.
// -journal DIR writes every completed shard in that same frame format, so a
// killed coordinator, restarted with the same flags, re-runs only the shards
// it had not finished. For offline sharding, -shard i/N runs one shard and
// writes its frame stream to stdout, and -merge a.ndjson,b.ndjson,...
// recombines saved shards. -metrics-addr ADDR serves the coordinator's
// counters (shard attempts, retries, backpressure sheds, evictions, ...) as a
// Prometheus GET /metrics endpoint for the duration of the run, so a long
// sweep is scrapeable from outside.
//
// fig1 and fig4 share one worked-example run. The ablation sweeps generate
// their graphs afresh, from the same seeds, so every row schedules the same
// graphs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/listsched"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/textio"
)

// stderr receives progress, timing and fault lines; stdout stays
// byte-identical for every worker count.
var stderr io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(stderr, "cpgexper:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cpgexper", flag.ContinueOnError)
	fs.SetOutput(out)
	exp := fs.String("exp", "all", "experiment to run: fig1, fig4, fig5, fig6, sweep, table2, ablate or all")
	full := fs.Bool("full", false, "run the full 1080-graph sweep of the paper (slower)")
	graphs := fs.Int("graphs", 4, "graphs per (size, paths) cell of the Fig. 5/6 sweep")
	nodesFlag := fs.String("nodes", "", "comma-separated graph sizes of the sweep (empty = 60,80,120)")
	pathsFlag := fs.String("paths", "", "comma-separated path counts of the sweep (empty = 10,12,18,24,32)")
	seed := fs.Int64("seed", expr.DefaultSeed, "random seed of the sweep")
	workers := fs.Int("workers", 0, "worker goroutines for the sweep (0 = all CPUs, 1 = sequential)")
	strategy := fs.String("strategy", "", "per-path scheduling strategy for the experiments: critical-path or tabu (-exp ablate sweeps both)")
	progress := fs.Bool("progress", true, "report sweep progress on stderr (coordinator faults are reported either way)")
	shards := fs.Int("shards", 0, "split the sweep into N shards and run them through the coordinator (0 = single-process)")
	remote := fs.String("remote", "", "comma-separated cpgserve base URLs executing sweep shards (empty = in-process)")
	shardTimeout := fs.Duration("shard-timeout", distrib.DefaultShardTimeout, "per-attempt time limit of one shard on one backend before it fails over (negative = unbounded)")
	journalDir := fs.String("journal", "", "keep completed sweep shards in this directory and resume from it on restart (coordinator mode)")
	metricsAddr := fs.String("metrics-addr", "", "serve the sweep coordinator's Prometheus metrics on this address (e.g. :9090) for the duration of the run")
	shardSpec := fs.String("shard", "", "run only shard i/N of the sweep and write its NDJSON frame stream to stdout (offline sharding)")
	mergeFiles := fs.String("merge", "", "merge saved shard streams (comma-separated files) instead of scheduling; renders only the sweep figures/CSV")
	csvPath := fs.String("csv", "", "also write the sweep cells as CSV to this path (- = stdout)")
	zeroTimes := fs.Bool("zero-times", false, "zero the wall-clock columns of sweep outputs (deterministic output for diffing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A zero seed would normalize to the default: refuse it rather than run
	// another sweep than the one asked for.
	if *seed == 0 {
		return fmt.Errorf("-seed must be nonzero (the default is %d)", expr.DefaultSeed)
	}
	var baseOpts core.Options
	if *strategy != "" {
		name, err := textio.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		baseOpts.Strategy = name
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	// fig1 and fig4 run the worked example once.
	var fig1Result *expr.Figure1Result
	figure1 := func() (*expr.Figure1Result, error) {
		if fig1Result != nil {
			return fig1Result, nil
		}
		r, err := expr.RunFigure1(baseOpts)
		if err != nil {
			return nil, err
		}
		fig1Result = r
		return r, nil
	}
	sweepConfig := func(opts core.Options) (expr.SweepConfig, error) {
		cfg := expr.SweepConfig{GraphsPerCell: *graphs, Seed: *seed}
		if *full {
			cfg = expr.PaperSweep()
			cfg.Seed = *seed
		}
		var err error
		if cfg.Nodes, err = overrideList(cfg.Nodes, *nodesFlag); err != nil {
			return cfg, fmt.Errorf("-nodes: %w", err)
		}
		if cfg.Paths, err = overrideList(cfg.Paths, *pathsFlag); err != nil {
			return cfg, fmt.Errorf("-paths: %w", err)
		}
		cfg.Workers = *workers
		cfg.Options = opts
		return cfg, nil
	}

	// -shard writes a machine-readable frame stream: it runs exclusively,
	// before any experiment, so no figure text can interleave with the
	// frames on stdout.
	if *shardSpec != "" {
		cfg, err := sweepConfig(baseOpts)
		if err != nil {
			return err
		}
		return writeShardPartial(out, cfg, *shardSpec, *progress)
	}

	if *mergeFiles == "" && (want("fig1") || want("table1") || want("fig2")) {
		ran = true
		r, err := figure1()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, strings.TrimRight(expr.RenderFigure1(r), "\n"))
		fmt.Fprintln(out)
	}
	if *mergeFiles == "" && want("fig4") {
		ran = true
		r, err := figure1()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Optimal schedules of the alternative paths of Fig. 1 (cf. Fig. 4):")
		fmt.Fprintln(out, expr.Figure1Gantt(r))
	}
	if want("fig5") || want("fig6") || *exp == "sweep" || *mergeFiles != "" {
		ran = true
		cfg, err := sweepConfig(baseOpts)
		if err != nil {
			return err
		}
		cells, err := runSweepCells(cfg, sweepRunOpts{
			mergeFiles:   *mergeFiles,
			shards:       *shards,
			remotes:      splitList(*remote),
			shardTimeout: *shardTimeout,
			journalDir:   *journalDir,
			progress:     *progress,
			metrics:      serveSweepMetrics(*metricsAddr),
		})
		if err != nil {
			return err
		}
		if *zeroTimes {
			cells = expr.ZeroTimes(cells)
		}
		cfg = cfg.Normalize()
		if *exp != "sweep" {
			fmt.Fprintf(out, "Sweep over %d graphs (%d per cell)\n\n",
				len(cfg.Nodes)*len(cfg.Paths)*cfg.GraphsPerCell, cfg.GraphsPerCell)
			if want("fig5") {
				fmt.Fprintln(out, expr.RenderFig5(cells))
			}
			if want("fig6") {
				fmt.Fprintln(out, expr.RenderFig6(cells))
			}
		}
		path := *csvPath
		if path == "" && *exp == "sweep" {
			path = "-"
		}
		if path != "" {
			if err := writeCellsCSV(out, path, cells); err != nil {
				return err
			}
		}
	}
	if *mergeFiles == "" && *exp == "ablate" {
		ran = true
		// Validate the sweep flags once up front; the ablation closure can
		// then drop the (now impossible) error.
		if _, err := sweepConfig(core.Options{}); err != nil {
			return err
		}
		sweep := func(opts core.Options) ([]expr.Cell, error) {
			cfg, _ := sweepConfig(opts)
			return sweepCells(cfg, *progress)
		}
		if err := runAblation(out, sweep); err != nil {
			return err
		}
	}
	if *mergeFiles == "" && want("table2") {
		ran = true
		res, err := expr.RunTable2(baseOpts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, expr.RenderTable2(res))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig1, fig4, fig5, fig6, sweep, table2, ablate or all)", *exp)
	}
	return nil
}

// overrideList parses a comma-separated list of positive integers, returning
// def when the flag is empty.
func overrideList(def []int, flagVal string) ([]int, error) {
	if flagVal == "" {
		return def, nil
	}
	var vals []int
	seen := map[int]bool{}
	for _, part := range strings.Split(flagVal, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("malformed value %q (want positive integers)", part)
		}
		if seen[n] {
			return nil, fmt.Errorf("duplicate value %d", n)
		}
		seen[n] = true
		vals = append(vals, n)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return vals, nil
}

// splitList splits a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	var vals []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			vals = append(vals, part)
		}
	}
	return vals
}

// sweepRunOpts bundles the flags that select and shape a sweep run's
// execution mode.
type sweepRunOpts struct {
	mergeFiles   string
	shards       int
	remotes      []string
	shardTimeout time.Duration
	journalDir   string
	progress     bool
	metrics      *distrib.Metrics // nil = unobserved
}

// serveSweepMetrics starts the -metrics-addr exposition endpoint and returns
// the distrib instrument set registered on it (nil when the flag is unset).
// The listener lives for the rest of the process; a busy or invalid address
// is reported on stderr but never fails the sweep itself.
func serveSweepMetrics(addr string) *distrib.Metrics {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	metrics := distrib.NewMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(reg))
	go func() {
		srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.ListenAndServe(); err != nil {
			fmt.Fprintf(stderr, "cpgexper: -metrics-addr %s: %v\n", addr, err)
		}
	}()
	fmt.Fprintf(stderr, "cpgexper: serving sweep metrics on %s/metrics\n", addr)
	return metrics
}

// runSweepCells produces the sweep cells by whichever mode the flags select:
// merging saved partials, coordinating shards over backends, or the plain
// single-process run.
func runSweepCells(cfg expr.SweepConfig, opts sweepRunOpts) ([]expr.Cell, error) {
	start := time.Now()
	defer func() {
		// Timing goes to stderr so stdout is byte-identical for every
		// -workers value (and every machine).
		fmt.Fprintf(stderr, "sweep: total time %v\n", time.Since(start).Round(time.Millisecond))
	}()
	if opts.mergeFiles != "" {
		return mergePartialFiles(cfg, splitList(opts.mergeFiles))
	}
	if opts.shards > 0 || len(opts.remotes) > 0 || opts.journalDir != "" {
		return runCoordinated(cfg, opts)
	}
	return sweepCells(cfg, opts.progress)
}

// sweepCells runs the whole sweep in this process and aggregates its cells,
// reporting its progress from the shard stream's yield.
func sweepCells(cfg expr.SweepConfig, progress bool) ([]expr.Cell, error) {
	sh, err := expr.RunSweepShardStream(context.Background(), cfg, graphProgress(progress, cfg.ShardSize()))
	if err != nil {
		return nil, err
	}
	return expr.MergeCells(cfg, []*expr.ShardResult{sh})
}

// graphProgress returns a sweep yield that reports each of total graphs on
// stderr as "sweep: k/N graphs", rewriting the line with a carriage return
// and ending it after the last graph, or reports nothing when off. A sweep
// serializes its yields, so the count needs no lock.
func graphProgress(on bool, total int) func(expr.GraphResult) error {
	done := 0
	return func(expr.GraphResult) error {
		if !on {
			return nil
		}
		done++
		fmt.Fprintf(stderr, "\rsweep: %d/%d graphs", done, total)
		if done == total {
			fmt.Fprintln(stderr)
		}
		return nil
	}
}

// runCoordinated fans the sweep's shards over the remote servers (or an
// in-process service sharing one worker budget) and merges the results.
// Failed shards retry whole with backoff on the backends not evicted, and
// with -journal every completed shard is kept so a restarted run re-runs
// only the unfinished ones. Ctrl-C cancels the in-flight shard requests
// promptly (the journal keeps the shards already completed).
func runCoordinated(cfg expr.SweepConfig, opts sweepRunOpts) ([]expr.Cell, error) {
	var backends []distrib.Backend
	for _, u := range opts.remotes {
		backends = append(backends, distrib.HTTP{BaseURL: u})
	}
	if len(backends) == 0 {
		// In-process fallback: one service so concurrent shards share the
		// -workers budget instead of multiplying it.
		svc, err := service.New(service.Config{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		backends = []distrib.Backend{distrib.InProcess{Service: svc}}
	}
	shards := opts.shards
	if shards < 1 {
		shards = max(1, len(backends))
	}
	// Faults (failures, retries, evictions) always reach stderr; -progress
	// gates only the progress lines. Per-graph lines would interleave across
	// concurrent shards, so the coordinator reports shard completions.
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "sweep: "+format+"\n", args...)
	}
	progressf := func(string, ...any) {}
	if opts.progress {
		progressf = logf
	}
	co := &distrib.Coordinator{
		Shards:       shards,
		Backends:     backends,
		ShardTimeout: opts.shardTimeout,
		Log:          logf,
		Progress:     progressf,
		Metrics:      opts.metrics,
	}
	if opts.journalDir != "" {
		j, err := distrib.OpenJournal(opts.journalDir)
		if err != nil {
			return nil, err
		}
		co.Journal = j
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return co.Run(ctx, cfg)
}

// writeShardPartial runs one shard of the sweep (the "i/N" spec) and writes
// its NDJSON frame stream, graph by graph as they complete, ready for a
// later -merge; progress goes to stderr after each graph's frame.
func writeShardPartial(out io.Writer, cfg expr.SweepConfig, spec string, progress bool) error {
	var i, n int
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil || fmt.Sprintf("%d/%d", i, n) != spec {
		return fmt.Errorf("malformed -shard %q (want i/N, e.g. 0/2)", spec)
	}
	cfg.ShardIndex, cfg.ShardCount = i, n
	cfg = cfg.Normalize()
	if err := cfg.ValidateShard(); err != nil {
		return err
	}
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		return err
	}
	report := graphProgress(progress, cfg.ShardSize())
	return textio.WriteShard(out, hash, cfg, func(yield func(expr.GraphResult) error) error {
		_, err := expr.RunSweepShardStream(context.Background(), cfg, func(g expr.GraphResult) error {
			if err := yield(g); err != nil {
				return err
			}
			return report(g)
		})
		return err
	})
}

// mergePartialFiles reads saved shard streams through textio.ReadShard,
// which refuses a torn stream and one of another sweep (content hash) and
// checks every graph against the shard its header names, and merges them
// into cells; MergeCells then checks that together they cover the sweep
// exactly once.
func mergePartialFiles(cfg expr.SweepConfig, files []string) ([]expr.Cell, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("-merge needs at least one shard file")
	}
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		return nil, err
	}
	var shardResults []*expr.ShardResult
	for _, name := range files {
		sh, err := readShardFile(cfg, hash, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		shardResults = append(shardResults, sh)
	}
	return expr.MergeCells(cfg, shardResults)
}

// readShardFile reads one saved shard stream of the sweep whose content
// hash is hash.
func readShardFile(cfg expr.SweepConfig, hash, name string) (*expr.ShardResult, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return textio.ReadShard(f, hash, cfg, nil)
}

// writeCellsCSV writes the sweep CSV to a file, or to the command output for
// "-".
func writeCellsCSV(out io.Writer, path string, cells []expr.Cell) error {
	if path == "-" {
		return expr.WriteSweepCSV(out, cells)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := expr.WriteSweepCSV(f, cells); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAblation reruns the Fig. 5 sweep under every path-selection policy and
// then under every scheduling strategy. Every sweep generates the same graphs
// from the same seeds, so only the scheduling differs between the rows.
func runAblation(out io.Writer, sweep func(core.Options) ([]expr.Cell, error)) error {
	printLine := func(label string, cells []expr.Cell) {
		// Every cell holds the same number of graphs, so the mean of the
		// per-cell averages is the per-graph average.
		avgs := make([]float64, 0, len(cells))
		violations := 0
		for _, c := range cells {
			avgs = append(avgs, c.AvgIncreasePct)
			violations += c.Violations
		}
		fmt.Fprintf(out, "  %-16s avg %6.2f%%   max cell avg %6.2f%%   violations %d\n",
			label, stats.Mean(avgs), stats.Max(avgs), violations)
	}
	// The default-policy sweep and the default-strategy sweep are the same
	// run (largest-delay selection, critical-path scheduler — pinned by
	// TestStrategyDefaultEquivalence), so its cells are computed once and
	// printed under both headers.
	var defaultCells []expr.Cell
	fmt.Fprintln(out, "Ablation: average increase of δmax over δM (%) by path-selection policy")
	for _, policy := range []core.PathSelection{core.SelectLargestDelay, core.SelectSmallestDelay, core.SelectFirst} {
		cells, err := sweep(core.Options{PathSelection: policy})
		if err != nil {
			return err
		}
		if policy == core.SelectLargestDelay {
			defaultCells = cells
		}
		printLine(policy.String(), cells)
	}
	fmt.Fprintln(out, "Ablation: average increase of δmax over δM (%) by scheduling strategy")
	for _, name := range listsched.StrategyNames() {
		cells := defaultCells
		if name != listsched.DefaultStrategy {
			var err error
			if cells, err = sweep(core.Options{Strategy: name}); err != nil {
				return err
			}
		}
		printLine(name, cells)
	}
	return nil
}
