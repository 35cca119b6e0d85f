package expr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pool"
	"repro/internal/stats"
)

// DefaultSeed is the sweep seed substituted by Normalize when SweepConfig.Seed
// is zero (the zero value of an unset config).
const DefaultSeed = 1998

// ZeroSeed is the sentinel requesting a literal zero sweep seed. A plain
// Seed == 0 means "unset" and normalizes to DefaultSeed, which would make a
// deliberate zero seed unreachable — and worse, would let a shard coordinator
// and a sweep server silently disagree about which seed a document carrying 0
// means. The sentinel survives Normalize unchanged (Normalize is idempotent)
// and is resolved to the literal seed 0 only at the point of seed derivation,
// so every layer — config, wire document, shard worker — agrees. The value
// math.MinInt64 is therefore reserved and cannot be used as a real sweep
// seed (the strict decoders reject it on the wire).
const ZeroSeed = math.MinInt64

// SweepConfig parameterises the synthetic-graph experiment behind Fig. 5 and
// Fig. 6 of the paper. The paper uses 1080 graphs: 360 per graph size (60, 80
// and 120 nodes), spread over 10, 12, 18, 24 and 32 alternative paths, with
// uniform and exponential execution times and architectures of one ASIC, one
// to eleven processors and one to eight buses.
type SweepConfig struct {
	// Nodes are the graph sizes (default 60, 80, 120).
	Nodes []int
	// Paths are the numbers of alternative paths (default 10, 12, 18, 24, 32).
	Paths []int
	// GraphsPerCell is the number of graphs generated for every
	// (size, paths) combination. The paper uses 72 (1080 graphs in total);
	// the default here is smaller so the experiment finishes quickly, and
	// the command line tool can request the full size.
	GraphsPerCell int
	// Seed makes the sweep reproducible: every graph of the sweep draws its
	// generator seed deterministically from Seed and its (size, paths,
	// index) cell coordinates, so the same Seed produces the same graphs —
	// and the same cells — for every worker count.
	Seed int64
	// Workers bounds the number of goroutines scheduling sweep graphs
	// concurrently (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Progress, when non-nil, is called after every scheduled graph with
	// the number of graphs done so far and the total. Calls are serialized
	// but may come from worker goroutines.
	Progress func(done, total int)
	// Options are passed to the table generation.
	Options core.Options
	// ShardIndex and ShardCount select one shard of the sweep for
	// distributed execution: every (nodes, paths, index) graph is assigned
	// to shard shardOf(...) % ShardCount by a stable hash of its
	// coordinates, so shards are balanced, seed-independent and identical
	// on every machine. ShardCount == 0 (or 1) means the whole sweep;
	// RunSweepShardContext executes exactly one shard and MergeCells
	// recombines the partial results of all shards into the cells a
	// single-process run produces, byte for byte.
	ShardIndex int
	ShardCount int
}

// Normalize fills defaults. It is idempotent: normalizing a normalized
// config changes nothing (in particular the ZeroSeed sentinel is preserved,
// not re-interpreted as "unset").
func (c SweepConfig) Normalize() SweepConfig {
	if len(c.Nodes) == 0 {
		c.Nodes = []int{60, 80, 120}
	}
	if len(c.Paths) == 0 {
		c.Paths = []int{10, 12, 18, 24, 32}
	}
	if c.GraphsPerCell <= 0 {
		c.GraphsPerCell = 4
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.ShardCount <= 0 {
		c.ShardCount = 1
	}
	return c
}

// ValidateShard checks the shard coordinates of a config (after Normalize):
// ShardIndex must lie in [0, ShardCount).
func (c SweepConfig) ValidateShard() error {
	if c.ShardCount < 1 {
		return fmt.Errorf("expr: shard count must be >= 1; got %d", c.ShardCount)
	}
	if c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount {
		return fmt.Errorf("expr: shard index %d out of range [0, %d)", c.ShardIndex, c.ShardCount)
	}
	return nil
}

// validateGrid rejects duplicate Nodes or Paths entries: a duplicated cell
// coordinate cannot be represented in the per-graph result accounting (two
// graphs would share (nodes, paths, index)), so it is refused up front with
// a clear message instead of surfacing later as a bogus sharding error.
func (c SweepConfig) validateGrid() error {
	seen := map[int]bool{}
	for _, n := range c.Nodes {
		if seen[n] {
			return fmt.Errorf("expr: duplicate graph size %d in sweep config", n)
		}
		seen[n] = true
	}
	clear(seen)
	for _, p := range c.Paths {
		if seen[p] {
			return fmt.Errorf("expr: duplicate path count %d in sweep config", p)
		}
		seen[p] = true
	}
	return nil
}

// PaperSweep returns the configuration of the full experiment of the paper
// (1080 graphs).
func PaperSweep() SweepConfig {
	return SweepConfig{GraphsPerCell: 72}.Normalize()
}

// GoldenSweep returns the small fixed-seed sweep pinned byte-for-byte by
// testdata/sweep_golden.csv (regenerated by scripts/gengolden): 12 graphs,
// small enough for tier-1 tests and the sweep smoke script, large enough to
// span several cells and shards — and seeded so several cells carry nonzero
// δ increases, making the byte-identity tests sensitive to aggregation
// order, not just to coverage.
func GoldenSweep() SweepConfig {
	return SweepConfig{
		Nodes:         []int{60, 80},
		Paths:         []int{10, 12},
		GraphsPerCell: 3,
		Seed:          7,
	}.Normalize()
}

// Cell aggregates the measurements of one (graph size, path count) cell of
// the sweep; it carries both the Fig. 5 metric (increase of δmax over δM) and
// the Fig. 6 metric (execution time of the schedule merging).
type Cell struct {
	Nodes  int
	Paths  int
	Graphs int
	// AvgIncreasePct is the average of 100*(δmax-δM)/δM (Fig. 5).
	AvgIncreasePct float64
	// MaxIncreasePct is the worst observed increase.
	MaxIncreasePct float64
	// ZeroFraction is the fraction of graphs with δmax == δM (quoted in
	// the text of section 6: 90%, 82%, 57%, 46%, 33%).
	ZeroFraction float64
	// AvgMergeTime is the average execution time of the schedule merging
	// (Fig. 6).
	AvgMergeTime time.Duration
	// AvgPathSchedTime is the average time spent scheduling the individual
	// paths of one graph (the "<0.003 s" figure of section 6).
	AvgPathSchedTime time.Duration
	// Violations counts graphs whose table failed validation (expected 0).
	Violations int
}

// splitmix64 is the seed-mixing step of the splitmix64 generator; it is used
// to derive independent, well-distributed per-graph seeds from the sweep seed
// and the cell coordinates.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GraphConfig returns the generator configuration of graph i of the (nodes,
// paths) cell of a sweep with the given seed: the graph every run of that
// sweep schedules there.
func GraphConfig(seed int64, nodes, paths, i int) gen.Config {
	return gen.RandomConfig(rand.New(rand.NewSource(cellSeed(seed, nodes, paths, i))), nodes, paths)
}

// cellSeed derives the generator seed of graph i of the (nodes, paths) cell.
// The derivation depends only on the sweep seed and the cell coordinates —
// never on worker count, shard assignment or completion order — so a sweep is
// reproducible cell-by-cell under any parallelism on any machine. The
// ZeroSeed sentinel resolves to the literal seed 0 here, at the single point
// of use, so every layer above can pass it around without special cases.
func cellSeed(seed int64, nodes, paths, i int) int64 {
	if seed == ZeroSeed {
		seed = 0
	}
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(nodes))
	h = splitmix64(h ^ uint64(paths))
	h = splitmix64(h ^ uint64(i))
	return int64(h >> 1) // non-negative, rand.NewSource takes any int64 but keep it tidy
}

// shardOf assigns the graph at (nodes, paths, index) to one of count shards
// by a stable splitmix64 hash of its coordinates. The assignment is
// independent of the sweep seed and of execution order, so every coordinator
// and worker — in-process or remote — computes the same balanced partition.
func shardOf(nodes, paths, index, count int) int {
	if count <= 1 {
		return 0
	}
	h := splitmix64(uint64(nodes))
	h = splitmix64(h ^ uint64(paths))
	h = splitmix64(h ^ uint64(index))
	return int(h % uint64(count))
}

// GraphKey identifies one graph of a sweep by its cell coordinates. It is
// the unit of streaming and coverage accounting: per-graph seeds depend only
// on the key (and the sweep seed), so a graph recomputed anywhere under any
// parallelism produces the same GraphResult.
type GraphKey struct {
	Nodes int
	Paths int
	Index int
}

// Key returns the graph's cell coordinates.
func (g GraphResult) Key() GraphKey {
	return GraphKey{Nodes: g.Nodes, Paths: g.Paths, Index: g.Index}
}

// allJobs enumerates every graph of the (normalized) sweep in canonical
// order: nodes-major, then paths, then index. Aggregation always follows this
// order, which is what makes the cells bit-identical across worker counts and
// shard layouts (float sums are order-sensitive).
func (c SweepConfig) allJobs() []GraphKey {
	jobs := make([]GraphKey, 0, len(c.Nodes)*len(c.Paths)*c.GraphsPerCell)
	for _, nodes := range c.Nodes {
		for _, paths := range c.Paths {
			for i := 0; i < c.GraphsPerCell; i++ {
				jobs = append(jobs, GraphKey{Nodes: nodes, Paths: paths, Index: i})
			}
		}
	}
	return jobs
}

// shardJobs enumerates the graphs assigned to the config's shard in
// canonical order.
func (c SweepConfig) shardJobs() []GraphKey {
	jobs := c.allJobs()
	if c.ShardCount <= 1 {
		return jobs
	}
	var mine []GraphKey
	for _, j := range jobs {
		if shardOf(j.Nodes, j.Paths, j.Index, c.ShardCount) == c.ShardIndex {
			mine = append(mine, j)
		}
	}
	return mine
}

// ShardSize reports how many graphs of the sweep the config's shard covers —
// the useful upper bound on the shard's scheduling parallelism.
func (c SweepConfig) ShardSize() int {
	return len(c.Normalize().shardJobs())
}

// ShardGraphs returns the canonical-order keys of the graphs the config's
// shard covers — the coverage a shard stream must account for, graph by
// graph.
func (c SweepConfig) ShardGraphs() []GraphKey {
	return c.Normalize().shardJobs()
}

// GraphResult is the raw measurement of one scheduled graph of the sweep,
// keyed by its (Nodes, Paths, Index) coordinates. Shards exchange these —
// not aggregated cells — so the coordinator can re-aggregate in canonical
// job order and reproduce a single-process run bit for bit. The JSON tags
// are the graph frame of textio's shard stream.
type GraphResult struct {
	Nodes int `json:"nodes"`
	Paths int `json:"paths"`
	Index int `json:"index"`
	// IncreasePct is 100*(δmax-δM)/δM of the graph.
	IncreasePct float64 `json:"increasePct"`
	// MergeNs and PathSchedNs are the wall-clock merge and path-scheduling
	// times (run-dependent; zero them for byte-identity comparisons).
	MergeNs     float64 `json:"mergeNs"`
	PathSchedNs float64 `json:"pathSchedNs"`
	// Violation reports a graph whose table failed validation (expected
	// false everywhere).
	Violation bool `json:"violation,omitempty"`
}

// ShardResult carries the partial results of one shard of a sweep, with the
// shard coordinates it covered, so a coordinator can account for coverage
// and detect gaps before merging.
type ShardResult struct {
	ShardIndex int
	ShardCount int
	// Results holds one entry per graph of the shard, in canonical job
	// order.
	Results []GraphResult
}

// RunSweepShardContext generates and schedules the graphs of the config's
// shard on cfg.Workers goroutines and returns their raw measurements in
// canonical job order. Per-graph seeds depend only on cfg.Seed and the graph
// coordinates, so any partition of the sweep into shards — executed anywhere,
// in any order — produces the same per-graph results. Cancelling ctx aborts
// the shard promptly (between graphs and between merge back-steps of the
// in-flight graphs) and returns ctx.Err().
func RunSweepShardContext(ctx context.Context, cfg SweepConfig) (*ShardResult, error) {
	return RunSweepShardStream(ctx, cfg, nil)
}

// RunSweepShardStream runs the config's shard like RunSweepShardContext and
// additionally calls yield (when non-nil) once per graph as it completes, in
// completion order. Yields are serialized (never concurrent) but may come
// from worker goroutines; a graph is yielded before it counts toward
// cfg.Progress. The yielded results are exactly the entries of the returned
// ShardResult — a consumer that received every yield needs nothing from the
// final result but its error. If yield returns an error the shard aborts
// promptly and returns that error: a streaming server uses this to stop
// computing when the client is gone.
func RunSweepShardStream(ctx context.Context, cfg SweepConfig, yield func(GraphResult) error) (*ShardResult, error) {
	cfg = cfg.Normalize()
	if err := cfg.ValidateShard(); err != nil {
		return nil, err
	}
	if err := cfg.validateGrid(); err != nil {
		return nil, err
	}
	jobs := cfg.shardJobs()

	// The sweep parallelises across graphs, so each graph's paths are
	// scheduled on a single goroutine unless the caller explicitly asked
	// for nested parallelism: this avoids oversubscription when the sweep
	// fans out and keeps Workers=1 a true sequential baseline.
	opts := cfg.Options
	if opts.Workers == 0 {
		opts.Workers = 1
	}

	results := make([]GraphResult, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	var mu sync.Mutex // serializes yield + Progress across workers
	done := 0
	// Each worker schedules its graphs in its own workspace, which recycles
	// one graph's scheduling state for the next: a graph's result is read
	// into its GraphResult before the worker's next graph overwrites it.
	workspaces := make([]core.Workspace, pool.Clamp(len(jobs), cfg.Workers))
	runOne := func(ws *core.Workspace, j int) {
		if failed.Load() {
			return // a job already failed; drain the queue without working
		}
		fail := func(err error) {
			errs[j] = err
			failed.Store(true)
		}
		job := jobs[j]
		key := stats.Key(job.Nodes, job.Paths)
		if err := ctx.Err(); err != nil {
			fail(err)
			return
		}
		inst, err := gen.Generate(GraphConfig(cfg.Seed, job.Nodes, job.Paths, job.Index))
		if err != nil {
			fail(fmt.Errorf("expr: generating graph %d of cell %s: %w", job.Index, key, err))
			return
		}
		res, err := ws.Schedule(ctx, inst.Graph, inst.Arch, opts)
		if err != nil {
			fail(fmt.Errorf("expr: scheduling graph %d of cell %s: %w", job.Index, key, err))
			return
		}
		results[j] = GraphResult{
			Nodes:       job.Nodes,
			Paths:       job.Paths,
			Index:       job.Index,
			IncreasePct: res.IncreasePercent(),
			MergeNs:     float64(res.Stats.MergeTime),
			PathSchedNs: float64(res.Stats.PathSchedulingTime),
			Violation:   !res.Deterministic(),
		}
		if yield != nil {
			mu.Lock()
			err := yield(results[j])
			mu.Unlock()
			if err != nil {
				fail(fmt.Errorf("expr: streaming graph %d of cell %s: %w", job.Index, key, err))
			}
		}
	}
	finishOne := func(j int) {
		if cfg.Progress == nil {
			return
		}
		mu.Lock()
		done++
		cfg.Progress(done, len(jobs))
		mu.Unlock()
	}

	pool.ForEachIndexWorker(len(jobs), cfg.Workers, func(worker, j int) {
		runOne(&workspaces[worker], j)
		finishOne(j)
	})

	for _, err := range errs {
		if err != nil {
			// A cancelled context usually fails many jobs at once; report
			// the cancellation itself, not an arbitrary wrapped instance.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
	}
	return &ShardResult{ShardIndex: cfg.ShardIndex, ShardCount: cfg.ShardCount, Results: results}, nil
}

// RunSweep generates the graphs of the sweep, produces a schedule table for
// every graph and aggregates the per-cell statistics. The graphs are
// independent, so they are scheduled concurrently on cfg.Workers goroutines;
// per-graph seeds are derived from cfg.Seed and the cell coordinates, and the
// measurements are aggregated in cell order after all workers join, so the
// returned cells (timing aside) are bit-identical for every worker count.
//
// RunSweep always executes the whole sweep: configs selecting a single shard
// (ShardCount > 1) are rejected — run those through RunSweepShardContext
// and recombine with MergeCells.
func RunSweep(cfg SweepConfig) ([]Cell, error) {
	cfg = cfg.Normalize()
	if cfg.ShardCount > 1 {
		return nil, fmt.Errorf("expr: RunSweep executes whole sweeps; use RunSweepShardContext for shard %d/%d and MergeCells to recombine",
			cfg.ShardIndex, cfg.ShardCount)
	}
	shard, err := RunSweepShardContext(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return MergeCells(cfg, []*ShardResult{shard})
}

// MergeCells recombines the partial results of a sweep's shards into the
// per-cell statistics a single-process RunSweep of the same config returns,
// byte for byte: results are re-ordered into canonical job order before
// aggregating, so the order-sensitive float sums match regardless of how the
// sweep was partitioned. Coverage is strictly accounted: a result outside the
// sweep, a graph covered twice and a graph covered by no shard are all
// errors, so a coordinator detects gaps instead of publishing silently
// truncated figures. The shard fields of cfg are ignored.
func MergeCells(cfg SweepConfig, shards []*ShardResult) ([]Cell, error) {
	cfg = cfg.Normalize()
	if err := cfg.validateGrid(); err != nil {
		return nil, err
	}
	jobs := cfg.allJobs()
	slot := make(map[GraphKey]int, len(jobs))
	for j, job := range jobs {
		slot[job] = j
	}
	results := make([]*GraphResult, len(jobs))
	for _, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("expr: nil shard result")
		}
		for i := range sh.Results {
			res := &sh.Results[i]
			j, ok := slot[res.Key()]
			if !ok {
				return nil, fmt.Errorf("expr: shard %d/%d returned graph (%d nodes, %d paths, index %d) outside the sweep",
					sh.ShardIndex, sh.ShardCount, res.Nodes, res.Paths, res.Index)
			}
			if results[j] != nil {
				return nil, fmt.Errorf("expr: graph (%d nodes, %d paths, index %d) covered twice across shards",
					res.Nodes, res.Paths, res.Index)
			}
			results[j] = res
		}
	}
	missing := 0
	for j := range results {
		if results[j] == nil {
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("expr: %d of %d graphs not covered by any shard", missing, len(jobs))
	}

	// Aggregate in canonical job order: float sums are order-sensitive, so
	// this keeps the cells bit-identical regardless of shard layout and of
	// which worker finished first.
	increase := stats.NewSeries()
	mergeTime := stats.NewSeries()
	pathTime := stats.NewSeries()
	violations := map[string]int{}
	counts := map[string]int{}
	for _, res := range results {
		key := stats.Key(res.Nodes, res.Paths)
		increase.Add(key, res.IncreasePct)
		mergeTime.Add(key, res.MergeNs)
		pathTime.Add(key, res.PathSchedNs)
		counts[key]++
		if res.Violation {
			violations[key]++
		}
	}

	var cells []Cell
	for _, nodes := range cfg.Nodes {
		for _, paths := range cfg.Paths {
			key := stats.Key(nodes, paths)
			vals := increase.Values(key)
			cells = append(cells, Cell{
				Nodes:            nodes,
				Paths:            paths,
				Graphs:           counts[key],
				AvgIncreasePct:   stats.Mean(vals),
				MaxIncreasePct:   stats.Max(vals),
				ZeroFraction:     stats.Fraction(vals, func(v float64) bool { return v == 0 }),
				AvgMergeTime:     time.Duration(mergeTime.Mean(key)),
				AvgPathSchedTime: time.Duration(pathTime.Mean(key)),
				Violations:       violations[key],
			})
		}
	}
	return cells, nil
}

// RenderFig5 renders the increase of the worst-case delay over the longest
// path delay, one line per path count and one column per graph size (the
// series of Fig. 5), followed by the zero-increase fractions quoted in the
// text of section 6.
func RenderFig5(cells []Cell) string {
	return renderSweep(cells, "Fig. 5: average increase of δmax over δM (%)",
		func(c Cell) string { return fmt.Sprintf("%.2f", c.AvgIncreasePct) },
		func(byPaths []Cell) string {
			zeros, total := 0.0, 0.0
			for _, c := range byPaths {
				zeros += c.ZeroFraction * float64(c.Graphs)
				total += float64(c.Graphs)
			}
			if total == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.0f%%", 100*zeros/total)
		})
}

// RenderFig6 renders the average execution time of the schedule merging per
// cell (the series of Fig. 6).
func RenderFig6(cells []Cell) string {
	return renderSweep(cells, "Fig. 6: average execution time of the schedule merging",
		func(c Cell) string { return fmt.Sprintf("%.3fms", float64(c.AvgMergeTime)/float64(time.Millisecond)) },
		nil)
}

// renderSweep lays the cells out as a table with one row per path count and
// one column per graph size.
func renderSweep(cells []Cell, title string, format func(Cell) string, extra func([]Cell) string) string {
	nodeSet := []int{}
	pathSet := []int{}
	seenN := map[int]bool{}
	seenP := map[int]bool{}
	byKey := map[string]Cell{}
	for _, c := range cells {
		if !seenN[c.Nodes] {
			seenN[c.Nodes] = true
			nodeSet = append(nodeSet, c.Nodes)
		}
		if !seenP[c.Paths] {
			seenP[c.Paths] = true
			pathSet = append(pathSet, c.Paths)
		}
		byKey[stats.Key(c.Nodes, c.Paths)] = c
	}
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "merged schedules")
	for _, n := range nodeSet {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d nodes", n))
	}
	if extra != nil {
		fmt.Fprintf(&b, " %14s", "zero increase")
	}
	b.WriteByte('\n')
	for _, p := range pathSet {
		fmt.Fprintf(&b, "%-18d", p)
		var row []Cell
		for _, n := range nodeSet {
			c := byKey[stats.Key(n, p)]
			row = append(row, c)
			fmt.Fprintf(&b, " %14s", format(c))
		}
		if extra != nil {
			fmt.Fprintf(&b, " %14s", extra(row))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
