package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/gen"
	"repro/internal/httpserver"
	"repro/internal/listsched"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/textio"
)

// The traced replays are sized per --second like the timed runs, at the
// rate the traced loop reaches on a 2-vCPU Intel Xeon virtual machine.
const (
	traceColdRate   = 12 // schedule-cold ops per second
	traceEditRate   = 20 // schedule-edit ops per second
	traceSweepGraph = 30 // sweep graphs replayed per second (besides one coordinated sweep)
)

// ledgerSteps are the in-process steps whose time and allocated bytes the
// ledger reports as <step>_ms and <step>_alloc_kb, means per op.
var ledgerSteps = []string{
	"cpg.enumerate", "cpg.subgraph", "listsched.schedule",
	"core.path_phase", "core.merge", "core.validate_phase",
	"table.validate", "sim.simulate", "gen.generate",
	"textio.read_problem", "textio.decode_problem", "textio.problem_hash",
	"textio.encode_solution", "textio.write_solution",
	"service.schedule", "httpserver.handler",
}

// ledgerCounts are the ledger's other metrics, with their units. Every
// workload reports all of them; a layer the workload does not run reads 0.
var ledgerCounts = []struct{ name, unit string }{
	{"cpg.paths", "count"},
	{"core.back_steps", "count"},
	{"core.conflicts", "count"},
	{"core.unresolved_conflicts", "count"},
	{"table.entries", "count"},
	{"textio.response_kb", "KB"},
	{"service.memo_hit_ratio", "ratio"},
	{"service.warm_start_ratio", "ratio"},
	{"service.warm_reused_path_ratio", "ratio"},
	{"httpserver.self_ms", "ms"},
	{"httpserver.transport_ms", "ms"},
	{"httpserver.shed", "count"},
	{"distrib.attempts", "count"},
	{"distrib.retries", "count"},
	{"distrib.steals", "count"},
	{"distrib.attempt_ms", "ms"},
	{"distrib.useful_graph_ratio", "ratio"},
	{"distrib.backend_busy_ratio", "ratio"},
	{"trace.ops_per_s", "ops/s"},
}

// span is one traced interval. The spans of one op share Op; Parent is the
// index of the enclosing span (-1 for a root). Alloc is the bytes allocated
// between start and end; it is meaningful because a traced replay runs one
// step at a time.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Alloc   uint64 `json:"alloc_bytes"`
}

// tracer keeps the spans of a run in memory until it ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. The allocation counter is read
// before the clock so that reading it is not timed.
func (t *tracer) begin(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds(), Alloc: t.ms.TotalAlloc})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.EndNs = end
	s.Alloc = t.ms.TotalAlloc - s.Alloc
}

// add records a finished span measured elsewhere (concurrent work whose
// allocations cannot be attributed).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: -1, Parent: parent, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
}

// totals sums duration (ms) and allocations (KB) per span name.
func (t *tracer) totals() (ms, kb map[string]float64) {
	ms, kb = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		ms[s.Name] += float64(s.EndNs-s.StartNs) / 1e6
		kb[s.Name] += float64(s.Alloc) / 1024
	}
	return ms, kb
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ledger turns a traced run into the per-layer metrics: every step's mean
// time and allocations per op, plus the counts in sums (divided by ops
// unless listed in absolute).
func ledger(o *outcome, t *tracer, ops int, sums, absolute map[string]float64) {
	ms, kb := t.totals()
	for _, step := range ledgerSteps {
		o.set(step+"_ms", "ms", ms[step]/float64(ops))
		o.set(step+"_alloc_kb", "KB", kb[step]/float64(ops))
	}
	for _, c := range ledgerCounts {
		v, ok := absolute[c.name]
		if !ok {
			v = sums[c.name] / float64(ops)
		}
		o.set(c.name, c.unit, v)
	}
}

// replay re-runs one scheduling job layer by layer, single-threaded, the
// way core does: path enumeration, the subgraphs and per-path schedules of
// the paths a warm start does not reuse, the three phases of core itself
// (split at its PhaseFunc transitions), then validation and simulation of
// the resulting table. prev and dirty select a warm start, as the service
// makes one.
func (t *tracer) replay(ctx context.Context, op, parent int, g *cpg.Graph, a *arch.Architecture, opt core.Options, prev *core.Result, dirty []cpg.ProcID, sums map[string]float64) (*core.Result, error) {
	opt.Workers = 1
	i := t.begin("cpg.enumerate", op, parent)
	paths, err := g.AlternativePaths(opt.MaxPaths)
	t.end(i)
	if err != nil {
		return nil, err
	}
	var todo []*cpg.Path
	for _, p := range paths {
		reused := prev != nil
		for _, d := range dirty {
			if p.IsActive(d) {
				reused = false
			}
		}
		if !reused {
			todo = append(todo, p)
		}
	}
	i = t.begin("cpg.subgraph", op, parent)
	subs := make([]*cpg.Subgraph, len(todo))
	for k, p := range todo {
		subs[k] = g.Subgraph(p)
	}
	t.end(i)
	i = t.begin("listsched.schedule", op, parent)
	var sc listsched.Scratch
	strategy, named := listsched.LookupStrategy(opt.Strategy)
	for _, sub := range subs {
		if opt.Strategy != "" && named {
			_, _, err = strategy.SchedulePath(&sc, sub, a, opt.StrategyParams)
		} else {
			_, _, err = sc.Schedule(sub, a, listsched.Options{Priority: opt.PathPriority})
		}
		if err != nil {
			t.end(i)
			return nil, err
		}
	}
	t.end(i)

	root := t.begin("core.schedule", op, parent)
	phase := t.begin("core.path_phase", op, root)
	phases := func(name string, want int) int {
		t.end(phase)
		switch name {
		case core.PhaseMerge:
			phase = t.begin("core.merge", op, root)
		default:
			phase = t.begin("core.validate_phase", op, root)
		}
		return 1
	}
	var res *core.Result
	if prev != nil {
		res, err = core.ScheduleWarmPhased(ctx, prev, g, a, opt, dirty, phases)
	} else {
		res, err = core.SchedulePhased(ctx, g, a, opt, phases)
	}
	t.end(phase)
	t.end(root)
	if err != nil {
		return nil, err
	}

	i = t.begin("table.validate", op, parent)
	res.Table.ValidateParallel(g, paths, 1)
	t.end(i)
	i = t.begin("sim.simulate", op, parent)
	_, err = sim.WorstCaseSubgraphs(a, res.Table, res.Subgraphs, 1)
	t.end(i)
	if err != nil {
		return nil, err
	}
	sums["cpg.paths"] += float64(len(paths))
	sums["core.back_steps"] += float64(res.Stats.BackSteps)
	sums["core.conflicts"] += float64(res.Stats.Conflicts)
	sums["core.unresolved_conflicts"] += float64(res.Stats.UnresolvedConflicts)
	return res, nil
}

func traceScheduleCold(e *env) (*outcome, error) {
	return traceSchedule(e, "cold", roundUp(traceColdRate*e.seconds, gridCells))
}

func traceScheduleEdit(e *env) (*outcome, error) {
	return traceSchedule(e, "edit", (traceEditRate*e.seconds+sessionOps-1)/sessionOps)
}

// traceSchedule replays the first units of a schedule workload, one request
// at a time: through the in-process handler, through each of the steps the
// handler takes (on a second service that sees the same request sequence,
// so its memo and warm-start decisions are the same), through the layers
// below the service, and over HTTP to a real cpgserve for the transport
// share of the round trip.
func traceSchedule(e *env, kind string, n int) (*outcome, error) {
	o := newOutcome()
	units, err := scheduleUnits(e.seed, kind, n)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e.bin, filepath.Join(e.dir, "cpgserve-trace.log"), scheduleWorkers)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	hs, err := httpserver.NewServer(httpserver.Options{Service: service.Config{Workers: 1}})
	if err != nil {
		return nil, err
	}
	handler := hs.Routes(nil)
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()

	t := newTracer()
	sums := map[string]float64{}
	var hits, warm, warmPaths, reused, rttMs float64
	op := 0
	for _, unit := range units {
		var last *core.Result // the session's latest computed result: a warm start's base
		for _, q := range unit {
			root := t.begin("op", op, -1)
			rec := httptest.NewRecorder()
			i := t.begin("httpserver.handler", op, root)
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(q.Body)))
			t.end(i)
			sums["textio.response_kb"] += float64(rec.Body.Len()) / 1024
			o.Attempted++
			if _, reason := opOutcome(&opResult{status: rec.Code, body: rec.Body.Bytes()}); reason != "" {
				o.fail(reason)
			}

			i = t.begin("textio.read_problem", op, root)
			doc, err := textio.ReadProblem(bytes.NewReader(q.Body))
			t.end(i)
			if err != nil {
				return nil, err
			}
			i = t.begin("textio.decode_problem", op, root)
			prob, err := service.FromDoc(doc)
			t.end(i)
			if err != nil {
				return nil, err
			}
			i = t.begin("textio.problem_hash", op, root)
			_, err = textio.ProblemHash(textio.EncodeProblem(prob.Graph, prob.Arch, prob.Options))
			t.end(i)
			if err != nil {
				return nil, err
			}
			i = t.begin("service.schedule", op, root)
			sol, err := svc.Schedule(e.ctx, prob)
			t.end(i)
			if err != nil {
				return nil, err
			}
			i = t.begin("textio.encode_solution", op, root)
			out := textio.EncodeSolution(sol.Result)
			st := svc.Stats()
			out.Cache = &textio.CacheDoc{Hit: sol.CacheHit, Hits: st.CacheHits, Misses: st.CacheMisses, ProblemHash: sol.ProblemHash}
			t.end(i)
			i = t.begin("textio.write_solution", op, root)
			var buf bytes.Buffer
			err = textio.WriteSolution(&buf, out)
			t.end(i)
			if err != nil {
				return nil, err
			}
			sums["table.entries"] += float64(sol.Stats.Entries)

			if sol.CacheHit {
				hits++
			} else {
				var prev *core.Result
				var dirty []cpg.ProcID
				if q.Kind == "edit" {
					prev = last
					for _, name := range q.Dirty {
						if id, ok := prob.Graph.FindByName(name); ok {
							dirty = append(dirty, id)
						}
					}
				}
				if _, err := t.replay(e.ctx, op, root, prob.Graph, prob.Arch, prob.Options, prev, dirty, sums); err != nil {
					return nil, err
				}
				last = sol.Result
				if sol.WarmStart {
					warm++
					warmPaths += float64(sol.Stats.Paths)
					reused += float64(sol.Stats.WarmReusedPaths)
				}
			}

			i = t.begin("http.round_trip", op, root)
			status, _, err := postSchedule(e.ctx, hc, srv.URL, q.Body)
			t.end(i)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("traced round trip: status %d: %v", status, err)
			}
			rttMs += float64(t.spans[i].EndNs-t.spans[i].StartNs) / 1e6
			t.end(root)
			op++
		}
	}
	wall := time.Since(t.t0)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := hs.MetricsRegistry().WriteText(&text); err != nil {
		return nil, err
	}
	inProc, err := parseExposition(text.Bytes())
	if err != nil {
		return nil, err
	}

	// httpserver.self_ms: the handler minus the same request's own steps.
	// service.schedule already contains problem_hash.
	var self float64
	for _, s := range t.spans {
		switch s.Name {
		case "httpserver.handler":
			self += float64(s.EndNs-s.StartNs) / 1e6
		case "textio.read_problem", "textio.decode_problem", "service.schedule", "textio.encode_solution", "textio.write_solution":
			self -= float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	serverMs := 1000 * delta(`cpg_http_request_duration_seconds_sum{endpoint="/v1/schedule"}`) /
		delta(`cpg_http_request_duration_seconds_count{endpoint="/v1/schedule"}`)
	shed := sumSeries(after, "cpg_http_shed_total") - sumSeries(before, "cpg_http_shed_total")
	ops := float64(op)
	abs := map[string]float64{
		"service.memo_hit_ratio":         hits / ops,
		"service.warm_start_ratio":       warm / ops,
		"service.warm_reused_path_ratio": ratio(reused, warmPaths),
		"httpserver.self_ms":             self / ops,
		"httpserver.transport_ms":        rttMs/ops - serverMs,
		"httpserver.shed":                shed,
		"trace.ops_per_s":                ops / wall.Seconds(),
	}
	ledger(o, t, op, sums, abs)
	o.Raw["cache_cross_check"] = map[string]float64{
		"hits": hits, "warm_starts": warm,
		"in_process_metrics_memo_hits":   inProc["cpg_service_memo_hits_total"],
		"in_process_metrics_warm_starts": inProc["cpg_service_warm_starts_total"],
		"cpgserve_metrics_memo_hits":     delta("cpg_service_memo_hits_total"),
		"cpgserve_metrics_warm_starts":   delta("cpg_service_warm_starts_total"),
	}
	if hits != inProc["cpg_service_memo_hits_total"] || warm != inProc["cpg_service_warm_starts_total"] ||
		hits != delta("cpg_service_memo_hits_total") || warm != delta("cpg_service_warm_starts_total") {
		fmt.Printf("  note: service flags and /metrics disagree: %v\n", o.Raw["cache_cross_check"])
	}
	o.Raw["traced_ops"] = op
	o.Raw["traced_wall_s"] = wall.Seconds()
	o.Raw["server_ms_per_request"] = serverMs
	return o, t.write(filepath.Join(e.dir, "spans.json"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// attemptLog accumulates the shard calls of the timed backends.
type attemptLog struct {
	mu   sync.Mutex
	busy time.Duration
	n    int
}

// timedBackend wraps an HTTP backend to time its shard calls.
type timedBackend struct {
	distrib.HTTP
	t      *tracer
	parent int
	log    *attemptLog
}

func (b timedBackend) record(start time.Time) {
	end := time.Now()
	b.t.add("distrib.attempt", b.parent, start, end)
	b.log.mu.Lock()
	b.log.busy += end.Sub(start)
	b.log.n++
	b.log.mu.Unlock()
}

func (b timedBackend) RunShard(ctx context.Context, cfg expr.SweepConfig) (*expr.ShardResult, error) {
	defer b.record(time.Now())
	return b.HTTP.RunShard(ctx, cfg)
}

func (b timedBackend) RunShardStream(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	defer b.record(time.Now())
	return b.HTTP.RunShardStream(ctx, cfg, yield)
}

// traceSweep replays graphs of the sweep grid layer by layer (the sweep's
// per-graph seeds are internal to expr, so it draws them from the
// benchmark's own seed stream, the same number per cell), then runs the
// run's first sweep again through the coordinator over timed backends for
// the distrib numbers.
func traceSweep(e *env) (*outcome, error) {
	o := newOutcome()
	t := newTracer()
	sums := map[string]float64{}
	perCell := max(1, traceSweepGraph*e.seconds/gridCells)
	op := 0
	for cell := 0; cell < gridCells; cell++ {
		nodes, paths := gridNodes[cell/len(gridPaths)], gridPaths[cell%len(gridPaths)]
		for k := 0; k < perCell; k++ {
			root := t.begin("op", op, -1)
			i := t.begin("gen.generate", op, root)
			inst, err := gen.Generate(gen.RandomConfig(rng(e.seed, "trace-sweep", cell, k), nodes, paths))
			t.end(i)
			if err != nil {
				return nil, err
			}
			res, err := t.replay(e.ctx, op, root, inst.Graph, inst.Arch, core.Options{}, nil, nil, sums)
			if err != nil {
				return nil, err
			}
			sums["table.entries"] += float64(res.Stats.Entries)
			o.Attempted++
			if !res.Deterministic() {
				o.fail("nondeterministic_table")
			}
			t.end(root)
			op++
		}
	}
	replayWall := time.Since(t.t0)

	f, err := startFleet(e.ctx, e.bin, e.dir, "cpgserve-trace", sweepBackends, sweepWorkers)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	logf, err := os.Create(filepath.Join(e.dir, "coordinator.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	reg := obs.NewRegistry()
	co := coordinator(f, logf, distrib.NewMetrics(reg))
	sweep := t.begin("distrib.sweep", -1, -1)
	var calls attemptLog
	for k, b := range co.Backends {
		co.Backends[k] = timedBackend{HTTP: b.(distrib.HTTP), t: t, parent: sweep, log: &calls}
	}
	cfg := sweepConfig(e.seed, 0)
	start := time.Now()
	_, err = co.RunShards(e.ctx, cfg)
	sweepWall := time.Since(start)
	t.end(sweep)
	if err != nil {
		return nil, fmt.Errorf("traced sweep: %w", err)
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return nil, err
	}
	m, err := parseExposition(text.Bytes())
	if err != nil {
		return nil, err
	}
	abs := map[string]float64{
		"distrib.attempts":           m["cpg_distrib_attempts_total"],
		"distrib.retries":            m["cpg_distrib_retries_total"],
		"distrib.steals":             m["cpg_distrib_steals_total"],
		"distrib.attempt_ms":         ratio(float64(calls.busy.Milliseconds()), float64(calls.n)),
		"distrib.useful_graph_ratio": ratio(float64(cfg.ShardSize()), m["cpg_distrib_graphs_streamed_total"]),
		"distrib.backend_busy_ratio": calls.busy.Seconds() / (float64(len(f)) * sweepWall.Seconds()),
		"trace.ops_per_s":            float64(op) / replayWall.Seconds(),
	}
	for _, c := range []string{"service.memo_hit_ratio", "service.warm_start_ratio", "service.warm_reused_path_ratio", "httpserver.self_ms", "httpserver.transport_ms", "httpserver.shed"} {
		abs[c] = 0
	}
	ledger(o, t, op, sums, abs)
	o.Raw["traced_graphs"] = op
	o.Raw["replay_wall_s"] = replayWall.Seconds()
	o.Raw["traced_sweep_wall_s"] = sweepWall.Seconds()
	o.Raw["traced_sweep_seed"] = cfg.Seed
	o.Raw["coordinator_metrics"] = m
	return o, t.write(filepath.Join(e.dir, "spans.json"))
}
