package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/obs"
)

// sweepSeconds is what one full paper sweep took over the two one-worker
// backends on a 2-vCPU Intel Xeon virtual machine; a run times
// round(--seconds / it) sweeps (at least one).
const sweepSeconds = 5.2

// coordinator fans sweeps over the fleet the way cpgexper does by default:
// one shard per backend, streamed transport, stealing on. Its log lines go
// to logf; metrics may be nil.
func coordinator(f fleet, logf *os.File, m *distrib.Metrics) *distrib.Coordinator {
	var backends []distrib.Backend
	for _, s := range f {
		backends = append(backends, distrib.HTTP{BaseURL: s.URL})
	}
	return &distrib.Coordinator{
		Shards:   len(backends),
		Backends: backends,
		Metrics:  m,
		Log:      func(format string, args ...any) { fmt.Fprintf(logf, format+"\n", args...) },
	}
}

// sweepSetup is one set-up of the sweep workload: fresh backends, the
// Figure-1 canary on each, and the golden sweep through the coordinator.
func sweepSetup(e *env, k int, logf *os.File, o *outcome) (fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(e.ctx, e.bin, e.dir, fmt.Sprintf("cpgserve-setup%d", k), sweepBackends, sweepWorkers)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range f {
		if err := figure1Canary(e.ctx, e.root, s.URL); err != nil {
			o.mismatch("%s: %v", s.URL, err)
		}
	}
	if err := goldenSweepCanary(e.ctx, e.root, coordinator(f, logf, nil)); err != nil {
		o.mismatch("%v", err)
	}
	return f, time.Since(start), nil
}

// timedSweep is one sweep of the timed window.
type timedSweep struct {
	cfg    expr.SweepConfig
	shards []*expr.ShardResult
	err    error
	wall   time.Duration
}

func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	logf, err := os.Create(filepath.Join(e.dir, "coordinator.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	var f fleet
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		f.stop()
		nf, d, err := sweepSetup(e, k, logf, o)
		if err != nil {
			return nil, err
		}
		f, setups = nf, append(setups, d.Seconds())
	}
	defer f.stop()

	reg := obs.NewRegistry()
	co := coordinator(f, logf, distrib.NewMetrics(reg))
	n := max(1, int(math.Round(float64(e.seconds)/sweepSeconds)))
	sweeps := make([]timedSweep, n)
	steal := startSteal()
	for k := range sweeps {
		cfg := sweepConfig(e.seed, k)
		t := time.Now()
		shards, err := co.RunShards(e.ctx, cfg)
		sweeps[k] = timedSweep{cfg: cfg, shards: shards, err: err, wall: time.Since(t)}
	}
	o.Raw["host_steal_share"] = steal.share()
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var memoHits float64
	for _, s := range f {
		m, err := s.scrape()
		if err != nil {
			return nil, err
		}
		memoHits += m["cpg_service_sweep_memo_hits_total"]
	}
	f.stop()
	if memoHits != 0 {
		fmt.Printf("  note: the backends answered %v shards from their sweep memo; timed sweeps must be fresh\n", memoHits)
	}

	var wall time.Duration
	var latMs, increase []float64
	for k, sw := range sweeps {
		wall += sw.wall
		if sw.err != nil {
			// A failed sweep is a program fault: every graph of it failed.
			o.Attempted += sw.cfg.ShardSize()
			for i := 0; i < sw.cfg.ShardSize(); i++ {
				o.fail("sweep_error")
			}
			fmt.Printf("  note: timed sweep %d failed: %v\n", k, sw.err)
			continue
		}
		lat, inc := sweepOps(o, sw.shards)
		latMs, increase = append(latMs, lat...), append(increase, inc...)
		if err := checkSweep(sw.cfg, sw.shards); err != nil {
			o.mismatch("timed sweep %d (seed %d): %v", k, sw.cfg.Seed, err)
		}
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		return nil, err
	}
	metrics, err := parseExposition(text.Bytes())
	if err != nil {
		return nil, err
	}

	succeeded := o.Attempted - o.Failed
	o.set("ops_per_s", "ops/s", float64(succeeded)/wall.Seconds())
	o.set("latency_p50_ms", "ms", quantile(latMs, 0.50))
	o.set("latency_p99_ms", "ms", quantile(latMs, 0.99))
	o.set("success_share", "ratio", float64(succeeded)/float64(o.Attempted))
	o.Extra["increase_pct"] = metric{Unit: "%", Value: mean(increase)}
	o.set("peak_rss_mb", "MB", rss)
	o.set("setup_s", "s", median(setups))
	walls := make([]float64, len(sweeps))
	seeds := make([]int64, len(sweeps))
	for k, sw := range sweeps {
		walls[k], seeds[k] = sw.wall.Seconds(), sw.cfg.Seed
	}
	o.Raw["setup_s"] = setups
	o.Raw["sweep_wall_s"] = walls
	o.Raw["sweep_seeds"] = seeds
	o.Raw["graph_ms"] = latMs
	o.Raw["p99_tail_samples"] = tailSamples(len(latMs), 0.99)
	o.Raw["backend_sweep_memo_hits"] = memoHits
	o.Raw["coordinator_metrics"] = metrics
	o.Raw["backend_workers"] = sweepWorkers
	return o, nil
}

// sweepOps accounts the graphs of one sweep as ops: a graph whose table the
// program flags as not deterministic is a failed op. It returns every
// graph's backend time (path scheduling plus merge) and the Fig. 5 increase
// of the successful ones.
func sweepOps(o *outcome, shards []*expr.ShardResult) (latMs, increase []float64) {
	for _, sh := range shards {
		for _, g := range sh.Results {
			o.Attempted++
			latMs = append(latMs, (g.PathSchedNs+g.MergeNs)/1e6)
			if g.Violation {
				o.fail("nondeterministic_table")
				continue
			}
			increase = append(increase, g.IncreasePct)
		}
	}
	return latMs, increase
}

// checkSweep compares a coordinated sweep with a single-process
// expr.RunSweep of the same config, wall-clock fields cleared.
func checkSweep(cfg expr.SweepConfig, shards []*expr.ShardResult) error {
	cells, err := expr.MergeCells(cfg, shards)
	if err != nil {
		return err
	}
	got, err := sweepCSV(cells)
	if err != nil {
		return err
	}
	ref := cfg
	ref.Workers = clients
	refCells, err := expr.RunSweep(ref)
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	want, err := sweepCSV(refCells)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cells differ from the single-process reference:\n%s\nwant\n%s", got, want)
	}
	return nil
}
