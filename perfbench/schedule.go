package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/textio"
)

// Load shape shared by all workloads: one process, two connections, closed
// loop (a client sends its next request only after the previous reply), and
// worker budgets pinned instead of derived from the host.
const (
	clients         = 2
	scheduleWorkers = 2
	sweepBackends   = 2
	sweepWorkers    = 1
	// setupRepeats is how often a run sets up (inputs, fresh servers,
	// canaries); setup_s is the median, and the last fleet is timed.
	setupRepeats = 3
)

// A run's work is fixed by the seed and --seconds: rate × seconds ops, the
// rates being what the program sustains on a 2-vCPU Intel Xeon virtual
// machine, so a run measures about --seconds there. Fixed work makes
// attempted counts, fail_share and increase_pct exact for a seed.
const (
	coldRate = 100 // schedule-cold requests/s
	editRate = 130 // schedule-edit requests/s
	// coldSample is how many responses computed cold are compared with an
	// in-process reference per run (every memo-hit and warm-started response
	// always is).
	coldSample = 24
)

// opResult is one request as the client saw it.
type opResult struct {
	status int
	body   []byte
	err    error
	lat    time.Duration
}

func runScheduleCold(e *env) (*outcome, error) { return runSchedule(e, "cold") }
func runScheduleEdit(e *env) (*outcome, error) { return runSchedule(e, "edit") }

// scheduleUnitCount sizes a run's fixed work in units.
func scheduleUnitCount(kind string, seconds int) int {
	// Whole rounds over the grid cells keep the problem-size mix fixed.
	if kind == "cold" {
		return roundUp(coldRate*seconds, gridCells)
	}
	return roundUp((editRate*seconds+sessionOps-1)/sessionOps, gridCells)
}

// scheduleSetup is one set-up of a schedule workload: generate the inputs,
// start a fresh server and pass the Figure-1 canary.
func scheduleSetup(e *env, kind string, k int, o *outcome) ([][]request, *server, time.Duration, error) {
	start := time.Now()
	units, err := scheduleUnits(e.seed, kind, scheduleUnitCount(kind, e.seconds))
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := startServer(e.bin, filepath.Join(e.dir, fmt.Sprintf("cpgserve-setup%d.log", k)), scheduleWorkers)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := figure1Canary(e.ctx, e.root, s.URL); err != nil {
		o.mismatch("%v", err)
	}
	return units, s, time.Since(start), nil
}

func runSchedule(e *env, kind string) (*outcome, error) {
	o := newOutcome()
	var units [][]request
	var srv *server
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		srv.stop()
		u, s, d, err := scheduleSetup(e, kind, k, o)
		if err != nil {
			return nil, err
		}
		units, srv, setups = u, s, append(setups, d.Seconds())
	}
	defer srv.stop()

	steal := startSteal()
	results, wall := driveSchedule(e, srv.URL, units)
	o.Raw["host_steal_share"] = steal.share()
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	v := verifySchedule(e, units, results, o)
	wantHits, wantWarm := v.revisits, v.warmEngaged
	gotHits := int(after["cpg_service_memo_hits_total"])
	gotWarm := int(after["cpg_service_warm_starts_total"])
	crossCheck := map[string]int{
		"revisits": wantHits, "responses_cache_hit": v.cacheHits, "metrics_memo_hits": gotHits,
		"warm_eligible_edits": wantWarm, "metrics_warm_starts": gotWarm,
		"metrics_shed": int(sumSeries(after, "cpg_http_shed_total")),
	}
	if wantHits != gotHits || v.cacheHits != gotHits || wantWarm != gotWarm {
		fmt.Printf("  note: cache counters differ from the seeded plan: %v\n", crossCheck)
	}

	succeeded := o.Attempted - o.Failed
	o.set("ops_per_s", "ops/s", float64(succeeded)/wall.Seconds())
	o.set("latency_p50_ms", "ms", quantile(v.latMs, 0.50))
	o.set("latency_p99_ms", "ms", quantile(v.latMs, 0.99))
	o.set("success_share", "ratio", float64(succeeded)/float64(o.Attempted))
	o.Extra["increase_pct"] = metric{Unit: "%", Value: mean(v.increase)}
	o.set("peak_rss_mb", "MB", rss)
	o.set("setup_s", "s", median(setups))
	o.Raw["setup_s"] = setups
	o.Raw["wall_s"] = wall.Seconds()
	o.Raw["latency_ms"] = v.latMs
	o.Raw["p99_tail_samples"] = tailSamples(len(v.latMs), 0.99)
	o.Raw["cache_cross_check"] = crossCheck
	o.Raw["ops_by_kind"] = v.byKind
	o.Raw["references_compared"] = v.compared
	o.Raw["server_workers"] = scheduleWorkers
	return o, nil
}

// driveSchedule is the timed window: the clients take units from a shared
// queue and send each unit's requests in order, reading every reply to EOF
// and nothing more.
func driveSchedule(e *env, url string, units [][]request) ([][]opResult, time.Duration) {
	results := make([][]opResult, len(units))
	for u := range units {
		results[u] = make([]opResult, len(units[u]))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for {
				u := int(next.Add(1) - 1)
				if u >= len(units) {
					return
				}
				for i, q := range units[u] {
					t := time.Now()
					status, body, err := postSchedule(e.ctx, hc, url, q.Body)
					results[u][i] = opResult{status: status, body: body, err: err, lat: time.Since(t)}
				}
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// verified is what the post-window checks of a schedule run found.
type verified struct {
	latMs, increase     []float64
	revisits, cacheHits int
	warmEngaged         int
	compared            int
	byKind              map[string]*kindStats
}

// kindStats sums up one kind of op of a schedule run, so that a claim about
// a workload can state the mix of ops it depends on. The kinds are cold (a
// problem new to the server), edit_warm and edit_full (τ-only edits on
// which warm start is predicted to engage, or not) and revisit (an exact
// re-submission, a planned memo hit).
type kindStats struct {
	Ops       int     `json:"ops"`
	Share     float64 `json:"share"`
	Failed    int     `json:"failed"`
	CacheHits int     `json:"cache_hits"`
	P50Ms     float64 `json:"latency_p50_ms"`
	P99Ms     float64 `json:"latency_p99_ms"`
	MeanMs    float64 `json:"latency_mean_ms"`
	latMs     []float64
}

// verifySchedule checks every op after the timed window. Per-op failures
// land in the outcome's failure reasons; disagreements with the in-process
// reference are output mismatches. Compared with a cold in-process run of
// its problem are every revisit, every edit (the service may warm-start
// any of them, and a response does not say whether it did), every response
// that reports a memo hit whatever the plan said it would be (a stale or
// colliding memo entry shows exactly there) and a seeded sample of the
// cold ops.
func verifySchedule(e *env, units [][]request, results [][]opResult, o *outcome) verified {
	type op struct {
		q        *request
		res      *opResult
		kind     string
		label    string
		keep     bool // compared with a reference whatever the response says
		reason   string
		served   bool // a solution came back
		hit      bool // the solution says it came from the memo
		inc      float64
		compared bool
		diff     string // the first field differing from the reference
		refErr   error
	}
	var ops []op
	var edits []int
	for u := range units {
		for i := range units[u] {
			q := &units[u][i]
			if q.Kind == "edit" {
				edits = append(edits, len(ops))
			}
			ops = append(ops, op{q: q, res: &results[u][i], kind: q.Kind, keep: q.Kind != "cold"})
		}
	}

	v := verified{byKind: map[string]*kindStats{}}
	engaged := make([]bool, len(edits))
	errs := make([]error, len(edits))
	parallel(len(edits), func(k int) { engaged[k], errs[k] = warmEngages(ops[edits[k]].q.Body, ops[edits[k]].q.Dirty) })
	for k, i := range edits {
		ops[i].kind = "edit_full"
		if errs[k] != nil {
			o.mismatch("op %d: %v", i, errs[k])
		}
		if engaged[k] {
			v.warmEngaged++
			ops[i].kind = "edit_warm"
		}
	}
	var cold []int
	for i := range ops {
		ops[i].label = fmt.Sprintf("op %d (%s)", i, ops[i].kind)
		if !ops[i].keep {
			cold = append(cold, i)
		}
	}
	for _, k := range rng(e.seed, "sample").Perm(len(cold))[:min(coldSample, len(cold))] {
		ops[cold[k]].keep = true
	}

	parallel(len(ops), func(i int) {
		x := &ops[i]
		doc, reason := opOutcome(x.res)
		x.reason = reason
		if doc != nil {
			x.served, x.hit, x.inc = true, doc.Cache != nil && doc.Cache.Hit, increasePct(doc)
		}
		if !x.served || !(x.keep || x.hit) {
			x.res.body = nil
		}
	})

	// One reference per distinct problem body, compared with every served
	// body kept for it; a body is parsed again here rather than held
	// parsed, which would take several times its size.
	index := map[[32]byte]int{}
	var groups [][]int
	for i := range ops {
		if ops[i].res.body == nil {
			continue
		}
		k := sha256.Sum256(ops[i].q.Body)
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	parallel(len(groups), func(g int) {
		ref, err := referenceSolution(ops[groups[g][0]].q.Body)
		for _, i := range groups[g] {
			x := &ops[i]
			x.compared, x.refErr = true, err
			if err == nil {
				doc, perr := parseSolution(x.res.body)
				if perr != nil {
					x.refErr = perr
				} else {
					x.diff = diffSolutions(doc, ref)
				}
			}
			x.res.body = nil
		}
	})

	for i := range ops {
		x := &ops[i]
		ks := v.byKind[x.kind]
		if ks == nil {
			ks = &kindStats{}
			v.byKind[x.kind] = ks
		}
		o.Attempted++
		ks.Ops++
		if x.served {
			// Latency counts every round trip that returned a solution,
			// also one that fails a content check: the server did the work.
			lat := float64(x.res.lat) / 1e6
			v.latMs = append(v.latMs, lat)
			ks.latMs = append(ks.latMs, lat)
		}
		if x.hit {
			v.cacheHits++
			ks.CacheHits++
		}
		if x.reason != "" {
			o.fail(x.reason)
			ks.Failed++
		} else {
			v.increase = append(v.increase, x.inc)
		}
		switch {
		case x.refErr != nil:
			o.mismatch("%s: reference run failed: %v", x.label, x.refErr)
		case x.diff != "":
			o.mismatch("%s: served solution differs from the in-process cold reference in %s", x.label, x.diff)
		}
		if x.compared {
			v.compared++
		}
	}
	for _, ks := range v.byKind {
		ks.Share = float64(ks.Ops) / float64(len(ops))
		ks.P50Ms, ks.P99Ms, ks.MeanMs = quantile(ks.latMs, 0.50), quantile(ks.latMs, 0.99), mean(ks.latMs)
	}
	if r := v.byKind["revisit"]; r != nil {
		v.revisits = r.Ops
	}
	return v
}

// opOutcome parses and checks one reply: it returns the parsed solution
// (nil when there is none) and the failure reason ("" for success).
func opOutcome(res *opResult) (*textio.SolutionDoc, string) {
	switch {
	case res.err != nil:
		return nil, "transport_error"
	case res.status != http.StatusOK:
		return nil, fmt.Sprintf("http_%d", res.status)
	}
	doc, err := parseSolution(res.body)
	if err != nil {
		return nil, "unparsable_solution"
	}
	return doc, checkSolution(doc)
}
