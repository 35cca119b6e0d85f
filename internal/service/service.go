// Package service wraps the schedule-table generation core in a long-lived,
// concurrency-aware service object: the shape needed by a scheduling server
// that handles many independent requests.
//
// A Service adds three things on top of core.ScheduleContext:
//
//   - a global worker budget: every concurrent request — a problem or a
//     sweep shard — draws its goroutines from one token pool, so a burst of
//     requests cannot oversubscribe the machine no matter what each request
//     asks for (the budget overrides core.Options.Workers);
//   - a memo: an LRU of solved problems keyed by the problem content hash
//     (textio.ProblemHash), so repeated requests for the same problem —
//     retries, re-submissions, design-space loops — are served without
//     rescheduling; and
//   - context cancellation: a cancelled request aborts its path fan-out and
//     merge promptly and releases its worker tokens.
//
// The memo keeps the *core.Result that Schedule returns, and of it only what
// /v1/schedule serves: the graph and architecture, the table, the path list,
// the violations and the stats. The result's Subgraphs and per-path Schedules
// are dropped before it is cached, so they are nil on misses and hits alike:
// a caller re-enacting a path rebuilds its subgraph with cpg.Graph.PathFor
// and Subgraph, and one that needs the per-path schedules (core.Dispatch)
// schedules the problem with core.Schedule. The memo keeps no problem
// document either.
package service

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpg"
	"repro/internal/expr"
	"repro/internal/memo"
	"repro/internal/textio"
)

// DefaultCacheSize is the solved-problem memo capacity used when
// Config.CacheSize is zero.
const DefaultCacheSize = 256

// Config parameterises a Service.
type Config struct {
	// Workers is the global worker budget shared across every concurrent
	// request (0 = GOMAXPROCS; negative is rejected by New with
	// core.ErrNegativeWorkers). A single request is granted at most this
	// many scheduling goroutines, and the grants of all in-flight requests
	// never exceed it in total.
	Workers int
	// CacheSize is the capacity of the solved-problem memo
	// (0 = DefaultCacheSize, negative = disabled).
	CacheSize int
}

// Problem is one scheduling request: a mapped conditional process graph, the
// target architecture and the scheduling options. The service caches the
// graph and architecture with the result, so neither may change once the
// problem is submitted.
type Problem struct {
	Graph   *cpg.Graph
	Arch    *arch.Architecture
	Options core.Options
}

// FromDoc validates a v1 problem document and converts it into a Problem.
func FromDoc(d *textio.ProblemDoc) (*Problem, error) {
	g, a, opts, err := textio.DecodeProblem(d)
	if err != nil {
		return nil, err
	}
	return &Problem{Graph: g, Arch: a, Options: opts}, nil
}

// Solution is the outcome of one request. Its Result is the one the memo
// keeps, shared by every request for the problem: it is read-only, and its
// Subgraphs and Schedules are nil.
type Solution struct {
	*core.Result
	// ProblemHash is the content hash identifying the problem (the memo
	// key); identical hashes yield byte-identical schedule tables.
	ProblemHash string
	// CacheHit reports whether the solution came from the memo instead of
	// a fresh scheduling run.
	CacheHit bool
	// WarmStart is always false: the service schedules every memo miss
	// from scratch. The field stays for clients built against the flag.
	WarmStart bool
	// Workers is the number of worker tokens the request was granted
	// (zero on cache hits).
	Workers int
}

// Stats is a snapshot of the service counters.
type Stats struct {
	// Requests counts Schedule calls (batch items included).
	Requests int64
	// CacheHits and CacheMisses are the memo counters.
	CacheHits   int64
	CacheMisses int64
	// CacheLen is the current number of memoized solutions.
	CacheLen int
	// SweepRequests counts SweepShard calls.
	SweepRequests int64
	// Workers is the global worker budget.
	Workers int
}

// Service generates schedule tables on behalf of concurrent callers. Create
// one with New and share it; all methods are safe for concurrent use.
type Service struct {
	budget int
	tokens chan struct{}
	// cache is the memo, keyed by problem hash.
	cache     *memo.LRU[*core.Result]
	requests  atomic.Int64
	sweepReqs atomic.Int64
}

// New returns a Service with the given budget and memo capacity. A negative
// worker budget is rejected with core.ErrNegativeWorkers — the same
// invariant core.Schedule enforces per call.
func New(cfg Config) (*Service, error) {
	budget := cfg.Workers
	if budget < 0 {
		return nil, fmt.Errorf("%w; got service budget %d", core.ErrNegativeWorkers, budget)
	}
	if budget == 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	size := cfg.CacheSize
	switch {
	case size == 0:
		size = DefaultCacheSize
	case size < 0:
		size = 0
	}
	s := &Service{
		budget: budget,
		tokens: make(chan struct{}, budget),
		cache:  memo.NewLRU[*core.Result](size),
	}
	for i := 0; i < budget; i++ {
		s.tokens <- struct{}{}
	}
	return s, nil
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Requests:      s.requests.Load(),
		CacheHits:     s.cache.Hits(),
		CacheMisses:   s.cache.Misses(),
		CacheLen:      s.cache.Len(),
		SweepRequests: s.sweepReqs.Load(),
		Workers:       s.budget,
	}
}

// Schedule generates (or recalls) the schedule table for one problem. The
// request's core.Options.Workers is a wish, not a grant: the service clamps
// it to the global budget and to the tokens actually free at admission, so
// the budget is shared fairly across concurrent requests. Cancelling ctx
// aborts the run promptly (between back-steps of the merge) and returns
// ctx.Err().
//
// Identical problems (same content hash) are answered from the memo; two
// concurrent first requests for the same problem may both compute, and the
// later one wins the memo slot — results are deterministic, so both are
// correct and byte-identical. The memo key is the hash of the problem's
// canonical v1 document with the worker count cleared, since workers never
// change the produced table. Every result-shaping option — path selection,
// conflict policy, scheduling priority and strategy with its tabu bounds —
// is part of the document and therefore of the key, so solutions computed
// under one strategy are never served for another.
func (s *Service) Schedule(ctx context.Context, p *Problem) (*Solution, error) {
	if p == nil || p.Graph == nil || p.Arch == nil {
		return nil, errors.New("service: nil problem, graph or architecture")
	}
	if p.Options.Workers < 0 {
		return nil, fmt.Errorf("%w; got %d", core.ErrNegativeWorkers, p.Options.Workers)
	}
	s.requests.Add(1)
	doc := textio.EncodeProblem(p.Graph, p.Arch, p.Options)
	hash, err := textio.ProblemHash(doc)
	if err != nil {
		return nil, err
	}
	if res, ok := s.cache.Get(hash); ok {
		return &Solution{Result: res, ProblemHash: hash, CacheHit: true}, nil
	}
	want := p.Options.Workers
	if want <= 0 || want > s.budget {
		want = s.budget
	}
	// A problem with c conditions has at most 2^c alternative paths, and the
	// fan-outs inside core clamp to the path count — tokens beyond that
	// would sit idle while starving concurrent requests (batches would
	// serialize), so don't grab them in the first place.
	if lim := maxUsefulWorkers(p.Graph); want > lim {
		want = lim
	}
	granted, err := s.acquire(ctx, want)
	if err != nil {
		return nil, err
	}
	// held tracks the tokens this request currently owns; the phase hook
	// below adjusts it (on this goroutine) as the run's parallelism varies.
	held := granted
	defer func() { s.releaseTokens(held) }()
	opt := p.Options
	opt.Workers = granted
	phase := func(phase string, want int) int {
		switch phase {
		case core.PhaseMerge:
			// The merge is sequential: keep one token and hand the rest
			// back so concurrent requests are not starved for the whole
			// (often dominant) merge duration.
			if held > 1 {
				s.releaseTokens(held - 1)
				held = 1
			}
			return 1
		case core.PhaseValidate:
			// Reclaim what is free again for the validation fan-out.
			held += s.tryAcquireUpTo(granted - held)
			return held
		}
		return want
	}
	res, err := core.SchedulePhased(ctx, p.Graph, p.Arch, opt, phase)
	if err != nil {
		return nil, err
	}
	// Only core's own validation reads the subgraphs and the per-path
	// schedules, and they are most of a result's memory: drop them before
	// the result is shared.
	res.Subgraphs, res.Schedules = nil, nil
	s.cache.Add(hash, res)
	return &Solution{Result: res, ProblemHash: hash, Workers: granted}, nil
}

// ScheduleBatch schedules every problem concurrently under the shared worker
// budget and returns the solutions in input order. Problems that fail leave
// a nil slot; the joined error collects every failure (nil when all
// succeeded). Cancelling ctx aborts the whole batch.
func (s *Service) ScheduleBatch(ctx context.Context, problems []*Problem) ([]*Solution, error) {
	sols := make([]*Solution, len(problems))
	errs := make([]error, len(problems))
	var wg sync.WaitGroup
	for i, p := range problems {
		wg.Add(1)
		go func(i int, p *Problem) {
			defer wg.Done()
			sol, err := s.Schedule(ctx, p)
			if err != nil {
				errs[i] = fmt.Errorf("service: problem %d: %w", i, err)
				return
			}
			sols[i] = sol
		}(i, p)
	}
	wg.Wait()
	return sols, errors.Join(errs...)
}

// SweepSolution is the outcome of one SweepShard request.
type SweepSolution struct {
	// Shard holds the raw per-graph results of the executed shard.
	Shard *expr.ShardResult
	// Workers is the number of worker tokens the request was granted.
	Workers int
}

// SweepShard executes one shard of a Fig. 5/6 sweep under the service's
// global worker budget: the config's Workers field is a wish clamped to the
// budget, to the tokens free at admission and to the shard's graph count.
// It calls yield (when non-nil) once per completed graph, in completion
// order; a yield error aborts the run and is returned. Cancelling ctx aborts
// the shard run promptly and returns ctx.Err().
func (s *Service) SweepShard(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*SweepSolution, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w; got %d", core.ErrNegativeWorkers, cfg.Workers)
	}
	cfg = cfg.Normalize()
	if err := cfg.ValidateShard(); err != nil {
		return nil, err
	}
	s.sweepReqs.Add(1)
	want := cfg.Workers
	if want <= 0 || want > s.budget {
		want = s.budget
	}
	// Tokens beyond the shard's graph count would sit idle while starving
	// concurrent requests, so don't grab them in the first place (one token
	// minimum: every admitted request holds at least one).
	if total := cfg.ShardSize(); want > total {
		want = max(total, 1)
	}
	granted, err := s.acquire(ctx, want)
	if err != nil {
		return nil, err
	}
	defer s.releaseTokens(granted)
	cfg.Workers = granted
	sh, err := expr.RunSweepShardStream(ctx, cfg, yield)
	if err != nil {
		return nil, err
	}
	return &SweepSolution{Shard: sh, Workers: granted}, nil
}

// maxUsefulWorkers bounds the parallelism a problem can exploit: the path
// fan-outs clamp to the number of alternative paths, which is at most
// 2^conditions. The condition count is taken from the graph's condition
// bitmask population, and the shift is clamped well below the mask width
// (cond.MaxConds = 64), so a maximal graph yields a large finite cap instead
// of a wrapped-to-zero (or negative) one.
func maxUsefulWorkers(g *cpg.Graph) int {
	conds := bits.OnesCount64(g.CondMask())
	if conds >= 30 {
		return 1 << 30
	}
	return 1 << conds
}

// acquire admits a request to the worker pool: it blocks (honouring ctx) for
// the first token — every admitted request runs with at least one worker —
// then opportunistically grabs free tokens up to the request's wish. want <=
// 0 wishes for the full budget. The caller owns the granted tokens and must
// return them with releaseTokens.
func (s *Service) acquire(ctx context.Context, want int) (granted int, err error) {
	if want <= 0 || want > s.budget {
		want = s.budget
	}
	select {
	case <-s.tokens:
		granted = 1
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return granted + s.tryAcquireUpTo(want-granted), nil
}

// tryAcquireUpTo grabs up to n free tokens without blocking and returns how
// many it got.
func (s *Service) tryAcquireUpTo(n int) int {
	got := 0
	for got < n {
		select {
		case <-s.tokens:
			got++
			continue
		default:
		}
		break
	}
	return got
}

// releaseTokens returns n tokens to the pool.
func (s *Service) releaseTokens(n int) {
	for i := 0; i < n; i++ {
		s.tokens <- struct{}{}
	}
}
