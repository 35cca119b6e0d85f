// Package service wraps the schedule-table generation core in a long-lived,
// concurrency-aware service object: the shape needed by a scheduling server
// that handles many independent requests.
//
// A Service adds three things on top of core's recycled workspaces:
//
//   - a global worker budget: one pool of tokens, one per goroutine, that
//     every concurrent request draws from, so a burst of requests cannot
//     oversubscribe the machine. A memo miss runs on one goroutine under one
//     token, whatever its core.Options.Workers asks for: one problem's table
//     is a millisecond-scale job, so the budget is spread over concurrent
//     requests, not over the paths of one. A sweep shard takes up to its
//     workers' worth of free tokens and schedules one graph per token;
//   - a memo: an LRU of solved problems keyed by the problem content hash
//     (textio.ProblemHash), so repeated requests for the same problem —
//     retries, re-submissions, design-space loops — are served without
//     rescheduling; and
//   - context cancellation: a cancelled request aborts its path scheduling
//     and merge promptly and releases its worker tokens.
//
// Every memo miss, and every graph of a sweep shard, schedules in a
// core.Workspace lent by core.Lend, which recycles the subgraphs, schedules,
// merge buffers and table of one problem for the next. Misses and shard
// graphs hold a worker token while they have a workspace, so no more
// workspaces are in use than tokens.
//
// The memo keeps the *core.Result that Schedule returns: the workspace's
// result detached (core.Result.Detach), which shares no memory with the
// workspace and holds only what /v1/schedule serves: the graph and
// architecture, a compact copy of the table, the path list, the violations
// and the stats. Its Subgraphs and per-path Schedules are nil on misses and
// hits alike: a caller re-enacting a path rebuilds its subgraph with
// cpg.Graph.PathFor and Subgraph, and one that needs the per-path schedules
// (core.Dispatch) schedules the problem with core.Schedule. The memo keeps no
// problem document either.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	// core.ErrNegativeWorkers). A memo miss holds one token and a sweep
	// shard at most its workers' worth; the tokens of all in-flight
	// requests never exceed the budget in total.
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
}

// Stats is a snapshot of the service counters.
type Stats struct {
	// Requests counts Schedule calls.
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

// Schedule generates (or recalls) the schedule table for one problem. A memo
// miss waits for one worker token and runs on one goroutine, whatever the
// problem's core.Options.Workers asks for (it must not be negative), so the
// budget goes to concurrent requests. Cancelling ctx aborts the run promptly
// (between back-steps of the merge) and returns ctx.Err().
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
	if _, err := s.acquire(ctx, 1); err != nil {
		return nil, err
	}
	defer s.releaseTokens(1)
	opt := p.Options
	opt.Workers = 1
	var res *core.Result
	core.Lend(func(ws *core.Workspace) {
		res, err = ws.Schedule(ctx, p.Graph, p.Arch, opt)
		if err == nil {
			// The next borrower overwrites the workspace's result: keep a
			// copy that shares nothing with it, and without the subgraphs
			// and the per-path schedules, which only core's own validation
			// reads.
			res = res.Detach()
		}
	})
	if err != nil {
		return nil, err
	}
	s.cache.Add(hash, res)
	return &Solution{Result: res, ProblemHash: hash}, nil
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
// budget, to the tokens free at admission and to the shard's graph count,
// and each token schedules one graph at a time on one goroutine, whatever
// cfg.Options.Workers asks for. It calls yield (when non-nil) once per
// completed graph, in completion order; a yield error aborts the run and is
// returned. Cancelling ctx aborts the shard run promptly and returns
// ctx.Err().
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

// acquire admits a request to the worker pool: it blocks (honouring ctx) for
// one token — every admitted request runs with at least one worker — then
// takes free tokens without blocking until it holds want. The caller owns the
// granted tokens and must return them with releaseTokens.
func (s *Service) acquire(ctx context.Context, want int) (granted int, err error) {
	select {
	case <-s.tokens:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	for granted = 1; granted < want; granted++ {
		select {
		case <-s.tokens:
		default:
			return granted, nil
		}
	}
	return granted, nil
}

// releaseTokens returns n tokens to the pool.
func (s *Service) releaseTokens(n int) {
	for i := 0; i < n; i++ {
		s.tokens <- struct{}{}
	}
}
