// Package distribtest is a deterministic fault-injection harness for the
// distributed sweep: scripted in-process backends whose per-attempt fate —
// run, fail, hang on a gate, or die mid-shard — is decided by the test, so
// fault scenarios (backends dying, wedging, shedding, coordinators
// restarting) replay exactly, with no wall-clock coupling. The
// computation itself is real (an in-process backend, with or without a
// shared service), so golden tests over these backends pin the merged CSV
// byte-for-byte under every scenario.
package distribtest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/distrib"
	"repro/internal/expr"
	"repro/internal/service"
)

// Gate is a one-shot synchronization point: attempts scripted to wait on a
// gate block until the test releases it (or their context is cancelled).
// Release is idempotent and safe to call from test cleanup.
type Gate struct {
	once sync.Once
	ch   chan struct{}
}

// NewGate returns an unreleased gate.
func NewGate() *Gate { return &Gate{ch: make(chan struct{})} }

// Release opens the gate, unblocking every current and future Wait.
func (g *Gate) Release() { g.once.Do(func() { close(g.ch) }) }

// Wait blocks until the gate is released or ctx is cancelled.
func (g *Gate) Wait(ctx context.Context) error {
	select {
	case <-g.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kind is the scripted fate of one attempt.
type Kind int

const (
	// Run computes the shard, streaming every graph, and returns it (the
	// healthy path).
	Run Kind = iota
	// Fail returns an error immediately, without computing — a dead or
	// refusing backend.
	Fail
	// Die tears the stream — a backend killed mid-shard: Action.AfterGraphs
	// graphs are delivered, then the attempt errors without a result.
	Die
)

// Action is the scripted fate of one attempt. The zero value is a plain
// healthy Run.
type Action struct {
	Kind Kind
	// Gate, when non-nil, is waited on before the action resolves: a gated
	// Run models a slow (or wedged, if never released) backend, a gated
	// Fail a slow death.
	Gate *Gate
	// Err overrides the error returned by Fail and Die.
	Err error
	// AfterGraphs is how many graph frames a Die delivers before the
	// attempt dies (0 = before the first frame). Ignored for other kinds.
	AfterGraphs int
}

// Backend is a scripted in-process sweep backend. Decide picks the fate of
// every attempt; counters record what actually happened, so tests can assert
// exactly which backend ran (or was denied) which shard. All methods are
// safe for concurrent use.
type Backend struct {
	// BackendName is the dispatch name (required, must be unique in a
	// fleet).
	BackendName string
	// Service, when non-nil, runs shards under a shared service (worker
	// budget); otherwise shards run via expr directly.
	Service *service.Service
	// Decide picks the action of attempt number attempt (0-based, counted
	// per shard on this backend). Nil means every attempt Runs.
	Decide func(shard, attempt int) Action

	mu          sync.Mutex
	attempts    map[int]int
	completions map[int]int
	graphs      map[int]int
}

// Name implements distrib.Backend.
func (b *Backend) Name() string { return b.BackendName }

// Attempts reports how many times the coordinator asked this backend to run
// the shard.
func (b *Backend) Attempts(shard int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempts[shard]
}

// TotalAttempts reports the attempts across all shards.
func (b *Backend) TotalAttempts() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, v := range b.attempts {
		n += v
	}
	return n
}

// Completions reports how many attempts of the shard ran to successful
// delivery on this backend.
func (b *Backend) Completions(shard int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completions[shard]
}

// GraphsStreamed reports how many graph frames this backend delivered for
// the shard.
func (b *Backend) GraphsStreamed(shard int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.graphs[shard]
}

// TotalCompletions reports the delivered shard runs across all shards.
func (b *Backend) TotalCompletions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, v := range b.completions {
		n += v
	}
	return n
}

// begin records one attempt and resolves its scripted action, waiting on the
// action's gate.
func (b *Backend) begin(ctx context.Context, cfg expr.SweepConfig) (Action, int, error) {
	shard := cfg.ShardIndex
	b.mu.Lock()
	if b.attempts == nil {
		b.attempts = make(map[int]int)
		b.completions = make(map[int]int)
		b.graphs = make(map[int]int)
	}
	attempt := b.attempts[shard]
	b.attempts[shard]++
	b.mu.Unlock()

	var act Action
	if b.Decide != nil {
		act = b.Decide(shard, attempt)
	}
	if act.Gate != nil {
		if err := act.Gate.Wait(ctx); err != nil {
			return act, attempt, err
		}
	}
	return act, attempt, nil
}

// scriptedErr resolves the error a Fail or Die returns.
func (b *Backend) scriptedErr(act Action, shard, attempt int) error {
	if act.Err != nil {
		return act.Err
	}
	return fmt.Errorf("distribtest: scripted failure of %s (shard %d, attempt %d)", b.BackendName, shard, attempt)
}

// errStreamTorn aborts the shard computation when a scripted Die has
// delivered its quota of frames; RunShardStream replaces it with the
// scripted error.
var errStreamTorn = errors.New("distribtest: stream torn by scripted death")

// RunShardStream implements distrib.Backend: it resolves the scripted action
// of this attempt and, for Run and Die, really computes the shard, yielding
// graphs as they complete — a Die stops the stream after
// Action.AfterGraphs frames.
func (b *Backend) RunShardStream(ctx context.Context, cfg expr.SweepConfig, yield func(expr.GraphResult) error) (*expr.ShardResult, error) {
	act, attempt, err := b.begin(ctx, cfg)
	if err != nil {
		return nil, err
	}
	shard := cfg.ShardIndex
	if act.Kind == Fail {
		return nil, b.scriptedErr(act, shard, attempt)
	}
	delivered := 0
	sh, err := distrib.InProcess{Service: b.Service}.RunShardStream(ctx, cfg, func(g expr.GraphResult) error {
		if act.Kind == Die && delivered >= act.AfterGraphs {
			return errStreamTorn
		}
		delivered++
		b.countGraph(shard)
		if yield != nil {
			return yield(g)
		}
		return nil
	})
	if act.Kind == Die {
		// Whether the tear fired mid-stream or the shard was small enough to
		// finish first, the attempt still dies before delivering a result.
		return nil, b.scriptedErr(act, shard, attempt)
	}
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.completions[shard]++
	b.mu.Unlock()
	return sh, nil
}

func (b *Backend) countGraph(shard int) {
	b.mu.Lock()
	b.graphs[shard]++
	b.mu.Unlock()
}
