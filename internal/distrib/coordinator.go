package distrib

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/textio"
)

// Defaults for the coordinator's retry policy.
const (
	// DefaultMaxAttempts bounds the failed attempts of one shard.
	DefaultMaxAttempts = 4
	// DefaultRetryBaseDelay is the first retry's backoff; each further
	// retry doubles it (plus deterministic jitter) up to
	// DefaultRetryMaxDelay.
	DefaultRetryBaseDelay = 50 * time.Millisecond
	DefaultRetryMaxDelay  = 2 * time.Second
)

// evictAfter is the number of consecutive failed attempts after which a
// backend gets no further shards for the rest of the run. Sheds do not count.
const evictAfter = 3

// Coordinator fans the shards of a sweep over a static fleet of backends and
// merges the partial results. Each backend runs at most one shard at a time
// and each shard has at most one attempt in flight. A failed attempt costs
// its whole shard: the shard is retried from the start, after a bounded
// exponential backoff, on the first idle backend, and a backend whose
// attempts fail evictAfter times in a row gets no further shards. With a
// Journal attached, every completed shard is written to disk and reused by
// the next run of the same sweep.
type Coordinator struct {
	// Shards is the number of shards to split the sweep into (<= 1 means a
	// single shard covering the whole sweep).
	Shards int
	// Backends is the fleet. Every backend needs its own name: two entries
	// answering to one name (the same URL twice) are a configuration error.
	// Empty means one in-process backend without a service.
	Backends []Backend
	// Log, when non-nil, receives one line per failed attempt, retry and
	// eviction, and the progress lines too unless Progress is set.
	Log func(format string, args ...any)
	// Progress, when non-nil, receives the progress lines in place of Log:
	// one per shard completion, and one for the shards reused from the
	// journal.
	Progress func(format string, args ...any)
	// ShardTimeout bounds one shard attempt on one backend, so a hung
	// backend fails over instead of stalling the sweep (0 =
	// DefaultShardTimeout, negative = unbounded).
	ShardTimeout time.Duration
	// MaxAttempts bounds the failed attempts of one shard before the sweep
	// fails (0 = DefaultMaxAttempts).
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the exponential backoff
	// between retries of one shard (0 = the defaults above).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Journal, when non-nil, writes every completed shard to disk and seeds
	// the run with the shards an earlier run of the same sweep completed.
	Journal *Journal
	// Metrics, when non-nil, receives the coordinator's counters (attempts,
	// retries, sheds, evictions, ...). Nil records nothing.
	Metrics *Metrics
}

// logf emits a coordinator fault line, if logging is attached.
func (c *Coordinator) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// progressf emits a coordinator progress line to Progress, or else to Log.
func (c *Coordinator) progressf(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	} else {
		c.logf(format, args...)
	}
}

// fleet returns the run's record of every backend, rejecting nil backends,
// empty names and names listed twice.
func (c *Coordinator) fleet() ([]member, error) {
	backends := c.Backends
	if len(backends) == 0 {
		backends = []Backend{InProcess{}}
	}
	fleet := make([]member, 0, len(backends))
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if b == nil {
			return nil, errors.New("distrib: nil backend")
		}
		name := b.Name()
		switch {
		case name == "":
			return nil, errors.New("distrib: backend name must not be empty")
		case seen[name]:
			return nil, fmt.Errorf("distrib: backend %q listed twice", name)
		}
		seen[name] = true
		fleet = append(fleet, member{backend: b, name: name})
	}
	return fleet, nil
}

// Run executes the whole sweep — every shard, fanned out over the fleet —
// and returns the merged cells, identical byte for byte (timing aside) to
// expr.RunSweep of the same config. Cancelling ctx aborts all in-flight
// shard requests promptly and returns ctx.Err().
func (c *Coordinator) Run(ctx context.Context, cfg expr.SweepConfig) ([]expr.Cell, error) {
	shards, err := c.RunShards(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return expr.MergeCells(cfg, shards)
}

// RunShards executes every shard of the sweep and returns the partial
// results in shard order, without merging (callers that persist or forward
// partial results use this; Run is the merging convenience).
func (c *Coordinator) RunShards(ctx context.Context, cfg expr.SweepConfig) ([]*expr.ShardResult, error) {
	cfg = cfg.Normalize()
	count := max(c.Shards, 1)
	fleet, err := c.fleet()
	if err != nil {
		return nil, err
	}
	hash, err := textio.SweepHash(textio.EncodeSweepRequest(cfg))
	if err != nil {
		return nil, err
	}
	timeout := c.ShardTimeout
	if timeout == 0 {
		timeout = DefaultShardTimeout
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	base := c.RetryBaseDelay
	if base <= 0 {
		base = DefaultRetryBaseDelay
	}
	maxDelay := c.RetryMaxDelay
	if maxDelay < base {
		maxDelay = max(DefaultRetryMaxDelay, base)
	}
	r := &sweepRun{
		c:           c,
		cfg:         cfg,
		count:       count,
		hash:        hash,
		timeout:     timeout,
		maxAttempts: maxAttempts,
		base:        base,
		maxDelay:    maxDelay,
		fleet:       fleet,
		live:        len(fleet),
		results:     make([]*expr.ShardResult, count),
		state:       make([]shardState, count),
		resCh:       make(chan attemptOutcome, count),
		wakeCh:      make(chan int, count),
		quit:        make(chan struct{}),
	}
	return r.run(ctx)
}

// member is the run's record of one backend of the fleet.
type member struct {
	backend  Backend
	name     string
	busy     bool // running an attempt
	failures int  // consecutive failed attempts, sheds excluded
	evicted  bool
}

// attemptOutcome is one finished shard attempt, reported to the run loop.
type attemptOutcome struct {
	shard  int
	member int
	sh     *expr.ShardResult
	err    error
}

// shardState is the run loop's bookkeeping for one shard.
type shardState struct {
	// attempts counts the shard's failed attempts; MaxAttempts bounds it.
	attempts int
	// failures collects every attempt error of the shard, for the joined
	// report when the shard (or the sweep) fails.
	failures []error
}

// sweepRun is the state of one RunShards execution: a single event loop owns
// all bookkeeping, attempt goroutines only run backends and report outcomes.
type sweepRun struct {
	c           *Coordinator
	cfg         expr.SweepConfig
	count       int
	hash        string
	timeout     time.Duration
	maxAttempts int
	base        time.Duration
	maxDelay    time.Duration

	runCtx context.Context

	fleet   []member
	live    int // members not evicted
	results []*expr.ShardResult
	done    int
	state   []shardState
	pending []int // shards ready for dispatch, FIFO

	// resCh and wakeCh are buffered to the shard count: a shard has at most
	// one attempt in flight or one backoff timer pending.
	resCh  chan attemptOutcome
	wakeCh chan int      // shards whose retry backoff has elapsed
	quit   chan struct{} // closed when the run returns; unblocks stray sends
}

func (r *sweepRun) logf(format string, args ...any)      { r.c.logf(format, args...) }
func (r *sweepRun) progressf(format string, args ...any) { r.c.progressf(format, args...) }

// run dispatches until every shard is done. It cannot wait forever: while a
// backend is live, every pending shard is either running, cooling down
// before a retry, or dispatched at once to an idle backend, and the run
// fails as soon as the last backend is evicted.
func (r *sweepRun) run(ctx context.Context) ([]*expr.ShardResult, error) {
	defer close(r.quit)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.runCtx = runCtx

	if err := r.preload(); err != nil {
		return nil, err
	}
	for i := 0; i < r.count; i++ {
		if r.results[i] == nil {
			r.pending = append(r.pending, i)
		}
	}
	for r.done < r.count {
		r.dispatch()
		select {
		case out := <-r.resCh:
			if err := r.handle(ctx, out); err != nil {
				return nil, err
			}
		case shard := <-r.wakeCh:
			r.pending = append(r.pending, shard)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return r.results, nil
}

// preload seeds the run with the shards the journal holds complete; they are
// not dispatched at all.
func (r *sweepRun) preload() error {
	if r.c.Journal == nil {
		return nil
	}
	done, err := r.c.Journal.Load(r.hash, r.cfg, r.count)
	if err != nil {
		return err
	}
	r.results = done
	for _, sh := range done {
		if sh != nil {
			r.done++
		}
	}
	if r.done > 0 {
		r.c.Metrics.journalReuse(r.done)
		r.progressf("journal: reusing %d/%d completed shards, re-dispatching %d", r.done, r.count, r.count-r.done)
	}
	return nil
}

// dispatch starts the pending shards, in order, on idle live backends: the
// one with the fewest consecutive failures first, ties in fleet order.
func (r *sweepRun) dispatch() {
	for len(r.pending) > 0 {
		m := -1
		for i := range r.fleet {
			if r.fleet[i].busy || r.fleet[i].evicted {
				continue
			}
			if m < 0 || r.fleet[i].failures < r.fleet[m].failures {
				m = i
			}
		}
		if m < 0 {
			return
		}
		shard := r.pending[0]
		r.pending = r.pending[1:]
		r.fleet[m].busy = true
		r.c.Metrics.attempt()
		go r.attempt(shard, m, r.fleet[m].backend, r.shardCfg(shard))
	}
}

// shardCfg returns the sweep config selecting one whole shard of the run.
func (r *sweepRun) shardCfg(shard int) expr.SweepConfig {
	scfg := r.cfg
	scfg.ShardIndex, scfg.ShardCount = shard, r.count
	return scfg
}

// attempt runs one shard on one backend (bounded by the shard timeout) and
// reports the outcome to the run loop. The result needs no second check: an
// HTTP backend's shard passed textio.ReadShard and its coordinate check, and
// an in-process shard is computed here.
func (r *sweepRun) attempt(shard, m int, b Backend, scfg expr.SweepConfig) {
	actx, cancel := r.runCtx, context.CancelFunc(func() {})
	if r.timeout > 0 {
		actx, cancel = context.WithTimeout(r.runCtx, r.timeout)
	}
	sh, err := b.RunShardStream(actx, scfg, func(expr.GraphResult) error {
		r.c.Metrics.graphStreamed()
		return nil
	})
	if err != nil && r.runCtx.Err() == nil && errors.Is(actx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("attempt timed out after %v: %w", r.timeout, err)
	}
	cancel()
	select {
	case r.resCh <- attemptOutcome{shard: shard, member: m, sh: sh, err: err}:
	case <-r.quit:
	}
}

// handle folds one attempt outcome into the run state. It returns a non-nil
// error only when the whole sweep must fail: caller cancellation, a shard out
// of attempts, no live backend left, or a journal write failure.
func (r *sweepRun) handle(ctx context.Context, out attemptOutcome) error {
	m := &r.fleet[out.member]
	m.busy = false
	if out.err == nil {
		m.failures = 0
		r.results[out.shard] = out.sh
		r.done++
		if r.c.Journal != nil {
			if err := r.c.Journal.write(r.hash, r.shardCfg(out.shard), out.sh); err != nil {
				return err
			}
		}
		r.progressf("shard %d/%d done on %s (%d graphs)", out.shard, r.count, m.name, len(out.sh.Results))
		return nil
	}

	// The caller cancelling the sweep fails every in-flight attempt; that is
	// the user's decision, not a fleet failure — report it as such.
	if err := ctx.Err(); err != nil {
		return err
	}
	// A shed (HTTP 429/503 backpressure) is the backend saying "not right
	// now", not evidence it is broken: retry with the usual bounded backoff,
	// but never count it toward eviction — evicting an overloaded-but-healthy
	// backend would turn transient congestion into permanent capacity loss.
	var bp *BackpressureError
	if errors.As(out.err, &bp) {
		r.c.Metrics.shed()
	} else if m.failures++; m.failures == evictAfter {
		m.evicted = true
		r.live--
		r.c.Metrics.eviction()
		r.logf("evicting backend %s after %d consecutive failed attempts", m.name, m.failures)
	}
	st := &r.state[out.shard]
	st.attempts++
	st.failures = append(st.failures,
		fmt.Errorf("distrib: shard %d/%d on %s: %w", out.shard, r.count, m.name, out.err))
	if st.attempts >= r.maxAttempts {
		return fmt.Errorf("distrib: shard %d/%d failed %d times, giving up: %w",
			out.shard, r.count, st.attempts, errors.Join(st.failures...))
	}
	if r.live == 0 {
		return r.stallError()
	}
	delay := r.backoff(out.shard, st.attempts)
	kind := "failed"
	if bp != nil {
		kind = "shed (backpressure)"
		// The backend's Retry-After is a floor under the computed backoff:
		// retrying sooner than asked would just be shed again. The floor is
		// capped at one attempt's time limit, so an absurd hint cannot park
		// the shard indefinitely.
		limit := r.timeout
		if limit <= 0 {
			limit = DefaultShardTimeout
		}
		delay = max(delay, min(bp.RetryAfter, limit))
	}
	r.c.Metrics.retry(delay)
	r.logf("shard %d/%d %s on %s (attempt %d/%d), retrying in %v: %v",
		out.shard, r.count, kind, m.name, st.attempts, r.maxAttempts, delay, out.err)
	shard := out.shard
	//lint:allow nowallclock retry-backoff timer: pacing between attempts only, never observed by any deterministic output
	time.AfterFunc(delay, func() {
		select {
		case r.wakeCh <- shard:
		case <-r.quit:
		}
	})
	return nil
}

// backoff returns the delay before retry number attempt (1-based) of a
// shard: base·2^(attempt-1) capped at maxDelay, plus up to 25% jitter derived
// deterministically from the shard and attempt (no random source), so
// synchronized failures of many shards spread their retries apart.
func (r *sweepRun) backoff(shard, attempt int) time.Duration {
	d := r.maxDelay
	if attempt-1 < 30 {
		if scaled := r.base << (attempt - 1); scaled > 0 && scaled < d {
			d = scaled
		}
	}
	span := uint64(d / 4)
	if span > 0 {
		d += time.Duration(mix64(uint64(shard)<<32^uint64(attempt)) % (span + 1))
	}
	return d
}

// stallError reports a sweep that cannot make progress: shards remain, but
// every backend has been evicted.
func (r *sweepRun) stallError() error {
	errs := []error{fmt.Errorf("distrib: %d of %d shards unfinished and no live backends remain (fleet of %d)",
		r.count-r.done, r.count, len(r.fleet))}
	for i := range r.state {
		if r.results[i] == nil {
			errs = append(errs, r.state[i].failures...)
		}
	}
	return errors.Join(errs...)
}

// mix64 is the splitmix64 mixing step, used to derive deterministic backoff
// jitter without consulting a random source.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
