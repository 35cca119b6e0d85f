package distrib

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/expr"
	"repro/internal/textio"
)

// Defaults for the coordinator's retry policy.
const (
	// DefaultMaxAttempts bounds how many times one shard is retried after
	// failures that left it with no attempt in flight.
	DefaultMaxAttempts = 4
	// DefaultRetryBaseDelay is the first retry's backoff; each further
	// retry doubles it (plus deterministic jitter) up to
	// DefaultRetryMaxDelay.
	DefaultRetryBaseDelay = 50 * time.Millisecond
	DefaultRetryMaxDelay  = 2 * time.Second
)

// Coordinator fans the shards of a sweep over a fleet of backends and merges
// the partial results. Failed shards are retried with bounded exponential
// backoff on the live members only; idle backends steal the slowest in-flight
// shard (first finisher wins, the duplicate is discarded before merging); and
// with a Journal attached, every shard is spooled to disk as it arrives and
// reused on the next run of the same sweep.
//
// Backends deliver their shard graph by graph, and the coordinator accounts
// (and, with a Journal, spools) each graph as it arrives: when a backend
// dies mid-shard, the retry carries a skip list of the graphs already
// received, so only the unreceived remainder is recomputed — on the retry
// backend and, via the journal, even across a coordinator restart.
type Coordinator struct {
	// Shards is the number of shards to split the sweep into (<= 1 means a
	// single shard covering the whole sweep).
	Shards int
	// Backends is the static fleet: the coordinator wraps it in a private
	// Registry (so eviction and backoff apply) for the duration of a run.
	// Empty means one in-process backend without a service. Mutually
	// exclusive with Registry.
	Backends []Backend
	// Registry, when non-nil, supplies the fleet dynamically: membership,
	// liveness, capacity and drain state can change mid-sweep and dispatch
	// follows. Mutually exclusive with Backends.
	Registry *Registry
	// Log, when non-nil, receives one line per shard failure, retry and
	// salvage, and the progress lines too unless Progress is set.
	Log func(format string, args ...any)
	// Progress, when non-nil, receives the progress lines in place of Log:
	// one per shard completion, steal, discarded duplicate and journal
	// reuse.
	Progress func(format string, args ...any)
	// ShardTimeout bounds one shard attempt on one backend, so a hung
	// backend fails over instead of stalling the sweep (0 =
	// DefaultShardTimeout, negative = unbounded).
	ShardTimeout time.Duration
	// MaxAttempts bounds the failed attempts of one shard before the sweep
	// fails (0 = DefaultMaxAttempts). Failures while another attempt of the
	// same shard is still in flight (a steal that lost the race) do not
	// consume attempts.
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the exponential backoff
	// between retries of one shard (0 = the defaults above).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Journal, when non-nil, spools every shard graph by graph and seeds the
	// run with what an earlier run of the same sweep spooled, so a restarted
	// coordinator re-dispatches only the missing graphs.
	Journal *Journal
	// DisableStealing turns off speculative re-dispatch of slow in-flight
	// shards (stealing is on by default).
	DisableStealing bool
	// Metrics, when non-nil, receives the coordinator's counters (attempts,
	// retries, steals, sheds, ...). Nil records nothing. A private registry
	// built from Backends inherits it; an explicit Registry keeps its own.
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

// registry resolves the fleet the run dispatches to: the configured Registry,
// or a private one wrapping the static Backends list (which also rejects
// duplicate backend names/URLs up front).
func (c *Coordinator) registry() (*Registry, error) {
	if c.Registry != nil {
		if len(c.Backends) > 0 {
			return nil, errors.New("distrib: set Coordinator.Backends or Coordinator.Registry, not both")
		}
		return c.Registry, nil
	}
	reg := NewRegistry()
	reg.Log = c.Log
	reg.Metrics = c.Metrics
	backends := c.Backends
	if len(backends) == 0 {
		backends = []Backend{InProcess{}}
	}
	for _, b := range backends {
		if err := reg.Register(b); err != nil {
			return nil, err
		}
	}
	return reg, nil
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
	count := c.Shards
	if count < 1 {
		count = 1
	}
	reg, err := c.registry()
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
		maxDelay = DefaultRetryMaxDelay
		if maxDelay < base {
			maxDelay = base
		}
	}
	r := &sweepRun{
		c:           c,
		reg:         reg,
		cfg:         cfg,
		count:       count,
		hash:        hash,
		timeout:     timeout,
		maxAttempts: maxAttempts,
		base:        base,
		maxDelay:    maxDelay,
		results:     make([]*expr.ShardResult, count),
		state:       make([]shardState, count),
		busy:        make(map[string]int),
		resCh:       make(chan attemptOutcome, count),
		wakeCh:      make(chan int, count),
		quit:        make(chan struct{}),
	}
	return r.run(ctx)
}

// attemptOutcome is one finished shard attempt, reported to the run loop.
type attemptOutcome struct {
	shard   int
	backend string
	sh      *expr.ShardResult
	// got is every graph this attempt streamed before it ended — on failure
	// the salvage the retry's skip list is built from.
	got []expr.GraphResult
	err error
}

// shardState is the run loop's bookkeeping for one shard.
type shardState struct {
	// attempts counts failures that left the shard uncovered (no other
	// attempt in flight); it is what MaxAttempts bounds.
	attempts int
	// failures collects every attempt error of the shard, for the joined
	// report when the shard (or the sweep) permanently fails.
	failures []error
	// inflight is the set of backends currently running the shard (more
	// than one during a steal).
	inflight map[string]bool
	// firstDispatch is the run-wide sequence number of the dispatch that
	// started the shard's current in-flight streak; the steal pass picks
	// the live shard with the smallest one (the longest-running, i.e.
	// slowest).
	firstDispatch int
	// cooling marks a shard waiting out its retry backoff.
	cooling bool
	// got holds the graphs already received for the shard — streamed by
	// attempts that later died, or reloaded from the journal. Dispatch turns
	// its keys into the attempt's skip list.
	got map[expr.GraphKey]expr.GraphResult
	// sink is the shard's open journal file (nil without a Journal).
	sink *shardSpool
}

// sweepRun is the state of one RunShards execution: a single event loop owns
// all bookkeeping, attempt goroutines only run backends and report outcomes.
type sweepRun struct {
	c           *Coordinator
	reg         *Registry
	cfg         expr.SweepConfig
	count       int
	hash        string
	timeout     time.Duration
	maxAttempts int
	base        time.Duration
	maxDelay    time.Duration

	runCtx context.Context

	results       []*expr.ShardResult
	done          int
	state         []shardState
	pending       []int          // shards ready for dispatch, FIFO
	busy          map[string]int // backend name -> running attempts
	inflightTotal int
	cooling       int // outstanding backoff timers
	seq           int

	resCh  chan attemptOutcome
	wakeCh chan int
	quit   chan struct{} // closed when the run returns; unblocks stray sends
}

func (r *sweepRun) logf(format string, args ...any)      { r.c.logf(format, args...) }
func (r *sweepRun) progressf(format string, args ...any) { r.c.progressf(format, args...) }

func (r *sweepRun) run(ctx context.Context) ([]*expr.ShardResult, error) {
	defer close(r.quit)
	defer r.closeSinks()
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
		// Fetch the change channel before dispatching: a membership change
		// between dispatch and select then wakes the loop instead of being
		// missed.
		change := r.reg.changed()
		r.dispatch()
		if len(r.pending) > 0 && r.inflightTotal == 0 && r.cooling == 0 {
			return nil, r.stallError()
		}
		select {
		case out := <-r.resCh:
			if err := r.handle(ctx, out); err != nil {
				return nil, err
			}
		case shard := <-r.wakeCh:
			r.cooling--
			r.state[shard].cooling = false
			if r.results[shard] == nil {
				r.pending = append(r.pending, shard)
			}
		case <-change:
			// Membership or liveness changed: loop and re-dispatch.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return r.results, nil
}

// preload seeds the run with the journal: complete shards are not
// dispatched at all, and the graphs spooled for unfinished ones become their
// skip lists.
func (r *sweepRun) preload() error {
	if r.c.Journal == nil {
		return nil
	}
	done, partial, err := r.c.Journal.Load(r.hash, r.cfg, r.count)
	if err != nil {
		return err
	}
	for i, sh := range done {
		r.results[i] = sh
	}
	r.done = len(done)
	if r.done > 0 {
		r.c.Metrics.journalReuse(r.done)
		r.progressf("journal: reusing %d/%d completed shards, re-dispatching %d", r.done, r.count, r.count-r.done)
	}
	reused := 0
	for i, graphs := range partial {
		r.state[i].got = make(map[expr.GraphKey]expr.GraphResult, len(graphs))
		for _, g := range graphs {
			r.state[i].got[g.Key()] = g
		}
		reused += len(graphs)
	}
	if reused > 0 {
		r.c.Metrics.partialReuse(reused)
		r.progressf("journal: reusing %d streamed graphs from partial spools", reused)
	}
	return nil
}

// closeSinks releases every open journal file when the run returns (the
// files stay on disk for the shards that did not finish).
func (r *sweepRun) closeSinks() {
	for i := range r.state {
		if s := r.state[i].sink; s != nil {
			s.close()
			r.state[i].sink = nil
		}
	}
}

// dispatch hands out work to the current fleet: first the pending shards,
// then — if idle backends remain — speculative re-dispatches of the slowest
// in-flight shards (work-stealing; the first finisher wins).
func (r *sweepRun) dispatch() {
	members := r.reg.eligible()
	if len(members) == 0 {
		return
	}
	for len(r.pending) > 0 {
		m, ok := r.pickMember(members, func(m memberView) bool {
			return r.busy[m.name] < m.slots
		})
		if !ok {
			break
		}
		shard := r.pending[0]
		r.pending = r.pending[1:]
		r.start(shard, m)
	}
	if r.c.DisableStealing {
		return
	}
	for {
		m, ok := r.pickMember(members, func(m memberView) bool {
			return r.busy[m.name] == 0
		})
		if !ok {
			return
		}
		victim := r.stealVictim(m.name)
		if victim < 0 {
			return
		}
		r.c.Metrics.steal()
		r.progressf("shard %d/%d stolen for idle %s (slowest in flight; first finisher wins)", victim, r.count, m.name)
		r.start(victim, m)
	}
}

// pickMember returns the usable member with the fewest running attempts,
// breaking ties by fewer consecutive failures, then registration order — so
// dispatch spreads load, shies away from flaky backends and stays
// deterministic for a given fleet state.
func (r *sweepRun) pickMember(members []memberView, usable func(memberView) bool) (memberView, bool) {
	var best memberView
	found := false
	for _, m := range members {
		if !usable(m) {
			continue
		}
		if !found {
			best, found = m, true
			continue
		}
		switch {
		case r.busy[m.name] != r.busy[best.name]:
			if r.busy[m.name] < r.busy[best.name] {
				best = m
			}
		case m.failures != best.failures:
			if m.failures < best.failures {
				best = m
			}
		case m.index < best.index:
			best = m
		}
	}
	return best, found
}

// stealVictim picks the shard an idle thief should duplicate: the
// longest-running one with exactly one attempt in flight (a second thief
// would be waste) that the thief is not already running. Returns -1 when
// nothing is worth stealing.
func (r *sweepRun) stealVictim(thief string) int {
	victim := -1
	for i := 0; i < r.count; i++ {
		st := &r.state[i]
		if r.results[i] != nil || len(st.inflight) != 1 || st.inflight[thief] {
			continue
		}
		if victim < 0 || st.firstDispatch < r.state[victim].firstDispatch {
			victim = i
		}
	}
	return victim
}

// start launches one attempt of a shard on a backend. Graphs already held
// for the shard (streamed by a dead attempt, or reloaded from the journal)
// become the attempt's skip list, so the backend computes only the
// unreceived remainder.
func (r *sweepRun) start(shard int, m memberView) {
	st := &r.state[shard]
	if st.inflight == nil {
		st.inflight = make(map[string]bool)
	}
	if len(st.inflight) == 0 {
		st.firstDispatch = r.seq
	}
	r.seq++
	st.inflight[m.name] = true
	r.busy[m.name]++
	r.inflightTotal++
	r.c.Metrics.attempt()
	scfg := r.shardCfg(shard)
	if len(st.got) > 0 {
		keys := make([]expr.GraphKey, 0, len(st.got))
		for k := range st.got {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, expr.CompareGraphKeys)
		scfg.Skip = append(slices.Clone(r.cfg.Skip), keys...)
	}
	if r.c.Journal != nil && st.sink == nil {
		sink, err := r.c.Journal.openShard(r.hash, r.shardCfg(shard))
		if err != nil {
			r.logf("shard %d/%d: journal file unavailable, streaming without it: %v", shard, r.count, err)
		} else {
			st.sink = sink
		}
	}
	go r.attempt(shard, m.name, m.backend, scfg, st.sink)
}

// shardCfg returns the sweep config selecting one whole shard of the run.
func (r *sweepRun) shardCfg(shard int) expr.SweepConfig {
	scfg := r.cfg
	scfg.ShardIndex, scfg.ShardCount = shard, r.count
	return scfg
}

// attempt runs one shard on one backend (bounded by the shard timeout),
// validates the result and reports the outcome to the run loop. Every graph
// the backend streams is spooled to the shard's sink (when journaling) and
// reported with the outcome, so a failed attempt still salvages the work it
// finished.
func (r *sweepRun) attempt(shard int, name string, b Backend, scfg expr.SweepConfig, sink *shardSpool) {
	actx, cancel := r.runCtx, context.CancelFunc(func() {})
	if r.timeout > 0 {
		actx, cancel = context.WithTimeout(r.runCtx, r.timeout)
	}
	var got []expr.GraphResult
	sh, err := b.RunShardStream(actx, scfg, func(g expr.GraphResult) error {
		got = append(got, g)
		r.c.Metrics.graphStreamed()
		if sink != nil {
			return sink.append(g)
		}
		return nil
	})
	cancel()
	if err == nil {
		if verr := scfg.ValidateShardResult(sh); verr != nil {
			sh, err = nil, fmt.Errorf("invalid shard result: %w", verr)
		}
	}
	select {
	case r.resCh <- attemptOutcome{shard: shard, backend: name, sh: sh, got: got, err: err}:
	case <-r.quit:
	}
}

// handle folds one attempt outcome into the run state. It returns a non-nil
// error only when the whole sweep must fail (caller cancellation, a shard out
// of attempts, or a journal write failure).
func (r *sweepRun) handle(ctx context.Context, out attemptOutcome) error {
	st := &r.state[out.shard]
	delete(st.inflight, out.backend)
	r.busy[out.backend]--
	r.inflightTotal--

	if out.err == nil {
		r.reg.reportSuccess(out.backend)
		if r.results[out.shard] != nil {
			r.c.Metrics.duplicate()
			r.progressf("shard %d/%d duplicate completion on %s discarded (lost the steal race)", out.shard, r.count, out.backend)
			return nil
		}
		sh, err := r.completeShard(out.shard, out.sh)
		if err != nil {
			return err
		}
		r.results[out.shard] = sh
		r.done++
		if r.c.Journal != nil {
			if err := r.journalShard(out.shard, sh); err != nil {
				return err
			}
		}
		st.got = nil
		r.progressf("shard %d/%d done on %s (%d graphs, %d salvaged earlier)",
			out.shard, r.count, out.backend, len(sh.Results), len(sh.Results)-len(out.sh.Results))
		return nil
	}

	// The caller cancelling the sweep fails every in-flight attempt; that is
	// the user's decision, not a fleet failure — report it as such.
	if err := ctx.Err(); err != nil {
		return err
	}
	// A shed (HTTP 429/503 backpressure) is the backend saying "not right
	// now", not evidence it is broken: retry with the usual bounded backoff,
	// but never count it toward the registry's consecutive-failure eviction —
	// shedding an overloaded-but-healthy backend out of the fleet would turn
	// transient congestion into permanent capacity loss.
	var bp *BackpressureError
	if errors.As(out.err, &bp) {
		r.c.Metrics.shed()
	} else {
		r.reg.reportFailure(out.backend)
	}
	if r.results[out.shard] != nil {
		return nil // the shard finished elsewhere; this failure is moot
	}
	// Salvage whatever the dead attempt streamed: the retry's skip list
	// grows by these graphs, so only the unreceived remainder is recomputed.
	if len(out.got) > 0 {
		if st.got == nil {
			st.got = make(map[expr.GraphKey]expr.GraphResult, len(out.got))
		}
		salvaged := 0
		for _, g := range out.got {
			if _, ok := st.got[g.Key()]; !ok {
				st.got[g.Key()] = g
				salvaged++
			}
		}
		if salvaged > 0 {
			r.logf("shard %d/%d: salvaged %d streamed graphs from the failed attempt (%d/%d held)",
				out.shard, r.count, salvaged, len(st.got), r.shardGraphs(out.shard))
		}
	}
	st.failures = append(st.failures,
		fmt.Errorf("distrib: shard %d/%d on %s: %w", out.shard, r.count, out.backend, out.err))
	if len(st.inflight) > 0 {
		// Another attempt still covers the shard (a steal is in flight):
		// don't consume a retry, and don't re-enqueue.
		r.logf("shard %d/%d failed on %s, another attempt still in flight: %v", out.shard, r.count, out.backend, out.err)
		return nil
	}
	st.attempts++
	if st.attempts >= r.maxAttempts {
		return fmt.Errorf("distrib: shard %d/%d failed %d times, giving up: %w",
			out.shard, r.count, st.attempts, errors.Join(st.failures...))
	}
	delay := r.backoff(out.shard, st.attempts)
	kind := "failed"
	if bp != nil {
		kind = "shed (backpressure)"
		// The backend's Retry-After is a floor under the computed backoff:
		// retrying sooner than asked would just be shed again. The floor is
		// capped at one attempt's time limit, because while the shard cools
		// down no attempt is in flight, so neither stealing nor a stall can
		// move it: an absurd hint would park the shard indefinitely.
		limit := r.timeout
		if limit <= 0 {
			limit = DefaultShardTimeout
		}
		if floor := min(bp.RetryAfter, limit); floor > delay {
			delay = floor
		}
	}
	r.c.Metrics.retry(delay)
	r.logf("shard %d/%d %s on %s (attempt %d/%d), retrying in %v: %v",
		out.shard, r.count, kind, out.backend, st.attempts, r.maxAttempts, delay, out.err)
	st.cooling = true
	r.cooling++
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

// journalShard completes the shard's journal file (opening it now if it
// could not be opened at dispatch) so the shard counts as journaled.
func (r *sweepRun) journalShard(shard int, sh *expr.ShardResult) error {
	st := &r.state[shard]
	if st.sink == nil {
		sink, err := r.c.Journal.openShard(r.hash, r.shardCfg(shard))
		if err != nil {
			return err
		}
		st.sink = sink
	}
	err := st.sink.finish(sh)
	st.sink = nil
	return err
}

// completeShard combines a finished attempt's (possibly skip-reduced) shard
// result with the graphs salvaged from earlier attempts and the journal into
// the full shard, reassembled in canonical order. Without salvage the
// attempt's result already is the full shard.
func (r *sweepRun) completeShard(shard int, sh *expr.ShardResult) (*expr.ShardResult, error) {
	st := &r.state[shard]
	if len(st.got) == 0 {
		return sh, nil
	}
	union := make(map[expr.GraphKey]expr.GraphResult, len(st.got)+len(sh.Results))
	for k, g := range st.got {
		union[k] = g
	}
	for _, g := range sh.Results {
		union[g.Key()] = g
	}
	full, err := r.shardCfg(shard).AssembleShardResult(union)
	if err != nil {
		return nil, fmt.Errorf("distrib: shard %d/%d: assembling salvaged graphs: %w", shard, r.count, err)
	}
	return full, nil
}

// shardGraphs returns one shard's total graph count (after any sweep-level
// skip list), for log lines.
func (r *sweepRun) shardGraphs(shard int) int {
	return r.shardCfg(shard).ShardSize()
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
// no attempt is running, no retry is pending and no live backend can take
// work.
func (r *sweepRun) stallError() error {
	errs := make([]error, 0, 1+len(r.pending))
	errs = append(errs, fmt.Errorf("distrib: %d of %d shards unfinished and no live backends remain (fleet of %d)",
		r.count-r.done, r.count, len(r.reg.Members())))
	for _, shard := range r.pending {
		errs = append(errs, r.state[shard].failures...)
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
