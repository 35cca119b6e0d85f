package distrib

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Defaults for the registry's health-probe policy.
const (
	// DefaultProbeInterval is the period of RunProbes when
	// Registry.ProbeInterval is zero.
	DefaultProbeInterval = 15 * time.Second
	// DefaultProbeTimeout bounds one probe of one backend.
	DefaultProbeTimeout = 5 * time.Second
	// DefaultFailAfter is the number of consecutive failures (probes or
	// shard attempts) after which a backend is evicted from dispatch.
	DefaultFailAfter = 3
)

// MemberState is the dispatch state of a registered backend.
type MemberState string

const (
	// StateActive members receive new shards.
	StateActive MemberState = "active"
	// StateDraining members finish their in-flight shards but receive no
	// new ones: the backend's own health document said so (an operator's
	// POST /v1/drain, or cpgserve shutting down). The next probe that
	// reports it active again returns it to dispatch.
	StateDraining MemberState = "draining"
	// StateDown members were evicted after consecutive failures; a
	// successful probe (or shard) re-admits them.
	StateDown MemberState = "down"
)

// MemberInfo is an observability snapshot of one registered backend.
type MemberInfo struct {
	Name     string
	State    MemberState
	Capacity int
	Failures int
}

// member is the registry's record of one backend.
type member struct {
	backend  Backend
	index    int // registration order, for deterministic iteration
	down     bool
	draining bool // reported by the backend's own health document
	failures int  // consecutive probe/attempt failures
	capacity int  // advertised worker budget (0 = unknown)
}

func (m *member) state() MemberState {
	switch {
	case m.down:
		return StateDown
	case m.draining:
		return StateDraining
	default:
		return StateActive
	}
}

// memberView is the coordinator's dispatch view of one live backend.
type memberView struct {
	name     string
	backend  Backend
	index    int
	failures int
	// slots is how many concurrent shards the backend is offered before
	// dispatch prefers an idler one: its advertised capacity, at least 1.
	slots int
}

// Registry tracks the fleet of sweep backends: membership, liveness (via
// periodic health probes and shard-attempt outcomes), advertised capacity and
// drain state. A Coordinator given a Registry dispatches only to active
// members and reacts to membership changes mid-sweep — backends can join,
// drain, die and come back while a sweep runs.
//
// The zero value is ready to use; all methods are safe for concurrent use.
type Registry struct {
	// ProbeInterval is the period of RunProbes (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe of one backend (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure eviction threshold
	// (0 = DefaultFailAfter).
	FailAfter int
	// Log, when non-nil, receives one line per state transition
	// (eviction, re-admission, drain).
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the registry's counters (probe
	// failures, evictions, re-admissions, drains). Nil records nothing.
	Metrics *Metrics

	mu      sync.Mutex
	members map[string]*member
	order   []string      // registration order
	change  chan struct{} // closed and replaced on every state change
	nextIdx int
}

// NewRegistry returns an empty registry with default probe policy.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) logf(format string, args ...any) {
	if r.Log != nil {
		r.Log(format, args...)
	}
}

func (r *Registry) failAfter() int {
	if r.FailAfter > 0 {
		return r.FailAfter
	}
	return DefaultFailAfter
}

// broadcastLocked wakes everyone waiting on changed(). Callers hold r.mu.
func (r *Registry) broadcastLocked() {
	if r.change != nil {
		close(r.change)
		r.change = nil
	}
}

// changed returns a channel that is closed at the next membership or state
// change, so a dispatcher can wait for "something happened" without polling.
// Fetch the channel before inspecting state: a change after the fetch closes
// the returned channel, so no transition is missed.
func (r *Registry) changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.change == nil {
		r.change = make(chan struct{})
	}
	return r.change
}

// Register adds a backend to the fleet. The name must be non-empty and
// unique — two backends answering to one name would make dispatch accounting
// (and logs) ambiguous, so duplicates are rejected, as are duplicate URLs
// registered as separate HTTP backends (their Name is the URL). A backend
// registered mid-sweep starts receiving shards immediately.
func (r *Registry) Register(b Backend) error {
	if b == nil {
		return fmt.Errorf("distrib: register nil backend")
	}
	name := b.Name()
	if name == "" {
		return fmt.Errorf("distrib: backend name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.members[name]; dup {
		return fmt.Errorf("distrib: backend %q already registered", name)
	}
	if r.members == nil {
		r.members = make(map[string]*member)
	}
	r.members[name] = &member{backend: b, index: r.nextIdx}
	r.nextIdx++
	r.order = append(r.order, name)
	r.broadcastLocked()
	return nil
}

// Members returns an observability snapshot of the fleet in registration
// order.
func (r *Registry) Members() []MemberInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberInfo, 0, len(r.order))
	for _, name := range r.order {
		m := r.members[name]
		out = append(out, MemberInfo{Name: name, State: m.state(), Capacity: m.capacity, Failures: m.failures})
	}
	return out
}

// eligible returns the members that may receive new shards — active, not
// down, not draining — in registration order (deterministic dispatch).
func (r *Registry) eligible() []memberView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]memberView, 0, len(r.order))
	for _, name := range r.order {
		m := r.members[name]
		if m.state() != StateActive {
			continue
		}
		out = append(out, memberView{
			name:     name,
			backend:  m.backend,
			index:    m.index,
			failures: m.failures,
			slots:    max(m.capacity, 1),
		})
	}
	return out
}

// reportFailure records a failed shard attempt against a backend; FailAfter
// consecutive failures (attempts or probes) evict it from dispatch until a
// probe or attempt succeeds again. Members are never removed, so every name
// the coordinator dispatched to is still registered.
func (r *Registry) reportFailure(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordFailureLocked(name, r.members[name])
}

func (r *Registry) recordFailureLocked(name string, m *member) {
	m.failures++
	if !m.down && m.failures >= r.failAfter() {
		m.down = true
		r.Metrics.eviction()
		r.logf("registry: evicting backend %s after %d consecutive failures", name, m.failures)
		r.broadcastLocked()
	}
}

// reportSuccess records a successful shard attempt: the failure streak resets
// and an evicted backend is re-admitted (it evidently works again).
func (r *Registry) reportSuccess(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[name]
	m.failures = 0
	if m.down {
		m.down = false
		r.Metrics.readmission()
		r.logf("registry: re-admitting backend %s", name)
		r.broadcastLocked()
	}
}

// ProbeOnce probes every member once (concurrently, each bounded by
// ProbeTimeout) and applies the outcomes: failures count toward eviction,
// successes reset the streak, re-admit evicted members and refresh the
// advertised capacity and drain state. Members that do not implement
// HealthProber are left untouched — they are assumed alive, and only shard
// attempts inform their state.
func (r *Registry) ProbeOnce(ctx context.Context) {
	timeout := r.ProbeTimeout
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	r.mu.Lock()
	targets := make([]memberView, 0, len(r.order))
	for _, name := range r.order {
		if _, ok := r.members[name].backend.(HealthProber); ok {
			targets = append(targets, memberView{name: name, backend: r.members[name].backend})
		}
	}
	r.mu.Unlock()

	type outcome struct {
		name string
		info ProbeInfo
		err  error
	}
	results := make([]outcome, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t memberView) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			info, err := t.backend.(HealthProber).Probe(pctx)
			results[i] = outcome{name: t.name, info: info, err: err}
		}(i, t)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return // shutting down: don't evict the whole fleet on cancelled probes
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, res := range results {
		m := r.members[res.name]
		if res.err != nil {
			r.Metrics.probeFailure()
			r.logf("registry: probe of %s failed: %v", res.name, res.err)
			r.recordFailureLocked(res.name, m)
			continue
		}
		m.failures = 0
		m.capacity = res.info.Capacity
		if m.down {
			m.down = false
			r.Metrics.readmission()
			r.logf("registry: re-admitting backend %s (probe ok)", res.name)
			r.broadcastLocked()
		}
		if res.info.Draining != m.draining {
			m.draining = res.info.Draining
			if res.info.Draining {
				r.Metrics.drain()
				r.logf("registry: backend %s reports draining", res.name)
			} else {
				r.logf("registry: backend %s done draining", res.name)
			}
			r.broadcastLocked()
		}
	}
}

// RunProbes probes the fleet every ProbeInterval until ctx is cancelled.
// Run it in its own goroutine alongside a sweep to get liveness-driven
// eviction and re-admission under churn.
func (r *Registry) RunProbes(ctx context.Context) {
	interval := r.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	//lint:allow nowallclock liveness-probe ticker: probe cadence is operational pacing, never part of a pinned deterministic output
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.ProbeOnce(ctx)
		}
	}
}
