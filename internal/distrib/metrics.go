package distrib

import (
	"time"

	"repro/internal/obs"
)

// Metrics is the distributed layer's instrument set, resolved once against a
// registry with NewMetrics and attached to a Coordinator. A nil *Metrics is
// valid everywhere and records nothing, so instrumentation stays strictly
// opt-in — distrib has no global state and unit tests pay nothing.
//
// Families (all counters):
//
//	cpg_distrib_attempts_total        shard attempts dispatched
//	cpg_distrib_retries_total         failed attempts scheduled for retry
//	cpg_distrib_backoff_wait_ms_total cumulative scheduled backoff, milliseconds
//	cpg_distrib_sheds_total           attempts shed by backend admission control
//	cpg_distrib_evictions_total       backends evicted after consecutive failures
//	cpg_distrib_journal_reused_total  shards reused from the journal instead of re-run
//	cpg_distrib_graphs_streamed_total graphs received over streaming shard attempts
type Metrics struct {
	attempts      *obs.Counter
	retries       *obs.Counter
	backoffMs     *obs.Counter
	sheds         *obs.Counter
	evictions     *obs.Counter
	journalReused *obs.Counter
	graphsStream  *obs.Counter
}

// NewMetrics registers the distrib families on reg and returns the handle to
// attach to Coordinator.Metrics. Registering twice on one registry is fine
// (the registry's idempotence rule).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		attempts: reg.Counter("cpg_distrib_attempts_total",
			"Shard attempts dispatched to backends."),
		retries: reg.Counter("cpg_distrib_retries_total",
			"Failed shard attempts scheduled for a backoff retry."),
		backoffMs: reg.Counter("cpg_distrib_backoff_wait_ms_total",
			"Cumulative retry backoff scheduled, in milliseconds."),
		sheds: reg.Counter("cpg_distrib_sheds_total",
			"Shard attempts shed by backend admission control (HTTP 429/503); retried without counting toward eviction."),
		evictions: reg.Counter("cpg_distrib_evictions_total",
			"Backends evicted from dispatch after consecutive failed attempts."),
		journalReused: reg.Counter("cpg_distrib_journal_reused_total",
			"Shards reused from the journal instead of re-dispatched."),
		graphsStream: reg.Counter("cpg_distrib_graphs_streamed_total",
			"Graphs received incrementally over streaming shard attempts."),
	}
}

// The nil-safe recorders below are the only way distrib code touches the
// instruments, so every call site stays one line whether metrics are attached
// or not.

func (m *Metrics) attempt() {
	if m != nil {
		m.attempts.Inc()
	}
}

func (m *Metrics) retry(delay time.Duration) {
	if m != nil {
		m.retries.Inc()
		m.backoffMs.Add(delay.Milliseconds())
	}
}

func (m *Metrics) shed() {
	if m != nil {
		m.sheds.Inc()
	}
}

func (m *Metrics) eviction() {
	if m != nil {
		m.evictions.Inc()
	}
}

func (m *Metrics) journalReuse(n int) {
	if m != nil {
		m.journalReused.Add(int64(n))
	}
}

func (m *Metrics) graphStreamed() {
	if m != nil {
		m.graphsStream.Inc()
	}
}
