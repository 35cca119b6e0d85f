package service

import "repro/internal/obs"

// RegisterMetrics exposes the service's existing counters on a metrics
// registry. The service keeps its own atomics as the source of truth (Stats
// reads them too); the registry gets scrape-time Func instruments over the
// same values, so nothing is double-counted and registration is free on the
// request path.
//
// Families:
//
//	cpg_service_requests_total        schedule problems handled
//	cpg_service_sweep_requests_total  sweep shards handled
//	cpg_service_memo_hits_total       problem-memo hits (memo_misses_total, memo_entries likewise)
//	cpg_service_worker_budget         the fixed global worker-token budget
//	cpg_service_workers_busy          tokens currently lent out
//
// Idempotent per registry: registering the same service twice is a no-op by
// the registry's identical-registration rule.
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("cpg_service_requests_total",
		"Schedule problems handled by the service.",
		s.requests.Load)
	reg.CounterFunc("cpg_service_sweep_requests_total",
		"Sweep shards handled by the service.",
		s.sweepReqs.Load)
	reg.CounterFunc("cpg_service_memo_hits_total",
		"Problem-memo hits.", s.cache.Hits)
	reg.CounterFunc("cpg_service_memo_misses_total",
		"Problem-memo misses.", s.cache.Misses)
	reg.GaugeFunc("cpg_service_memo_entries",
		"Problems currently memoised.",
		func() int64 { return int64(s.cache.Len()) })
	reg.GaugeFunc("cpg_service_worker_budget",
		"The global worker-token budget.",
		func() int64 { return int64(s.budget) })
	reg.GaugeFunc("cpg_service_workers_busy",
		"Worker tokens currently lent out to in-flight work.",
		func() int64 { return int64(s.budget - len(s.tokens)) })
}
