// Package pool provides the bounded worker-pool fan-out shared by the path
// phase of the scheduling core and the experiment sweep: n independent jobs
// indexed 0..n-1 are distributed over a fixed number of goroutines, and every
// caller collects its results in index order afterwards, which keeps the
// output deterministic for any worker count.
package pool

import (
	"runtime"
	"sync"
)

// Clamp resolves a requested worker count against a job count: zero or
// negative means GOMAXPROCS, and the result never exceeds n (with a minimum
// of one).
func Clamp(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachIndexWorker calls fn(worker, i) for every i in [0, n), fanning the
// calls over Clamp(n, workers) goroutines; one worker means a plain
// sequential loop in index order. The worker identifier (0 <= worker <
// Clamp(n, workers)) lets callers keep per-worker scratch state sized with
// Clamp. It returns once every call has completed. fn must confine its writes
// to per-index slots and per-worker state (or otherwise synchronize) for the
// fan-out to be race-free.
func ForEachIndexWorker(n, workers int, fn func(worker, i int)) {
	workers = Clamp(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobs {
				fn(worker, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
