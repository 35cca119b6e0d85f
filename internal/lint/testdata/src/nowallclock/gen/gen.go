// Package gen is a nowallclock fixture named after the real generator
// package.
//
// Regression notes — tree violations found on the first run, and how they
// were resolved:
//   - internal/core core.go used time.Now for phase telemetry; the timings
//     are operator-facing and excluded from deterministic output, so they
//     carry documented allows (DeadlineAllowed covers that path).
package gen

import (
	"math/rand"
	"os"
	"time"
)

// Stamp reads the wall clock in the deterministic core.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now in the deterministic core"
}

// GlobalRand draws from the process-global source: irreproducible.
func GlobalRand(n int) int {
	return rand.Intn(n) // want "global math/rand.Intn in the deterministic core"
}

// GlobalShuffle covers the mutation side of the global source.
func GlobalShuffle(v []int) {
	rand.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] }) // want "global math/rand.Shuffle in the deterministic core"
}

// SeededRand builds an explicit generator from a seed: the reproducible
// idiom, not flagged.
func SeededRand(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Env reads ambient machine state.
func Env() string {
	return os.Getenv("CPG_MODE") // want "os.Getenv in the deterministic core"
}

// DeadlineAllowed reads the wall clock where a documented allow at the call
// site says why the time never reaches deterministic output.
func DeadlineAllowed(budget time.Duration) bool {
	//lint:allow nowallclock the deadline only paces work and never reaches deterministic output
	deadline := time.Now().Add(budget)
	return time.Until(deadline) > 0
}

// MissingReason shows that an allow without a reason is itself an error —
// and that a reasonless allow suppresses nothing.
func MissingReason() int64 {
	//lint:allow nowallclock // want "lint:allow nowallclock needs a reason"
	return time.Now().UnixNano() // want "time.Now in the deterministic core"
}

// Pace sleeps: timer-driven pacing is wall-clock state.
func Pace() {
	time.Sleep(time.Millisecond) // want "time.Sleep in the deterministic core"
}

// Poll builds a ticker without a documented reason.
func Poll() *time.Ticker {
	return time.NewTicker(time.Second) // want "time.NewTicker in the deterministic core"
}

// Defer arms an undocumented timer callback.
func Defer(f func()) *time.Timer {
	return time.AfterFunc(time.Second, f) // want "time.AfterFunc in the deterministic core"
}

// Expire uses the channel-timer variants.
func Expire() <-chan time.Time {
	return time.After(time.Second) // want "time.After in the deterministic core"
}

// ProbeTickerAllowed mirrors the registry's liveness-probe ticker: pacing
// that is operational by contract carries a documented allow.
func ProbeTickerAllowed() *time.Ticker {
	//lint:allow nowallclock liveness-probe ticker: probe cadence is operational pacing, never part of a pinned deterministic output
	return time.NewTicker(time.Second)
}

// BackoffTimerAllowed mirrors the coordinator's retry-backoff timer.
func BackoffTimerAllowed(f func()) *time.Timer {
	//lint:allow nowallclock retry-backoff timer: pacing between attempts only, never observed by any deterministic output
	return time.AfterFunc(time.Second, f)
}
