package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailSamples is the number of samples strictly beyond the q-quantile: a
// percentile is only reported as valid with at least ten of them.
func tailSamples(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

// parallel calls f(0..n-1) on as many goroutines as the load has
// connections; it is used only outside timed windows.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// cpuTicks reads the host's total and steal CPU time from /proc/stat (all
// CPUs, in clock ticks); zeros when it cannot be read.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseFloat(v, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealMeter measures the share of the host's CPU time that the hypervisor
// gave to other guests over an interval. It is recorded beside a run's
// results as host context; no metric is corrected by it.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := cpuTicks()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}
