package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestClamp(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{
		{10, 1, 1},
		{10, 4, 4},
		{2, 8, 2},
		{0, 4, 1},
		{5, 0, min(5, runtime.GOMAXPROCS(0))},
		{5, -3, min(5, runtime.GOMAXPROCS(0))},
	} {
		if got := Clamp(tc.n, tc.workers); got != tc.want {
			t.Errorf("Clamp(%d, %d) = %d, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

func TestForEachIndexWorkerCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 100
		var hits [n]atomic.Int32
		ForEachIndexWorker(n, workers, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachIndexWorkerIDsInRange(t *testing.T) {
	const n = 64
	var maxWorker atomic.Int32
	ForEachIndexWorker(n, 4, func(w, i int) {
		for {
			cur := maxWorker.Load()
			if int32(w) <= cur || maxWorker.CompareAndSwap(cur, int32(w)) {
				return
			}
		}
	})
	if got := int(maxWorker.Load()); got >= Clamp(n, 4) {
		t.Fatalf("worker id %d out of range [0, %d)", got, Clamp(n, 4))
	}
}

func TestForEachIndexWorkerSequentialOrder(t *testing.T) {
	var order []int
	ForEachIndexWorker(10, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("sequential loop ran on worker %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}
