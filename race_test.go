package repro

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
)

// TestConcurrentScheduleFigure1 schedules the worked example of the paper
// from many goroutines sharing one graph and one architecture. Under `go
// test -race` this exercises every read path of cpg, arch, listsched and core
// that concurrent callers rely on being immutable after Finalize; all
// goroutines must also agree on the resulting delays.
func TestConcurrentScheduleFigure1(t *testing.T) {
	g, a, err := expr.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	// Schedule once up front so the graph is finalized before the fan-out.
	ref, err := core.Schedule(g, a, core.Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	const goroutines = 16
	const iterations = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iterations; j++ {
				res, err := core.Schedule(g, a, core.Options{})
				if err != nil {
					errs <- err
					return
				}
				if res.DeltaM != ref.DeltaM || res.DeltaMax != ref.DeltaMax {
					t.Errorf("goroutine %d: δM=%d δmax=%d, want δM=%d δmax=%d",
						i, res.DeltaM, res.DeltaMax, ref.DeltaM, ref.DeltaMax)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Schedule: %v", err)
	}
}
