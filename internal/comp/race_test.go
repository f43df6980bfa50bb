package comp_test

import (
	"fmt"
	"sync"
	"testing"

	"sam/internal/comp"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// TestConcurrentRunSharedPool runs two compiled programs of different shape
// — a lane-parallel SpM*SpM and a sequential SpMV — interleaved from many
// goroutines at once, all drawing run contexts from the one process-wide
// free list, so contexts pass back and forth between the programs. Under
// -race this is the comp-level data-race gate for the shared free list and
// the programs' hints; it also checks every concurrent result stays
// bit-identical to its program's run on a fresh context.
func TestConcurrentRunSharedPool(t *testing.T) {
	var progs []boundProg
	for _, tc := range []struct {
		name, expr string
		sched      lang.Schedule
	}{
		{"spmspm-par4", "X(i,j) = B(i,k) * C(k,j)", lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: 4}},
		{"spmv", "x(i) = B(i,j) * c(j)", lang.Schedule{}},
	} {
		cp, bound, dims := compileCase(t, tc.expr, tc.sched, 29)
		want, err := cp.RunPooled(new(comp.RunCtx), bound, dims)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, boundProg{tc.name, cp, bound, dims, want})
	}
	const goroutines, iters = 8, 6
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				pr := progs[(i+k)%len(progs)]
				got, err := pr.cp.Run(pr.bound, pr.dims)
				if err == nil {
					err = tensor.IdenticalBits(pr.want, got)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", pr.name, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}
