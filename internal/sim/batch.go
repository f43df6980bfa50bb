package sim

import (
	"fmt"
	"runtime"
	"sync"

	"sam/internal/graph"
	"sam/internal/tensor"
)

// Job is one graph + input binding in a batched simulation.
type Job struct {
	// Name labels the job in errors; when empty the graph name is used.
	Name string
	// Graph is the compiled SAM graph to execute. Ignored when Program is
	// set.
	Graph *graph.Graph
	// Program, when non-nil, is a precompiled program to execute instead of
	// Graph: the per-job validation and planning are already paid, so the
	// job skips straight to input binding. Programs are safe to share
	// across jobs.
	Program *Program
	// Inputs binds source tensor names to tensors. Inputs are only read, so
	// jobs may share tensors.
	Inputs map[string]*tensor.COO
}

// nameOf returns the job's graph or program name, or "" when neither is set.
// Artifact-backed programs have no graph but still carry their encoded name.
func (j Job) nameOf() string {
	if j.Program != nil {
		return j.Program.name()
	}
	if j.Graph != nil {
		return j.Graph.Name
	}
	return ""
}

func (j Job) label(i int) string {
	if j.Name != "" {
		return j.Name
	}
	if n := j.nameOf(); n != "" {
		return n
	}
	return fmt.Sprintf("job %d", i)
}

// RunBatch executes many independent simulations concurrently over a worker
// pool and returns their results in job order. Every job gets its own Net
// (shared-nothing), so the results are identical to running the jobs
// sequentially with Run under the same Options. Options.Workers bounds the
// pool size (0 means GOMAXPROCS). The first error in job order is returned;
// results for failed jobs are nil.
func RunBatch(jobs []Job, opt Options) ([]*Result, error) {
	if err := CheckEngineKind(opt.Engine, Engines()); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				var res *Result
				var err error
				switch {
				case j.Program != nil:
					// Artifact-backed programs have no graph but run fine
					// on comp; the cycle engines' own checks reject them.
					res, err = j.Program.Run(j.Inputs, opt)
				case j.Graph != nil:
					res, err = Run(j.Graph, j.Inputs, opt)
				default:
					errs[i] = fmt.Errorf("sim: %s: nil graph", j.label(i))
					continue
				}
				if err != nil {
					// Engine errors already carry a "sim: <graph>" prefix;
					// add only the job label, and only when it adds signal.
					if j.Name != "" && j.Name != j.nameOf() {
						err = fmt.Errorf("%s: %w", j.Name, err)
					}
					errs[i] = err
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
