package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// TestRunBatchPerJob checks a mixed batch under the comp engine: every
// successful job has a result, every failed job has a nil result, and the
// returned error is the first failure in job order, naming its own job. A
// bitvector graph is one such failure: comp rejects what it cannot lower.
func TestRunBatchPerJob(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	spmv, err := custard.Compile(lang.MustParse("x(i) = B(i,j) * c(j)"), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	bv, err := custard.CompileBitvector(lang.MustParse("x(i) = b(i) * c(i)"), lang.Formats{
		"b": lang.Uniform(1, fiber.Bitvector),
		"c": lang.Uniform(1, fiber.Bitvector),
	})
	if err != nil {
		t.Fatal(err)
	}
	spmvIn := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 120, 30, 30),
		"c": tensor.UniformRandom("c", rng, 15, 30),
	}
	bvIn := map[string]*tensor.COO{
		"b": tensor.UniformRandom("b", rng, 40, 200),
		"c": tensor.UniformRandom("c", rng, 40, 200),
	}
	jobs := []Job{
		{Name: "ok-comp", Graph: spmv, Inputs: spmvIn},
		{Name: "bad-missing-input", Graph: spmv, Inputs: map[string]*tensor.COO{"B": spmvIn["B"]}},
		{Name: "bad-bitvector", Graph: bv, Inputs: bvIn},
		{Name: "bad-nil-graph"},
		{Name: "ok-comp-2", Graph: spmv, Inputs: spmvIn},
	}
	results, err := RunBatch(jobs, Options{Engine: EngineComp, Workers: 2})
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	if err == nil || !strings.Contains(err.Error(), "bad-missing-input") {
		t.Errorf("error = %v, want job 1's failure, naming bad-missing-input", err)
	}
	for i := range jobs {
		wantOK := strings.HasPrefix(jobs[i].Name, "ok-")
		if wantOK && results[i] == nil {
			t.Errorf("job %d (%s): nil result, want success", i, jobs[i].Name)
		}
		if !wantOK && results[i] != nil {
			t.Errorf("job %d (%s): result = %v, want nil for a failed job", i, jobs[i].Name, results[i])
		}
	}

	// The bitvector graph fails its own job, by name, with comp.Check's error.
	if _, err := RunBatch(jobs[2:], Options{Engine: EngineComp}); err == nil ||
		!strings.Contains(err.Error(), "bad-bitvector") || !strings.Contains(err.Error(), comp.Check(bv).Error()) {
		t.Errorf("error = %v, want the bitvector job's rejection, naming bad-bitvector", err)
	}
	// A nil graph fails its own job, by name.
	if _, err := RunBatch(jobs[3:], Options{Engine: EngineComp}); err == nil || !strings.Contains(err.Error(), "bad-nil-graph") {
		t.Errorf("error = %v, want the nil-graph job's failure, naming bad-nil-graph", err)
	}
}

// TestBatchSharedProgramRace hammers one cached Program — one lazily built
// comp lowering over the shared run-context free list — from many goroutines
// at once, as concurrent requests for one cached program do.
// Run under -race this is the data-race gate for the pooled execution path;
// under the plain runner it still checks bit-identical results across all
// concurrent reuses.
func TestBatchSharedProgramRace(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g, err := custard.Compile(lang.MustParse("X(i,j) = B(i,k) * C(k,j)"),
		nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 150, 30, 25),
		"C": tensor.UniformRandom("C", rng, 150, 25, 30),
	}
	tensor.QuantizeInts(rng, 7, inputs["B"], inputs["C"])
	want, err := prog.Run(inputs, Options{Engine: EngineComp})
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := prog.Run(inputs, Options{Engine: EngineComp})
			if err == nil {
				err = tensor.IdenticalBits(want.Output, res.Output)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d diverged under shared-program reuse: %v", i, err)
		}
	}
}

// TestEventRunsShareFreeLists runs the reducer shapes on the cycle engines
// from several goroutines at once. Their runs hand the n >= 1 reducer's
// accumulator and the level writers' arrays to one another through core's
// free lists, so every run must still match a lone run of its shape:
// cycles, output bits and every stream's statistics. Under -race it is the data-race gate for those lists.
func TestEventRunsShareFreeLists(t *testing.T) {
	shapes := reduceShapes(t)
	want := make([]string, len(shapes))
	wantOut := make([]*tensor.COO, len(shapes))
	for i, s := range shapes {
		res, err := s.prog.Run(s.inputs, s.opt)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var b strings.Builder
		renderStats(&b, s.name, res)
		want[i], wantOut[i] = b.String(), res.Output
	}
	const goroutines, rounds = 4, 3
	errs := make(chan error, goroutines*rounds*len(shapes))
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(shapes) {
				i := (g + r) % len(shapes)
				s := shapes[i]
				res, err := s.prog.Run(s.inputs, s.opt)
				if err == nil {
					err = tensor.IdenticalBits(wantOut[i], res.Output)
				}
				if err == nil {
					var b strings.Builder
					renderStats(&b, s.name, res)
					if b.String() != want[i] {
						err = fmt.Errorf("statistics differ from a lone run:\n%s\nwant\n%s", b.String(), want[i])
					}
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", s.name, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
