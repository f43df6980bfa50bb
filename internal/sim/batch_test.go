package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// TestRunBatchPerJob checks a mixed batch under the comp engine: every
// successful job has a result recording the engine that actually executed
// it — comp for lowerable graphs, event for the bitvector fallback — every
// failed job has a nil result, and the returned error is the first failure
// in job order, naming its own job.
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
		{Name: "ok-fallback", Graph: bv, Inputs: bvIn},
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
	wantEngine := map[int]EngineKind{0: EngineComp, 2: EngineEvent, 4: EngineComp}
	for i := range jobs {
		eng, wantOK := wantEngine[i]
		if !wantOK {
			if results[i] != nil {
				t.Errorf("job %d (%s): result = %v, want nil for a failed job", i, jobs[i].Name, results[i])
			}
			continue
		}
		if results[i] == nil {
			t.Errorf("job %d (%s): nil result, want success", i, jobs[i].Name)
			continue
		}
		if results[i].Engine != eng {
			t.Errorf("job %d (%s): Result.Engine = %q, want %q", i, jobs[i].Name, results[i].Engine, eng)
		}
	}

	// A nil graph fails its own job, by name.
	if _, err := RunBatch(jobs[3:], Options{Engine: EngineComp}); err == nil || !strings.Contains(err.Error(), "bad-nil-graph") {
		t.Errorf("error = %v, want the nil-graph job's failure, naming bad-nil-graph", err)
	}
}

// TestBatchSharedProgramRace hammers one cached Program — one lazily built
// comp lowering over the shared run-context free list — from every batch
// worker at once.
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
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("shared-%d", i), Program: prog, Inputs: inputs}
	}
	results, err := RunBatch(jobs, Options{Engine: EngineComp, Workers: 8})
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	for i, res := range results {
		if res.Engine != EngineComp {
			t.Errorf("job %d: Result.Engine = %q, want %q", i, res.Engine, EngineComp)
		}
		if err := tensor.IdenticalBits(want.Output, res.Output); err != nil {
			t.Errorf("job %d output diverged under shared-program reuse: %v", i, err)
		}
	}
}
