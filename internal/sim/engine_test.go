package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// corpusCase is one compiled statement + inputs for differential testing.
type corpusCase struct {
	name    string
	expr    string
	formats lang.Formats
	sched   lang.Schedule
	opt     Options
}

// engineCorpus is the battery the engines are differentially tested over:
// the Table 1 kernel shapes under several loop orders, formats, and queue
// capacities (bounded queues exercise the backpressure wakeup path).
func engineCorpus() []corpusCase {
	var out []corpusCase
	exprs := []struct {
		expr  string
		order []string
	}{
		{"x(i) = B(i,j) * c(j)", nil},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "j", "k"}},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"k", "i", "j"}},
		{"X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil},
		{"x = B(i,j,k) * C(i,j,k)", nil},
		{"X(i,j) = B(i,j,k) * c(k)", nil},
		{"X(i,j,k) = B(i,j,l) * C(k,l)", nil},
		{"X(i,j) = B(i,j) + C(i,j)", nil},
		{"X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil},
		{"x(i) = b(i) - C(i,j) * d(j)", nil},
		{"x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", nil},
	}
	for _, e := range exprs {
		out = append(out, corpusCase{
			name:  e.expr,
			expr:  e.expr,
			sched: lang.Schedule{LoopOrder: e.order},
		})
	}
	// Format variants and the skip/locate rewrites on the SpMV shape.
	out = append(out,
		corpusCase{
			name: "spmv csr", expr: "x(i) = B(i,j) * c(j)",
			formats: lang.Formats{"B": lang.CSR(2), "c": lang.Uniform(1, fiber.Dense)},
		},
		corpusCase{
			name: "spmv linkedlist", expr: "x(i) = B(i,j) * c(j)",
			formats: lang.Formats{"B": lang.Format{Levels: []fiber.Format{fiber.Compressed, fiber.LinkedList}}},
		},
		corpusCase{
			name: "elementwise skip", expr: "x(i) = b(i) * c(i)",
			sched: lang.Schedule{UseSkip: true},
		},
		corpusCase{
			name: "spmv locators", expr: "x(i) = B(i,j) * c(j)",
			formats: lang.Formats{"c": lang.Uniform(1, fiber.Dense)},
			sched:   lang.Schedule{UseLocators: true},
		},
		// Bounded queues: backpressure makes producers block on full
		// queues, exercising the pop-wakeup path of the event scheduler.
		corpusCase{
			name: "spmm cap2", expr: "X(i,j) = B(i,k) * C(k,j)",
			sched: lang.Schedule{LoopOrder: []string{"i", "k", "j"}},
			opt:   Options{QueueCap: 2},
		},
		corpusCase{
			name: "spmm cap8", expr: "X(i,j) = B(i,k) * C(k,j)",
			sched: lang.Schedule{LoopOrder: []string{"k", "i", "j"}},
			opt:   Options{QueueCap: 8},
		},
		corpusCase{
			name: "sddmm cap4", expr: "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
			opt: Options{QueueCap: 4},
		},
	)
	return out
}

// corpusInputs draws random inputs for a statement's operands.
func corpusInputs(expr string, seed int64) (map[string]*tensor.COO, *lang.Einsum) {
	dims := map[string]int{"i": 11, "j": 9, "k": 8, "l": 6}
	rng := rand.New(rand.NewSource(seed))
	e := lang.MustParse(expr)
	inputs := map[string]*tensor.COO{}
	for _, a := range e.Accesses() {
		if _, ok := inputs[a.Tensor]; ok {
			continue
		}
		if len(a.Idx) == 0 {
			s := tensor.NewCOO(a.Tensor)
			s.Append(rng.Float64() + 0.5)
			inputs[a.Tensor] = s
			continue
		}
		ds := make([]int, len(a.Idx))
		total := 1
		for i, v := range a.Idx {
			ds[i] = dims[v]
			total *= ds[i]
		}
		nnz := total / 5
		if nnz < 1 {
			nnz = 1
		}
		inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, rng, nnz, ds...)
	}
	return inputs, e
}

// TestEngineEquivalence asserts the event-driven ready-set scheduler
// produces byte-identical outputs, identical cycle counts, and identical
// per-stream statistics to the naive tick-all reference loop over the whole
// corpus.
func TestEngineEquivalence(t *testing.T) {
	for _, tc := range engineCorpus() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				inputs, e := corpusInputs(tc.expr, seed*17)
				g, err := custard.Compile(e, tc.formats, tc.sched)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				naiveOpt := tc.opt
				naiveOpt.Engine = EngineNaive
				want, err := Run(g, inputs, naiveOpt)
				if err != nil {
					t.Fatalf("naive: %v", err)
				}
				eventOpt := tc.opt
				eventOpt.Engine = EngineEvent
				got, err := Run(g, inputs, eventOpt)
				if err != nil {
					t.Fatalf("event: %v", err)
				}
				if got.Cycles != want.Cycles {
					t.Errorf("cycles: event %d, naive %d", got.Cycles, want.Cycles)
				}
				if !reflect.DeepEqual(got.Output, want.Output) {
					t.Errorf("outputs differ:\n event %v\n naive %v", got.Output, want.Output)
				}
				if len(got.Streams) != len(want.Streams) {
					t.Fatalf("stream sets differ: %d vs %d", len(got.Streams), len(want.Streams))
				}
				for label, ws := range want.Streams {
					gs, ok := got.Streams[label]
					if !ok {
						t.Errorf("stream %q missing from event run", label)
						continue
					}
					if *gs != *ws {
						t.Errorf("stream %q stats: event %+v, naive %+v", label, *gs, *ws)
					}
				}
				// The compiled engine must agree on the output (no cycle
				// counts to compare); every graph here lowers to comp.
				compOpt := tc.opt
				compOpt.Engine = EngineComp
				cres, err := Run(g, inputs, compOpt)
				if err != nil {
					t.Fatalf("comp: %v", err)
				}
				if err := tensor.Equal(cres.Output, want.Output, 1e-9); err != nil {
					t.Errorf("comp output disagrees: %v", err)
				}
			})
		}
	}
}

// TestEngineEquivalenceErrors checks that both cycle engines agree on
// failure behavior: a cycle-limit abort reports the same cycle count.
func TestEngineEquivalenceErrors(t *testing.T) {
	inputs, e := corpusInputs("X(i,j) = B(i,k) * C(k,j)", 7)
	g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	_, errNaive := Run(g, inputs, Options{MaxCycles: 50, Engine: EngineNaive})
	_, errEvent := Run(g, inputs, Options{MaxCycles: 50, Engine: EngineEvent})
	if errNaive == nil || errEvent == nil {
		t.Fatalf("expected cycle-limit errors, got naive=%v event=%v", errNaive, errEvent)
	}
	if errNaive.Error() != errEvent.Error() {
		t.Errorf("limit errors differ:\n naive: %v\n event: %v", errNaive, errEvent)
	}
}

// TestRunBatchMatchesSequential checks the batch runner returns results
// identical to sequential Run calls, in job order.
func TestRunBatchMatchesSequential(t *testing.T) {
	var jobs []Job
	var seq []*Result
	for _, tc := range engineCorpus()[:8] {
		inputs, e := corpusInputs(tc.expr, 23)
		g, err := custard.Compile(e, tc.formats, tc.sched)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.name, err)
		}
		res, err := Run(g, inputs, Options{})
		if err != nil {
			t.Fatalf("sequential %s: %v", tc.name, err)
		}
		jobs = append(jobs, Job{Name: tc.name, Graph: g, Inputs: inputs})
		seq = append(seq, res)
	}
	for _, workers := range []int{1, 3, 16} {
		batch, err := RunBatch(jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("batch workers=%d: %v", workers, err)
		}
		for i := range jobs {
			if batch[i].Cycles != seq[i].Cycles {
				t.Errorf("workers=%d %s: cycles %d vs sequential %d", workers, jobs[i].Name, batch[i].Cycles, seq[i].Cycles)
			}
			if !reflect.DeepEqual(batch[i].Output, seq[i].Output) {
				t.Errorf("workers=%d %s: outputs differ", workers, jobs[i].Name)
			}
		}
	}
}

// TestTTMReductionBeforeKEmptyFibers schedules TTM with the intersected
// reduction variable l between output variables, over a C with no row k=1:
// some (i,l) pairs meet nothing, so the reducer closes empty fibers that no
// surviving coordinate above them owns. Without a dropper on each output
// level below l, the writers store them as phantom fibers and assembly fails
// (`level 2 has 2 fibers, want 1`) on every engine alike, at every Opt level.
func TestTTMReductionBeforeKEmptyFibers(t *testing.T) {
	e := lang.MustParse("X(i,j,k) = B(i,j,l) * C(k,l)")
	b := tensor.NewCOO("B", 2, 3, 2)
	b.Append(2, 0, 1, 0)
	b.Append(4, 0, 2, 1)
	b.Append(2, 1, 0, 1)
	c := tensor.NewCOO("C", 3, 2)
	c.Append(7, 0, 0)
	c.Append(5, 2, 0)
	inputs := map[string]*tensor.COO{"B": b, "C": c}
	want, err := lang.Gold(e, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]string{{"i", "l", "j", "k"}, {"i", "l", "k", "j"}, {"j", "l", "i", "k"}} {
		for opt := 0; opt <= 1; opt++ {
			g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order, Opt: opt})
			if err != nil {
				t.Fatalf("order %v O%d: %v", order, opt, err)
			}
			for _, eng := range Engines() {
				res, err := Run(g, inputs, Options{Engine: eng})
				if err != nil {
					t.Errorf("order %v O%d %s: %v", order, opt, eng, err)
					continue
				}
				if err := tensor.Equal(res.Output, want, 0); err != nil {
					t.Errorf("order %v O%d %s: %v", order, opt, eng, err)
				}
			}
		}
	}
}
