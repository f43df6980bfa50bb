package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"sam/internal/core"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// scalarCOO builds an order-0 operand.
func scalarCOO(name string, v float64) *tensor.COO {
	c := tensor.NewCOO(name)
	c.Append(v)
	return c
}

// runCase compiles, simulates and checks one statement against the gold
// dense evaluator.
func runCase(t *testing.T, expr string, formats lang.Formats, sched lang.Schedule, inputs map[string]*tensor.COO) *Result {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	g, err := custard.Compile(e, formats, sched)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	res, err := Run(g, inputs, Options{})
	if err != nil {
		t.Fatalf("simulate %q: %v", expr, err)
	}
	want, err := lang.Gold(e, inputs)
	if err != nil {
		t.Fatalf("gold %q: %v", expr, err)
	}
	if err := tensor.Equal(res.Output, want, 1e-9); err != nil {
		t.Errorf("%q (order %v): simulator disagrees with gold: %v", expr, sched.LoopOrder, err)
	}
	if res.Cycles <= 0 {
		t.Errorf("%q: nonpositive cycle count %d", expr, res.Cycles)
	}
	return res
}

// randomInputs generates inputs for every access of the statement with the
// given variable dimensions and density.
func randomInputs(t *testing.T, expr string, rng *rand.Rand, dims map[string]int, density float64) map[string]*tensor.COO {
	t.Helper()
	e := lang.MustParse(expr)
	inputs := map[string]*tensor.COO{}
	for _, a := range e.Accesses() {
		if _, ok := inputs[a.Tensor]; ok {
			continue
		}
		if len(a.Idx) == 0 {
			inputs[a.Tensor] = scalarCOO(a.Tensor, rng.Float64()+0.5)
			continue
		}
		ds := make([]int, len(a.Idx))
		for i, v := range a.Idx {
			d, ok := dims[v]
			if !ok {
				t.Fatalf("no dimension for variable %q", v)
			}
			ds[i] = d
		}
		total := 1
		for _, d := range ds {
			total *= d
		}
		nnz := int(density * float64(total))
		if nnz < 1 {
			nnz = 1
		}
		inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, rng, nnz, ds...)
	}
	return inputs
}

// TestEndToEndTable1 simulates every Table 1 expression on random sparse
// inputs and compares against the gold evaluator.
func TestEndToEndTable1(t *testing.T) {
	dims := map[string]int{"i": 13, "j": 11, "k": 9, "l": 7}
	cases := []struct {
		name  string
		expr  string
		order []string
	}{
		{"SpMV", "x(i) = B(i,j) * c(j)", nil},
		{"SpMSpM-ikj", "X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}},
		{"SpMSpM-ijk", "X(i,j) = B(i,k) * C(k,j)", []string{"i", "j", "k"}},
		{"SpMSpM-kij", "X(i,j) = B(i,k) * C(k,j)", []string{"k", "i", "j"}},
		{"SpMSpM-jik", "X(i,j) = B(i,k) * C(k,j)", []string{"j", "i", "k"}},
		{"SpMSpM-jki", "X(i,j) = B(i,k) * C(k,j)", []string{"j", "k", "i"}},
		{"SpMSpM-kji", "X(i,j) = B(i,k) * C(k,j)", []string{"k", "j", "i"}},
		{"SDDMM", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil},
		{"InnerProd", "x = B(i,j,k) * C(i,j,k)", nil},
		{"TTV", "X(i,j) = B(i,j,k) * c(k)", nil},
		{"TTM", "X(i,j,k) = B(i,j,l) * C(k,l)", nil},
		{"MTTKRP", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil},
		{"Residual", "x(i) = b(i) - C(i,j) * d(j)", nil},
		{"MatTransMul", "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", nil},
		{"MMAdd", "X(i,j) = B(i,j) + C(i,j)", nil},
		{"Plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil},
		{"Plus2", "X(i,j,k) = B(i,j,k) + C(i,j,k)", nil},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				density := []float64{0.05, 0.2, 0.6}[seed-1]
				inputs := randomInputs(t, tc.expr, rng, dims, density)
				runCase(t, tc.expr, nil, lang.Schedule{LoopOrder: tc.order}, inputs)
			})
		}
	}
}

// TestEndToEndDenseOperands exercises dense (uncompressed) level formats
// co-iterated against compressed ones.
func TestEndToEndDenseOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := map[string]int{"i": 10, "j": 12, "k": 8}
	t.Run("SpMV-dense-vector", func(t *testing.T) {
		inputs := randomInputs(t, "x(i) = B(i,j) * c(j)", rng, dims, 0.3)
		formats := lang.Formats{"c": lang.Uniform(1, fiber.Dense)}
		runCase(t, "x(i) = B(i,j) * c(j)", formats, lang.Schedule{}, inputs)
	})
	t.Run("SDDMM-dense-factors", func(t *testing.T) {
		inputs := randomInputs(t, "X(i,j) = B(i,j) * C(i,k) * D(j,k)", rng, dims, 0.3)
		formats := lang.Formats{
			"C": lang.Uniform(2, fiber.Dense),
			"D": lang.Uniform(2, fiber.Dense),
		}
		runCase(t, "X(i,j) = B(i,j) * C(i,k) * D(j,k)", formats, lang.Schedule{}, inputs)
	})
	t.Run("SpMV-CSR", func(t *testing.T) {
		inputs := randomInputs(t, "x(i) = B(i,j) * c(j)", rng, dims, 0.3)
		formats := lang.Formats{"B": lang.CSR(2)}
		runCase(t, "x(i) = B(i,j) * c(j)", formats, lang.Schedule{}, inputs)
	})
}

// TestEndToEndLocators exercises the iterate-locate rewrite against dense
// operands (paper Section 4.2).
func TestEndToEndLocators(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := map[string]int{"i": 10, "j": 12, "k": 8}
	inputs := randomInputs(t, "X(i,j) = B(i,j) * C(i,k) * D(j,k)", rng, dims, 0.25)
	formats := lang.Formats{
		"C": lang.Uniform(2, fiber.Dense),
		"D": lang.Uniform(2, fiber.Dense),
	}
	runCase(t, "X(i,j) = B(i,j) * C(i,k) * D(j,k)", formats, lang.Schedule{UseLocators: true}, inputs)

	inputs2 := randomInputs(t, "x(i) = B(i,j) * c(j)", rng, dims, 0.25)
	formats2 := lang.Formats{"c": lang.Uniform(1, fiber.Dense)}
	runCase(t, "x(i) = B(i,j) * c(j)", formats2, lang.Schedule{UseLocators: true}, inputs2)
}

// TestEndToEndSkip exercises the coordinate-skipping (gallop) rewrite.
func TestEndToEndSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dims := map[string]int{"i": 40, "j": 30, "k": 20}
	for _, expr := range []string{
		"x(i) = b(i) * c(i)",
		"X(i,j) = B(i,k) * C(k,j)",
	} {
		inputs := randomInputs(t, expr, rng, dims, 0.2)
		runCase(t, expr, nil, lang.Schedule{UseSkip: true, LoopOrder: nil}, inputs)
	}
}

// TestEndToEndEmptyAndTinyInputs checks degenerate shapes: empty tensors,
// single elements, disjoint supports.
func TestEndToEndEmptyAndTinyInputs(t *testing.T) {
	mk := func(dims []int, pts ...[]int64) *tensor.COO {
		c := tensor.NewCOO("T", dims...)
		for i, p := range pts {
			c.Append(float64(i+1), p...)
		}
		c.Name = "T"
		return c
	}
	t.Run("disjoint-supports-mul", func(t *testing.T) {
		b := mk([]int{6}, []int64{0}, []int64{2})
		b.Name = "b"
		c := mk([]int{6}, []int64{1}, []int64{3})
		c.Name = "c"
		runCase(t, "x(i) = b(i) * c(i)", nil, lang.Schedule{}, map[string]*tensor.COO{"b": b, "c": c})
	})
	t.Run("disjoint-supports-add", func(t *testing.T) {
		b := mk([]int{6}, []int64{0})
		b.Name = "b"
		c := mk([]int{6}, []int64{5})
		c.Name = "c"
		runCase(t, "x(i) = b(i) + c(i)", nil, lang.Schedule{}, map[string]*tensor.COO{"b": b, "c": c})
	})
	t.Run("single-element-matmul", func(t *testing.T) {
		b := mk([]int{4, 4}, []int64{1, 2})
		b.Name = "B"
		c := mk([]int{4, 4}, []int64{2, 3})
		c.Name = "C"
		runCase(t, "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}},
			map[string]*tensor.COO{"B": b, "C": c})
	})
	t.Run("no-matching-k", func(t *testing.T) {
		b := mk([]int{4, 4}, []int64{1, 0})
		b.Name = "B"
		c := mk([]int{4, 4}, []int64{3, 3})
		c.Name = "C"
		runCase(t, "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}},
			map[string]*tensor.COO{"B": b, "C": c})
	})
}

// TestBoundedQueuesBackpressure checks that finite queues still compute the
// right answer, only more slowly (backpressure stalls, paper Section 6.4's
// finite-hardware modeling).
func TestBoundedQueuesBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dims := map[string]int{"i": 16, "j": 14, "k": 10}
	expr := "X(i,j) = B(i,k) * C(k,j)"
	inputs := randomInputs(t, expr, rng, dims, 0.25)

	e := lang.MustParse(expr)
	g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := Run(g, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Run(g, inputs, Options{QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tensor.Equal(unbounded.Output, bounded.Output, 1e-9); err != nil {
		t.Errorf("bounded queues changed the result: %v", err)
	}
	if bounded.Cycles < unbounded.Cycles {
		t.Errorf("bounded queues ran faster (%d) than unbounded (%d)", bounded.Cycles, unbounded.Cycles)
	}
}

// TestStreamStatsAccounting checks the Figure 14 bookkeeping invariant:
// data + stop + done + empty + idle equals total cycles on every monitored
// stream.
// streamCycles is the number of cycles a stream's statistics account for:
// one per token the wire carried, plus its idle cycles.
func streamCycles(s *core.StreamStats) int64 { return s.Data + s.Stop + s.Empty + s.Done + s.Idle }

func TestStreamStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dims := map[string]int{"i": 12, "j": 10}
	expr := "X(i,j) = B(i,j)"
	inputs := randomInputs(t, expr, rng, dims, 0.3)
	res := runCase(t, expr, nil, lang.Schedule{}, inputs)
	if len(res.Streams) == 0 {
		t.Fatal("no stream statistics collected")
	}
	for label, s := range res.Streams {
		if got := streamCycles(s); got != int64(res.Cycles) {
			t.Errorf("stream %q accounts %d cycles, want %d", label, got, res.Cycles)
		}
	}
}

// TestEndToEndBitvector exercises the bitvector pipelines of Figure 13: the
// flat order-1 "BV" configuration and the order-2 bit-tree "BV w/ split".
func TestEndToEndBitvector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	expr := "x(i) = b(i) * c(i)"
	e := lang.MustParse(expr)
	b := tensor.UniformRandom("b", rng, 40, 200)
	c := tensor.UniformRandom("c", rng, 40, 200)
	inputs := map[string]*tensor.COO{"b": b, "c": c}
	want, err := lang.Gold(e, inputs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flat", func(t *testing.T) {
		g, err := custard.CompileBitvector(e, lang.Formats{
			"b": lang.Uniform(1, fiber.Bitvector),
			"c": lang.Uniform(1, fiber.Bitvector),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, inputs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.Equal(res.Output, want, 1e-9); err != nil {
			t.Errorf("flat bitvector result: %v", err)
		}
	})

	t.Run("bit-tree", func(t *testing.T) {
		bs, err := b.Split("b", 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := c.Split("c", 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		e2 := lang.MustParse("x(i0,i1) = b(i0,i1) * c(i0,i1)")
		g, err := custard.CompileBitvector(e2, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, map[string]*tensor.COO{"b": bs, "c": cs}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Unsplit the result to compare against the flat gold.
		flat := tensor.NewCOO("x", 200)
		chunk := int64(bs.Dims[1])
		for _, p := range res.Output.Pts {
			flat.Append(p.Val, p.Crd[0]*chunk+p.Crd[1])
		}
		flat.Sort()
		if err := tensor.Equal(flat, want, 1e-9); err != nil {
			t.Errorf("bit-tree result: %v", err)
		}
	})
}

// TestEndToEndRepeatedTensor checks that a tensor used twice (X = B * B)
// binds as two independent operands with separate mode orders.
func TestEndToEndRepeatedTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	b := tensor.UniformRandom("B", rng, 60, 15, 15)
	inputs := map[string]*tensor.COO{"B": b}
	runCase(t, "X(i,j) = B(i,k) * B(k,j)", nil,
		lang.Schedule{LoopOrder: []string{"i", "k", "j"}}, inputs)
	runCase(t, "x = B(i,j) * B(i,j)", nil, lang.Schedule{}, inputs)
}

// TestEndToEndLinkedListRoundTrip writes an output with a linked-list level
// and feeds it back through another kernel.
func TestEndToEndLinkedListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	b := tensor.UniformRandom("B", rng, 80, 20, 16)
	c := tensor.UniformRandom("C", rng, 80, 16, 20)
	formats := lang.Formats{
		"Y": {Levels: []fiber.Format{fiber.Compressed, fiber.LinkedList, fiber.Compressed}},
	}
	e := lang.MustParse("Y(i,k,j) = B(i,k) * C(k,j)")
	g, err := custard.Compile(e, formats, lang.Schedule{LoopOrder: []string{"k", "i", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, map[string]*tensor.COO{"B": b, "C": c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lang.Gold(e, map[string]*tensor.COO{"B": b, "C": c})
	if err != nil {
		t.Fatal(err)
	}
	if err := tensor.Equal(res.Output, want, 1e-9); err != nil {
		t.Fatalf("multiply phase: %v", err)
	}
	// Merge phase consumes the intermediate through linked-list storage.
	runCase(t, "X(i,j) = Y(i,k,j)", formats, lang.Schedule{},
		map[string]*tensor.COO{"Y": res.Output})
}
