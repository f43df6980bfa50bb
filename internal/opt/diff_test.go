package opt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// The differential battery's correctness bar is bitwise COO equality
// (tensor.IdenticalBits), not tolerance equality: optimizer rewrites may
// not change the output stream in any observable way, down to point order
// and explicit values. Inputs are quantized to small integers (the PR 2
// lane-battery generator, now shared as tensor.QuantizeInts) so
// reassociated float sums stay exact.
func identical(a, b *tensor.COO) error {
	return tensor.IdenticalBits(a, b)
}

// randomInputs draws integer-exact inputs for a statement. Dimensions come
// from dimOf so repeated variables (and repeated tensors) stay consistent.
func randomInputs(rng *rand.Rand, e *lang.Einsum, dimOf func(v string) int) map[string]*tensor.COO {
	inputs := map[string]*tensor.COO{}
	for _, a := range e.Accesses() {
		if _, ok := inputs[a.Tensor]; ok {
			continue
		}
		if len(a.Idx) == 0 {
			s := tensor.NewCOO(a.Tensor)
			s.Append(float64(rng.Intn(5) + 1))
			inputs[a.Tensor] = s
			continue
		}
		ds := make([]int, len(a.Idx))
		total := 1
		for i, v := range a.Idx {
			ds[i] = dimOf(v)
			total *= ds[i]
		}
		t := tensor.UniformRandom(a.Tensor, rng, total/5+1, ds...)
		tensor.QuantizeInts(rng, 7, t)
		inputs[a.Tensor] = t
	}
	return inputs
}

// runDifferential compiles one (expr, formats, schedule) configuration at O0
// and O1 and demands: never more blocks, never more simulated cycles on the
// cycle engines, and bitwise-identical outputs across every supporting
// engine and the requested Par lane counts.
func runDifferential(t *testing.T, name, expr string, formats lang.Formats, sched lang.Schedule, lanes []int, inputs map[string]*tensor.COO) {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	for _, par := range lanes {
		s0 := sched
		s0.Par = par
		s0.Opt = 0
		g0, err := custard.Compile(e, formats, s0)
		if err != nil {
			if par > 1 {
				continue // kernel not parallelizable under this loop order
			}
			t.Fatalf("%s: compile O0: %v", name, err)
		}
		s1 := s0
		s1.Opt = 1
		g1, err := custard.Compile(e, formats, s1)
		if err != nil {
			t.Fatalf("%s par%d: compile O1 failed where O0 compiled: %v", name, par, err)
		}
		if len(g1.Nodes) > len(g0.Nodes) {
			t.Errorf("%s par%d: O1 grew the graph %d -> %d nodes", name, par, len(g0.Nodes), len(g1.Nodes))
		}
		var ref *tensor.COO
		for _, eng := range sim.Engines() {
			r0, err0 := sim.Run(g0, inputs, sim.Options{Engine: eng})
			r1, err1 := sim.Run(g1, inputs, sim.Options{Engine: eng})
			if err0 != nil || err1 != nil {
				t.Errorf("%s par%d %s: a compiled graph failed to run: O0 err=%v, O1 err=%v", name, par, eng, err0, err1)
				continue
			}
			if err := identical(r0.Output, r1.Output); err != nil {
				t.Errorf("%s par%d %s: O1 output differs from O0: %v", name, par, eng, err)
			}
			if r1.Cycles > r0.Cycles {
				t.Errorf("%s par%d %s: O1 slower: %d cycles vs %d", name, par, eng, r1.Cycles, r0.Cycles)
			}
			if ref == nil {
				ref = r0.Output
			} else if err := identical(r1.Output, ref); err != nil {
				t.Errorf("%s par%d %s: output differs across engines/lanes: %v", name, par, eng, err)
			}
		}
	}
}

// TestOptDifferentialKernels is the fixed half of the battery: every paper
// kernel plus the repeated-operand shapes the optimizer exists for, across
// formats, schedules, engines, and Par∈{1,2,4}.
func TestOptDifferentialKernels(t *testing.T) {
	csr2 := lang.Formats{"B": lang.CSR(2)}
	dense1 := lang.Formats{"c": lang.Uniform(1, fiber.Dense)}
	cases := []struct {
		name    string
		expr    string
		formats lang.Formats
		sched   lang.Schedule
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}},
		{"spmv-csr", "x(i) = B(i,j) * c(j)", csr2, lang.Schedule{}},
		{"spmv-skip", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{UseSkip: true}},
		{"spmv-locate", "x(i) = B(i,j) * c(j)", dense1, lang.Schedule{UseLocators: true}},
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{"spmspm-ijk", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
		{"spmspm-kij", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"k", "i", "j"}}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, lang.Schedule{}},
		{"ttv", "X(i,j) = B(i,j,k) * c(k)", nil, lang.Schedule{}},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil, lang.Schedule{}},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, lang.Schedule{}},
		{"innerprod", "x = B(i,j,k) * C(i,j,k)", nil, lang.Schedule{}},
		{"residual", "x(i) = b(i) - C(i,j) * d(j)", nil, lang.Schedule{}},
		{"mattransmul", "x(i) = alpha * Bt(i,j) * c(j) + beta * d(i)", nil, lang.Schedule{}},
		{"mmadd", "X(i,j) = B(i,j) + C(i,j)", nil, lang.Schedule{}},
		{"plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil, lang.Schedule{}},
		// Repeated-operand shapes: dedup and mergefuse territory.
		{"hadamard-square", "X(i,j) = B(i,j) * B(i,j)", nil, lang.Schedule{}},
		{"double-broadcast", "x(i) = B(i,j) * c(j) * c(j)", nil, lang.Schedule{}},
		{"add-self-product", "X(i,j) = B(i,j) + B(i,j) * B(i,j)", nil, lang.Schedule{}},
	}
	dims := map[string]int{"i": 24, "j": 20, "k": 14, "l": 10}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		inputs := randomInputs(rng, e, func(v string) int { return dims[v] })
		runDifferential(t, tc.name, tc.expr, tc.formats, tc.sched, []int{1, 2, 4}, inputs)
	}
}

// TestOptDifferentialEmptyResults drives the all-empty shapes the bypassed
// droppers used to clean up: disjoint operand supports make every
// intersection empty, so whole output fibers vanish at every level.
func TestOptDifferentialEmptyResults(t *testing.T) {
	cases := []struct {
		name  string
		expr  string
		order []string
	}{
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil},
	}
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		inputs := map[string]*tensor.COO{}
		for n, a := range e.Accesses() {
			ds := make([]int, len(a.Idx))
			crd := make([]int64, len(a.Idx))
			for i := range ds {
				ds[i] = 8
				crd[i] = int64(n % 2) // disjoint even/odd supports
			}
			tt := tensor.NewCOO(a.Tensor, ds...)
			tt.Append(float64(n+1), crd...)
			inputs[a.Tensor] = tt
		}
		runDifferential(t, tc.name+"-empty", tc.expr, nil, lang.Schedule{LoopOrder: tc.order}, []int{1, 4}, inputs)
	}
}

// randomCase derives one fuzz configuration from a seed: an expression from
// the template pool (several with repeated tensors), random dimensions, a
// random loop-order permutation, and random Par / skip toggles.
func randomCase(seed int64) (name, expr string, sched lang.Schedule, inputs map[string]*tensor.COO) {
	rng := rand.New(rand.NewSource(seed))
	pool := []string{
		"x(i) = B(i,j) * c(j)",
		"X(i,j) = B(i,k) * C(k,j)",
		"X(i,j) = B(i,j) * C(i,j)",
		"X(i,j) = B(i,j) * B(i,j)",
		"X(i,j) = B(i,j) + C(i,j) + B(i,j)",
		"x(i) = B(i,j) * c(j) * c(j)",
		"X(i,j) = B(i,j,k) * c(k)",
		"x = B(i,j) * C(i,j)",
		"x(i) = b(i) + C(i,j) * d(j)",
		"X(i,j) = B(i,j) * C(i,k) * D(j,k)",
		"X(i,j) = B(i,j) + B(i,j) * C(i,j)",
		"x(i) = alpha * B(i,j) * c(j) + alpha * d(i)",
		"X(i,j,k) = B(i,j,l) * C(k,l)",
		"X(i,j) = B(i,k,l) * C(k,j) * D(l,j)",
	}
	expr = pool[rng.Intn(len(pool))]
	e := lang.MustParse(expr)
	vars := e.AllVars()
	order := append([]string(nil), vars...)
	// Redraw the orders custard refuses (a partial reduction iterated
	// outside a wider variable): no engine runs them, so there is nothing
	// to compare.
	for {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		if _, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order}); err == nil {
			break
		}
	}
	sched = lang.Schedule{LoopOrder: order}
	if rng.Intn(3) == 0 {
		sched.UseSkip = true
	}
	dims := map[string]int{}
	for _, v := range vars {
		dims[v] = 4 + rng.Intn(9)
	}
	inputs = randomInputs(rng, e, func(v string) int { return dims[v] })
	name = fmt.Sprintf("seed%d:%s:%v", seed, expr, order)
	return name, expr, sched, inputs
}

// TestOptDifferentialRandom is the randomized half of the battery: 60
// seeded random (expression, schedule, data) draws, each checked across
// engines and lanes like the fixed kernels.
func TestOptDifferentialRandom(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := int64(0); seed < int64(n); seed++ {
		name, expr, sched, inputs := randomCase(seed)
		runDifferential(t, name, expr, nil, sched, []int{1, rand.New(rand.NewSource(seed)).Intn(3) + 2}, inputs)
	}
}

// FuzzOptDifferential lets go fuzz explore the configuration space beyond
// the seeded draws: the fuzzer picks the case seed and a lane count, and
// every crash or output mismatch is a genuine optimizer bug. Run with
// go test -fuzz=FuzzOptDifferential ./internal/opt; the seed corpus runs as
// a regular test.
func FuzzOptDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(7), uint8(2))
	f.Add(int64(23), uint8(4))
	f.Add(int64(77), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, lanes uint8) {
		par := int(lanes%4) + 1
		name, expr, sched, inputs := randomCase(seed)
		e := lang.MustParse(expr)
		s0 := sched
		s0.Par = par
		g0, err := custard.Compile(e, nil, s0)
		if err != nil {
			return // not parallelizable under this order; nothing to compare
		}
		s1 := s0
		s1.Opt = 1
		g1, err := custard.Compile(e, nil, s1)
		if err != nil {
			t.Fatalf("%s par%d: O1 failed where O0 compiled: %v", name, par, err)
		}
		if err := g1.Validate(); err != nil {
			t.Fatalf("%s par%d: O1 graph invalid: %v", name, par, err)
		}
		r0, err := sim.Run(g0, inputs, sim.Options{})
		if err != nil {
			t.Fatalf("%s par%d: O0 run: %v", name, par, err)
		}
		r1, err := sim.Run(g1, inputs, sim.Options{})
		if err != nil {
			t.Fatalf("%s par%d: O1 run failed where O0 ran: %v", name, par, err)
		}
		if err := identical(r0.Output, r1.Output); err != nil {
			t.Fatalf("%s par%d: outputs differ: %v", name, par, err)
		}
	})
}

// TestOptPreservesStreamMonitoring checks the optimized graph still builds a
// Program and reports per-stream statistics (the serving and Figure 14
// paths), with one monitored stream per live fan-out group.
func TestOptPreservesStreamMonitoring(t *testing.T) {
	g := compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 1)
	p, err := sim.NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := tensor.UniformRandom("B", rng, 40, 12, 12)
	tensor.QuantizeInts(rng, 7, b)
	res, err := p.Run(map[string]*tensor.COO{"B": b}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) == 0 {
		t.Error("optimized program reports no stream statistics")
	}
	for label := range res.Streams {
		if label == "" {
			t.Error("empty stream label")
		}
	}
}
