package comp_test

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

// The compiled engine's correctness bar is bitwise COO equality against the
// event engine (tensor.IdenticalBits): lowering to merged loops may not
// change the output stream in any observable way, down to point order and
// explicit values. Inputs are quantized to small integers so reassociated
// float sums stay exact.

// randomInputs draws integer-exact inputs for a statement.
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

// runDifferential compiles one (expr, formats, schedule) configuration at
// every requested (opt, par) point and demands the compiled engine's output
// be bitwise identical to the event engine's, and the event engine's equal to
// the gold model's. A graph custard accepted must run: a failure on either
// engine fails the test, on both as much as on one — engines that agree on a
// failure (or on a wrong answer) are not correct for agreeing.
func runDifferential(t *testing.T, name, expr string, formats lang.Formats, sched lang.Schedule, lanes []int, inputs map[string]*tensor.COO) {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	want, err := lang.Gold(e, inputs)
	if err != nil {
		t.Fatalf("%s: gold: %v", name, err)
	}
	for _, par := range lanes {
		for _, opt := range []int{0, 1} {
			s := sched
			s.Par = par
			s.Opt = opt
			g, err := custard.Compile(e, formats, s)
			if err != nil {
				if par > 1 {
					continue // kernel not parallelizable under this loop order
				}
				t.Fatalf("%s O%d: compile: %v", name, opt, err)
			}
			ref, errRef := sim.Run(g, inputs, sim.Options{Engine: sim.EngineEvent})
			got, errGot := sim.Run(g, inputs, sim.Options{Engine: sim.EngineComp})
			if errRef != nil || errGot != nil {
				t.Errorf("%s par%d O%d: a compiled graph failed to run: event err=%v, comp err=%v", name, par, opt, errRef, errGot)
				continue
			}
			if err := tensor.Equal(ref.Output, want, 1e-9); err != nil {
				t.Errorf("%s par%d O%d: event output differs from gold: %v", name, par, opt, err)
			}
			if got.Cycles != 0 {
				t.Errorf("%s par%d O%d: comp reported %d cycles, want 0 (no cycle model)", name, par, opt, got.Cycles)
			}
			if err := tensor.IdenticalBits(ref.Output, got.Output); err != nil {
				t.Errorf("%s par%d O%d: comp output differs from event: %v", name, par, opt, err)
			}
		}
	}
}

// TestCompDifferentialKernels is the fixed half of the battery: every paper
// kernel plus gallop, locator, format and deep-reduction shapes, across
// Opt ∈ {0, 1} and Par ∈ {1, 2, 4, 8}.
func TestCompDifferentialKernels(t *testing.T) {
	csr2 := lang.Formats{"B": lang.CSR(2)}
	dense1 := lang.Formats{"c": lang.Uniform(1, fiber.Dense)}
	llOut := lang.Formats{"X": lang.Uniform(2, fiber.LinkedList)}
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
		{"spmspm-skip", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}, UseSkip: true}},
		{"spmspm-llout", "X(i,j) = B(i,k) * C(k,j)", llOut, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, lang.Schedule{}},
		{"ttv", "X(i,j) = B(i,j,k) * c(k)", nil, lang.Schedule{}},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil, lang.Schedule{}},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, lang.Schedule{}},
		{"innerprod", "x = B(i,j,k) * C(i,j,k)", nil, lang.Schedule{}},
		{"residual", "x(i) = b(i) - C(i,j) * d(j)", nil, lang.Schedule{}},
		{"mattransmul", "x(i) = alpha * Bt(i,j) * c(j) + beta * d(i)", nil, lang.Schedule{}},
		{"mmadd", "X(i,j) = B(i,j) + C(i,j)", nil, lang.Schedule{}},
		{"plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil, lang.Schedule{}},
		{"hadamard-square", "X(i,j) = B(i,j) * B(i,j)", nil, lang.Schedule{}},
		// A reduction scheduled outside three kept variables exercises the
		// general n-dimensional reducer (n = 3), which only the cycle and
		// compiled engines implement.
		{"deep-reduce", "X(i,j,k) = B(i,j,k,l) * c(l)", nil, lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}}},
	}
	dims := map[string]int{"i": 24, "j": 20, "k": 14, "l": 10}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		inputs := randomInputs(rng, e, func(v string) int { return dims[v] })
		runDifferential(t, tc.name, tc.expr, tc.formats, tc.sched, []int{1, 2, 4, 8}, inputs)
	}
}

// TestCompDifferentialEmptyResults drives all-empty shapes: disjoint operand
// supports make every intersection empty, so whole output fibers vanish at
// every level — the shapes where writer/normalization behavior diverges
// first.
func TestCompDifferentialEmptyResults(t *testing.T) {
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
		runDifferential(t, tc.name+"-empty", tc.expr, nil, lang.Schedule{LoopOrder: tc.order}, []int{1, 4, 8}, inputs)
	}
}

// randomCase derives one fuzz configuration from a seed: an expression from
// the template pool, random dimensions, a random loop-order permutation, and
// random skip/opt toggles.
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
		"X(i,j,k) = B(i,j,k,l) * c(l)",
		"X(i,j,k) = B(l,i,k) * C(l,j,k)",
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

// TestCompDifferentialRandom is the randomized half of the battery: 60
// seeded random (expression, schedule, data) draws, each checked across
// Opt ∈ {0,1} and two lane counts like the fixed kernels.
func TestCompDifferentialRandom(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := int64(0); seed < int64(n); seed++ {
		name, expr, sched, inputs := randomCase(seed)
		runDifferential(t, name, expr, nil, sched, []int{1, rand.New(rand.NewSource(seed)).Intn(3) + 2}, inputs)
	}
}

// TestLoopOrderSweep runs every loop order custard accepts for expressions
// whose reductions can empty an output fiber: an intersected reduction
// variable scheduled between two output variables leaves outer coordinates
// with nothing below them, which only a dropper on each such level keeps the
// level writers from storing as phantom fibers. Each order runs at six seeds
// with dimensions 2–5 (small enough that empty fibers are common), at Par
// {1, 2} × Opt {0, 1}.
func TestLoopOrderSweep(t *testing.T) {
	exprs := []string{
		"X(i,j,k) = B(i,j,l) * C(k,l)",
		"X(i,j,k) = B(i,l,j) * C(l,k)",
		"X(i,j,k) = B(l,j,k) * C(i,l)",
		"X(i,j) = B(i,k,l) * C(k,j) * D(l,j)",
		"X(i,j) = B(i,k) * C(k,j) * D(i,j)",
		"X(i,j) = B(i,k) * C(k,l) * D(l,j)",
		"X(i,j,k,m) = B(i,j,l) * C(k,m,l)",
	}
	for _, expr := range exprs {
		e := lang.MustParse(expr)
		for _, order := range permutations(e.AllVars()) {
			sched := lang.Schedule{LoopOrder: order}
			if _, err := custard.Compile(e, nil, sched); err != nil {
				continue // an order custard refuses has nothing to run
			}
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				dims := map[string]int{}
				for _, v := range e.AllVars() {
					dims[v] = 2 + rng.Intn(4)
				}
				inputs := randomInputs(rng, e, func(v string) int { return dims[v] })
				runDifferential(t, fmt.Sprintf("seed%d:%s:%v", seed, expr, order), expr, nil, sched, []int{1, 2}, inputs)
			}
		}
	}
}

// permutations lists every ordering of vars.
func permutations(vars []string) [][]string {
	if len(vars) <= 1 {
		return [][]string{append([]string(nil), vars...)}
	}
	var out [][]string
	for i, v := range vars {
		rest := append(append([]string(nil), vars[:i]...), vars[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{v}, p...))
		}
	}
	return out
}

// FuzzCompDifferential lets go fuzz explore the configuration space beyond
// the seeded draws: the fuzzer picks the case seed, a lane count and the
// optimization level, and every crash or output mismatch is a genuine
// compiled-engine bug. Run with go test -fuzz=FuzzCompDifferential
// ./internal/comp; the seed corpus runs as a regular test.
func FuzzCompDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(7), uint8(2), uint8(1))
	f.Add(int64(23), uint8(4), uint8(0))
	f.Add(int64(77), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, lanes, optLevel uint8) {
		par := 1 << (lanes % 4) // 1, 2, 4 or 8 lanes
		name, expr, sched, inputs := randomCase(seed)
		e := lang.MustParse(expr)
		s := sched
		s.Par = par
		s.Opt = int(optLevel % 2)
		g, err := custard.Compile(e, nil, s)
		if err != nil {
			return // not parallelizable under this order; nothing to compare
		}
		ref, err := sim.Run(g, inputs, sim.Options{Engine: sim.EngineEvent})
		if err != nil {
			t.Fatalf("%s par%d O%d: event run of a compiled graph failed: %v", name, par, s.Opt, err)
		}
		got, err := sim.Run(g, inputs, sim.Options{Engine: sim.EngineComp})
		if err != nil {
			t.Fatalf("%s par%d O%d: comp run failed where event ran: %v", name, par, s.Opt, err)
		}
		if err := tensor.IdenticalBits(ref.Output, got.Output); err != nil {
			t.Fatalf("%s par%d O%d: outputs differ: %v", name, par, s.Opt, err)
		}
	})
}
