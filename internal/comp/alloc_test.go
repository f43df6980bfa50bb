package comp_test

import (
	"math/rand"
	"testing"

	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// smallInputs draws deterministic integer operands for a statement at the
// alloc tests' fixed small dimensions.
func smallInputs(expr string, seed int64) map[string]*tensor.COO {
	dims := map[string]int{"i": 48, "j": 40, "k": 24, "l": 12}
	rng := rand.New(rand.NewSource(seed))
	return randomInputs(rng, lang.MustParse(expr), func(v string) int { return dims[v] })
}

// compileCase lowers one (expr, schedule) configuration to a compiled
// program with its operand binding, from smallInputs.
func compileCase(t testing.TB, expr string, sched lang.Schedule, seed int64) (*comp.Program, map[string]*fiber.Tensor, []int) {
	t.Helper()
	return compileInputs(t, expr, sched, smallInputs(expr, seed))
}

// compileInputs is compileCase over the caller's operands.
func compileInputs(t testing.TB, expr string, sched lang.Schedule, inputs map[string]*tensor.COO) (*comp.Program, map[string]*fiber.Tensor, []int) {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	g, err := custard.Compile(e, nil, sched)
	if err != nil {
		t.Fatalf("custard %q: %v", expr, err)
	}
	cp, err := comp.Compile(g)
	if err != nil {
		t.Fatalf("comp %q: %v", expr, err)
	}
	bound, err := bind.Operands(g, inputs)
	if err != nil {
		t.Fatalf("bind %q: %v", expr, err)
	}
	odims, err := bind.OutputDims(g, inputs)
	if err != nil {
		t.Fatalf("output dims %q: %v", expr, err)
	}
	return cp, bound, odims
}

// TestWarmRunPooledZeroAllocs is the alloc gate of the warm comp run: once
// a run context is warm (buffers grown to the program's high-water marks),
// RunPooled must not touch the heap at all. CI fails this test on any
// regression, so every lowered closure stays on arena scratch.
func TestWarmRunPooledZeroAllocs(t *testing.T) {
	// Two entries a row against a vector three quarters full: the leaf step
	// probes c, so the table and the match buffer are under the gate too.
	rng := rand.New(rand.NewSource(11))
	lopsided := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 96, 48, 40),
		"c": tensor.UniformRandom("c", rng, 30, 40),
	}
	tensor.QuantizeInts(rng, 7, lopsided["B"], lopsided["c"])
	cases := []struct {
		name   string
		expr   string
		sched  lang.Schedule
		inputs map[string]*tensor.COO // nil: smallInputs
		probed bool
	}{
		{name: "spmv", expr: "x(i) = B(i,j) * c(j)"},
		{name: "spmv-probed", expr: "x(i) = B(i,j) * c(j)", inputs: lopsided, probed: true},
		{name: "spmv-opt", expr: "x(i) = B(i,j) * c(j)", sched: lang.Schedule{Opt: 1}},
		{name: "spmspm-ikj", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{name: "spmspm-ijk", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
		{name: "spmspm-kij", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"k", "i", "j"}}},
		{name: "sddmm", expr: "X(i,j) = B(i,j) * C(i,k) * D(j,k)"},
		{name: "innerprod", expr: "x = B(i,j) * C(i,j)"},
		{name: "mmadd", expr: "X(i,j) = B(i,j) + C(i,j)"},
		// Order-3 operands, and intersects fed by a union's references.
		{name: "ttv", expr: "X(i,j) = B(i,j,k) * c(k)"},
		{name: "mttkrp", expr: "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)"},
		{name: "residual", expr: "x(i) = b(i) - C(i,j) * d(j)"},
		{name: "mattransmul", expr: "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)"},
		// A reduction outside three kept variables: the n = 3 reducer.
		{name: "deep-reduce", expr: "X(i,j,k) = B(i,j,k,l) * c(l)", sched: lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.inputs
			if inputs == nil {
				inputs = smallInputs(tc.expr, 11)
			}
			cp, bound, dims := compileInputs(t, tc.expr, tc.sched, inputs)
			rc := cp.NewCtx()
			for i := 0; i < 3; i++ { // grow buffers to steady state
				if _, err := cp.RunPooled(rc, bound, dims); err != nil {
					t.Fatalf("warmup run: %v", err)
				}
			}
			if tc.probed && !rc.Probed() {
				t.Error("no co-iteration probed; the case gates nothing it names")
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := cp.RunPooled(rc, bound, dims); err != nil {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm RunPooled allocated %.1f objects/run, want 0", allocs)
			}
		})
	}
}

// warmKernelInputs draws the operands of the benchmark's warm-kernel
// workload: bench/workloads.go's warmKernelKernels, sizes copied here (bench/
// is its own module), generated in its order — per kernel, per operand,
// positions then values — so rand.NewSource(3) gives the tensors a
// `--workload warm-kernel --seed 3` run evaluates.
func warmKernelInputs(seed int64) []map[string]*tensor.COO {
	type operand struct {
		name string
		nnz  int // < 0: every position stored
		dims []int
	}
	sizes := [][]operand{
		{{"B", 16000, []int{1000, 1000}}, {"c", 250, []int{1000}}},
		{{"B", 900, []int{300, 300}}, {"C", -1, []int{300, 48}}, {"D", -1, []int{300, 48}}},
		{{"B", 56000, []int{100, 100, 40}}, {"C", 56000, []int{100, 100, 40}}},
		{{"B", 20000, []int{30, 30, 1000}}, {"c", 250, []int{1000}}},
		{{"B", 600, []int{50, 40, 40}}, {"C", -1, []int{10, 40}}, {"D", -1, []int{10, 40}}},
		{{"b", 500, []int{1000}}, {"C", 20000, []int{1000, 1000}}, {"d", 250, []int{1000}}},
		{{"alpha", 0, nil}, {"B", 20000, []int{1000, 1000}}, {"c", 250, []int{1000}}, {"beta", 0, nil}, {"d", 500, []int{1000}}},
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]map[string]*tensor.COO, len(sizes))
	for k, ops := range sizes {
		out[k] = map[string]*tensor.COO{}
		for _, op := range ops {
			var t *tensor.COO
			if len(op.dims) == 0 {
				t = tensor.NewCOO(op.name)
				t.Append(1)
			} else {
				nnz := op.nnz
				if nnz < 0 {
					nnz = 1
					for _, d := range op.dims {
						nnz *= d
					}
				}
				t = tensor.UniformRandom(op.name, rng, nnz, op.dims...)
			}
			tensor.QuantizeInts(rng, 9, t)
			out[k][op.name] = t
		}
	}
	return out
}

// BenchmarkWarmRun reports the warm-path cost of both entry points: the
// borrowed-output RunPooled (the zero-alloc hot path) and Run, which adds
// one output clone per call. The WarmKernel rows are the seven kernels of
// the benchmark's warm-kernel workload at its sizes and seed 3, so the CI
// log carries each kernel's per-run cost at the size the benchmark gates,
// with the tokens a run materializes (the sum of its stream lengths — a
// count, exact run to run: what fusion removes).
func BenchmarkWarmRun(b *testing.B) {
	const spmv, spmspm = "x(i) = B(i,j) * c(j)", "X(i,j) = B(i,k) * C(k,j)"
	type benchCase struct {
		name   string
		expr   string
		inputs map[string]*tensor.COO
		tokens bool
	}
	cases := []benchCase{
		{"SpMV", spmv, smallInputs(spmv, 11), false},
		{"SpMSpM", spmspm, smallInputs(spmspm, 11), false},
	}
	for k, inputs := range warmKernelInputs(3) {
		cases = append(cases, benchCase{"WarmKernel/" + table1Kernels[k].name, table1Kernels[k].expr, inputs, true})
	}
	for _, bc := range cases {
		cp, bound, dims := compileInputs(b, bc.expr, lang.Schedule{}, bc.inputs)
		b.Run(bc.name+"/pooled", func(b *testing.B) {
			rc := cp.NewCtx()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cp.RunPooled(rc, bound, dims); err != nil {
					b.Fatal(err)
				}
			}
			if bc.tokens {
				n := 0
				for _, s := range rc.Streams() {
					n += len(s)
				}
				b.ReportMetric(float64(n), "tokens/op")
			}
		})
		if bc.tokens {
			continue
		}
		b.Run(bc.name+"/cloned", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cp.Run(bound, dims); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLanePlanActivates pins the lane planner's coverage: the headline
// parallel kernels must actually compile to goroutine plans at Par > 1 (and
// must not at Par = 1), so the differential battery's goroutine-vs-merged
// comparison is exercising real fork/join execution, not a silent
// sequential fallback.
func TestLanePlanActivates(t *testing.T) {
	cases := []struct {
		expr  string
		order []string
	}{
		{"x(i) = B(i,j) * c(j)", nil},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "j", "k"}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			sched := lang.Schedule{LoopOrder: tc.order, Par: par}
			cp, bound, dims := compileCase(t, tc.expr, sched, 3)
			if got, want := cp.Parallel(), par > 1; got != want {
				t.Errorf("%s par%d: Parallel() = %v, want %v", tc.expr, par, got, want)
			}
			if _, err := cp.Run(bound, dims); err != nil {
				t.Errorf("%s par%d: run: %v", tc.expr, par, err)
			}
		}
	}
}

// TestRunPooledReuseIsolation is the pool-reuse correctness test: outputs
// cloned from earlier runs stay intact after the context is reused, and a
// context that just ran one operand set produces the same bits for another
// operand set as a fresh context — run A's buffers never leak into run B's
// output.
func TestRunPooledReuseIsolation(t *testing.T) {
	expr := "X(i,j) = B(i,k) * C(k,j)"
	sched := lang.Schedule{LoopOrder: []string{"i", "k", "j"}}
	cpA, boundA, dimsA := compileCase(t, expr, sched, 5)
	_, boundB, dimsB := compileCase(t, expr, sched, 17)

	rc := cpA.NewCtx()
	outA, err := cpA.RunPooled(rc, boundA, dimsA)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	keepA := cloneForTest(outA)
	outB, err := cpA.RunPooled(rc, boundB, dimsB) // reuses A's buffers
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	keepB := cloneForTest(outB)

	freshA, err := cpA.Run(boundA, dimsA)
	if err != nil {
		t.Fatalf("fresh run A: %v", err)
	}
	freshB, err := cpA.Run(boundB, dimsB)
	if err != nil {
		t.Fatalf("fresh run B: %v", err)
	}
	if err := tensor.IdenticalBits(freshA, keepA); err != nil {
		t.Errorf("run A output corrupted by reuse: %v", err)
	}
	if err := tensor.IdenticalBits(freshB, keepB); err != nil {
		t.Errorf("reused context produced different bits for run B: %v", err)
	}

	// Re-running A on the same context must also reproduce A exactly.
	outA2, err := cpA.RunPooled(rc, boundA, dimsA)
	if err != nil {
		t.Fatalf("run A again: %v", err)
	}
	if err := tensor.IdenticalBits(freshA, outA2); err != nil {
		t.Errorf("warm re-run of A differs: %v", err)
	}
}

// cloneForTest deep-copies a context-borrowed output so it can be compared
// after the context is reused.
func cloneForTest(src *tensor.COO) *tensor.COO {
	out := tensor.NewCOO(src.Name, src.Dims...)
	for _, p := range src.Pts {
		out.Pts = append(out.Pts, tensor.Point{Crd: append([]int64(nil), p.Crd...), Val: p.Val})
	}
	return out
}

// TestPoolBacksOffOnMisses pins the parking rule of the context pool: a
// program whose Gets keep coming back empty parks a context only after its
// 1st, 2nd, 4th, 8th … consecutive miss, so the contexts of a program run
// less often than the collector runs do not pile up in the pool; one hit
// puts it back to parking every time.
func TestPoolBacksOffOnMisses(t *testing.T) {
	cp, bound, dims := compileCase(t, "x(i) = B(i,j) * c(j)", lang.Schedule{}, 11)
	drain := func() {
		for cp.TakeParked() {
		}
	}
	for m, want := range map[uint32]bool{0: true, 1: true, 2: true, 3: false, 4: true, 5: false, 7: false, 8: true, 255: false, 256: true, 257: false, 768: true} {
		// A sync.Pool may drop a Put (it does at random under the race
		// detector), so "parks" is tried a few times; "does not park" must
		// hold every time.
		got := false
		for try := 0; try < 50 && !got; try++ {
			drain()
			cp.SetMisses(m)
			cp.PutCtx(cp.NewCtx())
			got = cp.TakeParked()
			if !want && got {
				break
			}
		}
		if got != want {
			t.Errorf("after %d consecutive misses: context parked = %v, want %v", m, got, want)
		}
	}

	// Through Run: a miss counts, a hit clears the count.
	drain()
	cp.SetMisses(0)
	if _, err := cp.Run(bound, dims); err != nil {
		t.Fatal(err)
	}
	if m := cp.Misses(); m != 1 {
		t.Errorf("one cold run left misses = %d, want 1", m)
	}
	for try := 0; try < 50 && cp.Misses() != 0; try++ {
		if _, err := cp.Run(bound, dims); err != nil {
			t.Fatal(err)
		}
	}
	if m := cp.Misses(); m != 0 {
		t.Errorf("misses = %d after 50 back-to-back runs; a pool hit must clear it", m)
	}
}
