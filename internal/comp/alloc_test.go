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

// lopsidedSpMV draws SpMV operands with two entries a row against a vector
// three quarters full: the leaf co-iteration probes c instead of merging it.
func lopsidedSpMV() map[string]*tensor.COO {
	rng := rand.New(rand.NewSource(11))
	in := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 96, 48, 40),
		"c": tensor.UniformRandom("c", rng, 30, 40),
	}
	tensor.QuantizeInts(rng, 7, in["B"], in["c"])
	return in
}

// boundProg is one compiled program with its operand binding and the output
// a reference run produced for it.
type boundProg struct {
	name  string
	cp    *comp.Program
	bound map[string]*fiber.Tensor
	dims  []int
	want  *tensor.COO
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
	bound, err := bind.NewPlan(g).Operands(inputs)
	if err != nil {
		t.Fatalf("bind %q: %v", expr, err)
	}
	odims, err := bind.NewPlan(g).OutputDims(inputs)
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
	// The leaf step probes c, so the table and the match buffer are under
	// the gate too.
	lopsided := lopsidedSpMV()
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
		// Lane-parallel graphs: the fork, the lanes and the joins (element and
		// driven pair serializers) run on the one context like any step, also
		// when the outermost variable is reduced and its reducer follows the
		// join.
		{name: "spmspm-ikj-par4", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: 4}},
		{name: "spmv-par2", expr: "x(i) = B(i,j) * c(j)", sched: lang.Schedule{Par: 2}},
		{name: "spmspm-kij-par2", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"k", "i", "j"}, Par: 2}},
		{name: "spmspm-kij-par4", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"k", "i", "j"}, Par: 4}},
		{name: "innerprod-par2", expr: "x = B(i,j) * C(i,j)", sched: lang.Schedule{Par: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.inputs
			if inputs == nil {
				inputs = smallInputs(tc.expr, 11)
			}
			cp, bound, dims := compileInputs(t, tc.expr, tc.sched, inputs)
			rc := new(comp.RunCtx)
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

	// Two programs taking turns on one context: retargeting a context both
	// have warmed allocates nothing either way.
	t.Run("alternate-spmv-probed-deep-reduce", func(t *testing.T) {
		a, boundA, dimsA := compileInputs(t, "x(i) = B(i,j) * c(j)", lang.Schedule{}, lopsided)
		deep := lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}}
		b, boundB, dimsB := compileCase(t, "X(i,j,k) = B(i,j,k,l) * c(l)", deep, 11)
		rc := new(comp.RunCtx)
		pair := func() {
			if _, err := a.RunPooled(rc, boundA, dimsA); err != nil {
				t.Fatalf("run A: %v", err)
			}
			if _, err := b.RunPooled(rc, boundB, dimsB); err != nil {
				t.Fatalf("run B: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			pair()
		}
		if allocs := testing.AllocsPerRun(10, pair); allocs != 0 {
			t.Errorf("warm A, B on one context allocated %.1f objects/pair, want 0", allocs)
		}
	})
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
			rc := new(comp.RunCtx)
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

	rc := new(comp.RunCtx)
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

// TestRetargetIsolation cycles one context through programs that differ in
// slot count, output order (0 through 3), sequential vs lane-parallel
// graphs and probed vs merged co-iteration. Every run must produce the
// bits a fresh context produces for the same program: nothing a context
// kept from the program before leaks into the next one's output.
func TestRetargetIsolation(t *testing.T) {
	lopsided := lopsidedSpMV()
	cases := []struct {
		name   string
		expr   string
		sched  lang.Schedule
		inputs map[string]*tensor.COO // nil: smallInputs
	}{
		{name: "order3-deep-reduce", expr: "X(i,j,k) = B(i,j,k,l) * c(l)", sched: lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}}},
		{name: "order0-innerprod", expr: "x = B(i,j) * C(i,j)"},
		{name: "order2-spmspm-par4", expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: 4}},
		{name: "order1-spmv-probed", expr: "x(i) = B(i,j) * c(j)", inputs: lopsided},
		{name: "order1-spmv-par4", expr: "x(i) = B(i,j) * c(j)", sched: lang.Schedule{Par: 4}},
		{name: "order2-mttkrp", expr: "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)"},
		{name: "order1-spmv-merged", expr: "x(i) = B(i,j) * c(j)"},
	}
	var progs []boundProg
	slots, probed := map[int]bool{}, map[bool]bool{}
	for _, tc := range cases {
		inputs := tc.inputs
		if inputs == nil {
			inputs = smallInputs(tc.expr, 13)
		}
		cp, bound, dims := compileInputs(t, tc.expr, tc.sched, inputs)
		fresh := new(comp.RunCtx)
		want, err := cp.RunPooled(fresh, bound, dims)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", tc.name, err)
		}
		slots[len(fresh.Streams())] = true
		probed[fresh.Probed()] = true
		progs = append(progs, boundProg{tc.name, cp, bound, dims, cloneForTest(want)})
	}
	if len(slots) < 4 {
		t.Fatalf("the programs span %d slot counts; the cycle gates no slot-table growth", len(slots))
	}
	if !probed[true] || !probed[false] {
		t.Fatalf("probed co-iteration seen: %v; the cycle must mix probed and merged", probed)
	}
	rc := new(comp.RunCtx)
	for round := 0; round < 3; round++ {
		for k := range progs {
			if round == 2 { // backwards: every program follows a different one
				k = len(progs) - 1 - k
			}
			pr := progs[k]
			got, err := pr.cp.RunPooled(rc, pr.bound, pr.dims)
			if err == nil {
				err = tensor.IdenticalBits(pr.want, got)
			}
			if err != nil {
				t.Errorf("round %d, %s on a retargeted context: %v", round, pr.name, err)
			}
		}
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
