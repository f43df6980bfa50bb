package sim

import (
	"math/rand"
	"testing"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// quantize replaces every stored value with a small nonzero integer. Integer
// values make floating-point sums exact regardless of association, so
// parallel lane partials (which reassociate reductions across lanes) must be
// bit-identical to the sequential result, and both to the gold model.
func quantize(r *rand.Rand, ts ...*tensor.COO) {
	tensor.QuantizeInts(r, 7, ts...)
}

func quantizeInputs(r *rand.Rand, inputs map[string]*tensor.COO) {
	for _, t := range inputs {
		quantize(r, t)
	}
}

// parKernel is one fixed-kernel configuration of the lane battery. join
// classifies the cycle expectation: "strict" joins (a reduction shrinks the
// serialized output below the forked compute streams) must beat Par=1;
// "elem" joins (elementwise kernels) run the full stream through the joiner
// and may cost the constant fork/join pipeline latency; "combine" joins
// (outermost variable reduced) buffer lane partials through the reduction
// tree, costing up to one extra output replay per tree level.
type parKernel struct {
	name  string
	expr  string
	order []string
	join  string
}

// TestParKernelMatrix runs the paper's evaluation kernels under every lane
// count and engine: outputs must be bit-identical to Par=1 and to the gold
// model, and on kernels with a reduction the event engine must simulate
// strictly fewer cycles than Par=1 (the join streams are smaller than the
// forked compute streams). Elementwise kernels join at full stream rate, so
// they only get the constant-latency regression bound.
func TestParKernelMatrix(t *testing.T) {
	kernels := []parKernel{
		{name: "spmv", expr: "x(i) = B(i,j) * c(j)", join: "strict"},
		{name: "spmspm-ijk", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"i", "j", "k"}, join: "strict"},
		{name: "spmspm-ikj", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"i", "k", "j"}, join: "strict"},
		{name: "spmspm-jki", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"j", "k", "i"}, join: "strict"},
		{name: "spmspm-kij", expr: "X(i,j) = B(i,k) * C(k,j)", order: []string{"k", "i", "j"}, join: "combine"},
		{name: "spmadd", expr: "X(i,j) = B(i,j) + C(i,j)", join: "elem"},
		{name: "sddmm", expr: "X(i,j) = B(i,j) * C(i,k) * D(j,k)", join: "strict"},
		{name: "scalar", expr: "x = B(i,j) * c(j)", join: "strict"},
	}
	dims := map[string]int{"i": 40, "j": 36, "k": 20}
	r := rand.New(rand.NewSource(2024))
	for _, k := range kernels {
		e := lang.MustParse(k.expr)
		inputs := map[string]*tensor.COO{}
		for _, a := range e.Accesses() {
			if _, ok := inputs[a.Tensor]; ok {
				continue
			}
			ds := make([]int, len(a.Idx))
			total := 1
			for i, v := range a.Idx {
				ds[i] = dims[v]
				total *= ds[i]
			}
			inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, r, total/4+1, ds...)
		}
		quantizeInputs(r, inputs)
		sched := lang.Schedule{LoopOrder: k.order}
		g1, err := custard.Compile(e, nil, sched)
		if err != nil {
			t.Fatalf("%s: compile par1: %v", k.name, err)
		}
		base, err := Run(g1, inputs, Options{})
		if err != nil {
			t.Fatalf("%s: par1: %v", k.name, err)
		}
		want, err := lang.Gold(e, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.Equal(base.Output, want, 0); err != nil {
			t.Fatalf("%s: par1 vs gold: %v", k.name, err)
		}
		for _, p := range []int{2, 4, 8} {
			sched.Par = p
			gp, err := custard.Compile(e, nil, sched)
			if err != nil {
				t.Fatalf("%s: compile par%d: %v", k.name, p, err)
			}
			for _, eng := range Engines() {
				res, err := Run(gp, inputs, Options{Engine: eng})
				if err != nil {
					t.Fatalf("%s par%d %s: %v", k.name, p, eng, err)
				}
				if err := tensor.Equal(res.Output, base.Output, 0); err != nil {
					t.Fatalf("%s par%d %s vs par1: %v", k.name, p, eng, err)
				}
				if err := tensor.Equal(res.Output, want, 0); err != nil {
					t.Fatalf("%s par%d %s vs gold: %v", k.name, p, eng, err)
				}
				if eng != EngineComp {
					bound := base.Cycles
					switch k.join {
					case "elem":
						bound = base.Cycles + 64
					case "combine":
						bound = 2*base.Cycles + 64
					}
					if res.Cycles > bound {
						t.Errorf("%s par%d %s: %d cycles, past the %s bound %d (par1 %d)", k.name, p, eng, res.Cycles, k.join, bound, base.Cycles)
					}
				}
			}
		}
	}
}

// TestParStrictSpeedup pins the acceptance bar: on SpMV and SpM*SpM every
// lane count must simulate strictly fewer cycles than Par=1, and more lanes
// must keep helping through 8.
func TestParStrictSpeedup(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := tensor.UniformRandom("B", r, 1200, 120, 100)
	c := tensor.UniformRandom("c", r, 60, 100)
	cc := tensor.UniformRandom("C", r, 1200, 100, 120)
	for _, k := range []struct {
		name   string
		expr   string
		inputs map[string]*tensor.COO
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", map[string]*tensor.COO{"B": b, "c": c}},
		{"spmspm", "X(i,j) = B(i,k) * C(k,j)", map[string]*tensor.COO{"B": b, "C": cc}},
	} {
		e := lang.MustParse(k.expr)
		prev := 0
		for _, p := range []int{1, 2, 4, 8} {
			g, err := custard.Compile(e, nil, lang.Schedule{Par: p})
			if err != nil {
				t.Fatalf("%s par%d: %v", k.name, p, err)
			}
			res, err := Run(g, k.inputs, Options{})
			if err != nil {
				t.Fatalf("%s par%d: %v", k.name, p, err)
			}
			if p > 1 && res.Cycles >= prev {
				t.Errorf("%s: par%d cycles %d, want strictly below %d", k.name, p, res.Cycles, prev)
			}
			prev = res.Cycles
		}
	}
}

// TestFuzzParLaneEquivalence is the differential lane-count battery over the
// random statement generator: for every statement that compiles under Par=1
// and Par in {2,4,8}, all three engines must produce outputs bit-identical
// to the sequential graph and to the gold model (inputs are quantized to
// integers so reductions are exact under any association).
func TestFuzzParLaneEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(424242))
	executed := 0
	for trial := 0; trial < 200; trial++ {
		expr, inputs := randExpr(r)
		quantizeInputs(r, inputs)
		e, err := lang.Parse(expr)
		if err != nil {
			continue
		}
		g1, err := custard.Compile(e, nil, lang.Schedule{})
		if err != nil {
			continue
		}
		base, err := Run(g1, inputs, Options{})
		if err != nil {
			// A statement the sequential pipeline cannot execute (e.g. a
			// reduction attached inside an addition at an outer loop
			// position) is outside the battery: Par must only match what
			// Par=1 can do.
			continue
		}
		want, err := lang.Gold(e, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.Equal(base.Output, want, 0); err != nil {
			t.Fatalf("trial %d %q: par1 vs gold: %v", trial, expr, err)
		}
		p := []int{2, 4, 8}[trial%3]
		gp, err := custard.Compile(e, nil, lang.Schedule{Par: p})
		if err != nil {
			// Par legitimately refuses loop orders whose outermost reduction
			// covers only part of the expression; the sequential graph stays
			// the reference for those.
			continue
		}
		for _, eng := range Engines() {
			res, err := Run(gp, inputs, Options{Engine: eng})
			if err != nil {
				t.Fatalf("trial %d %q par%d %s: %v", trial, expr, p, eng, err)
			}
			if err := tensor.Equal(res.Output, base.Output, 0); err != nil {
				t.Fatalf("trial %d %q par%d %s vs par1: %v", trial, expr, p, eng, err)
			}
		}
		executed++
	}
	if executed < 60 {
		t.Fatalf("only %d/200 random statements executed under Par; generator or compiler too restrictive", executed)
	}
	t.Logf("executed %d/200 random statements under Par", executed)
}

// TestFuzzParRandomLoopOrders sweeps random loop orders (covering the
// cross-lane reduction join whenever the outermost variable is reduced)
// under every lane count.
func TestFuzzParRandomLoopOrders(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	dims := map[string]int{"i": 9, "j": 8, "k": 7, "l": 6}
	exprs := []string{
		"X(i,j) = B(i,k) * C(k,j)",
		"X(i,j) = B(i,j,k) * c(k)",
		"X(i,j,k) = B(i,j,l) * C(k,l)",
		"x(i) = B(i,j) * c(j)",
		"X(i,j) = B(i,j) + C(i,j)",
	}
	executed := 0
	for trial := 0; trial < 90; trial++ {
		expr := exprs[r.Intn(len(exprs))]
		e := lang.MustParse(expr)
		vars := e.AllVars()
		perm := r.Perm(len(vars))
		order := make([]string, len(vars))
		for i, p := range perm {
			order[i] = vars[p]
		}
		inputs := map[string]*tensor.COO{}
		for _, a := range e.Accesses() {
			if _, ok := inputs[a.Tensor]; ok {
				continue
			}
			ds := make([]int, len(a.Idx))
			total := 1
			for i, v := range a.Idx {
				ds[i] = dims[v]
				total *= ds[i]
			}
			inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, r, r.Intn(total/2)+1, ds...)
		}
		quantizeInputs(r, inputs)
		g1, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order})
		if err != nil {
			t.Fatalf("trial %d %q order %v: %v", trial, expr, order, err)
		}
		base, err := Run(g1, inputs, Options{})
		if err != nil {
			t.Fatalf("trial %d %q order %v: par1: %v", trial, expr, order, err)
		}
		p := []int{2, 4, 8}[r.Intn(3)]
		gp, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order, Par: p})
		if err != nil {
			continue // partial-expression outermost reduction: Par refuses
		}
		for _, eng := range Engines() {
			res, err := Run(gp, inputs, Options{Engine: eng})
			if err != nil {
				t.Fatalf("trial %d %q order %v par%d %s: %v", trial, expr, order, p, eng, err)
			}
			if err := tensor.Equal(res.Output, base.Output, 0); err != nil {
				t.Fatalf("trial %d %q order %v par%d %s vs par1: %v", trial, expr, order, p, eng, err)
			}
		}
		executed++
	}
	if executed < 45 {
		t.Fatalf("only %d/90 loop-order trials executed under Par", executed)
	}
	t.Logf("executed %d/90 loop-order trials under Par", executed)
}
