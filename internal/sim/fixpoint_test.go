package sim

import (
	"math"
	"slices"
	"testing"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// spmvProgram compiles the y = M·x relaxation step every fixpoint test
// iterates.
func spmvProgram(t *testing.T) *Program {
	t.Helper()
	g, err := custard.Compile(lang.MustParse("y(i) = M(i,j) * x(j)"), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ring builds the n-node directed ring's column-stochastic matrix (each node
// links only to its successor) and a unit vector at node 0.
func ring(n int) (*tensor.COO, *tensor.COO) {
	m := tensor.NewCOO("M", n, n)
	for j := 0; j < n; j++ {
		m.Append(1, int64((j+1)%n), int64(j))
	}
	x := tensor.NewCOO("x", n)
	x.Append(1, 0)
	return m, x
}

func TestFixpointValidate(t *testing.T) {
	good := Fixpoint{Var: "x", MaxIters: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Fixpoint{
		{MaxIters: 10}, // no var
		{Var: "x"},     // no iteration budget
		{Var: "x", MaxIters: maxFixpointIters + 1},
		{Var: "x", MaxIters: 10, Tol: -1},
		{Var: "x", MaxIters: 10, Tol: math.NaN()},
		{Var: "x", MaxIters: 10, Mode: "warp"},
		{Var: "x", MaxIters: 10, Mode: FixpointPageRank, Damping: 1.5},
		{Var: "x", MaxIters: 10, Mode: FixpointPageRank, Damping: -0.1},
	}
	for i, fx := range bad {
		if err := fx.Validate(); err == nil {
			t.Errorf("bad spec %d (%+v) validated", i, fx)
		}
	}
}

// TestFixpointApply checks each update rule against its closed form.
func TestFixpointApply(t *testing.T) {
	x := tensor.NewCOO("x", 4)
	x.Append(1, 0)
	x.Append(2, 2)
	y := tensor.NewCOO("y", 4)
	y.Append(3, 1)
	y.Append(5, 2)

	// power: x' = y; delta = |0-1| + |3-0| + |5-2| = 7.
	next, delta, err := Fixpoint{Var: "x", MaxIters: 1}.Apply(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if delta != 7 {
		t.Fatalf("power delta = %v, want 7", delta)
	}
	if next.NNZ() != 2 || next.Pts[0].Val != 3 || next.Pts[1].Val != 5 {
		t.Fatalf("power next = %+v", next.Pts)
	}
	if slices.Compare(next.Pts[0].Crd, next.Pts[1].Crd) >= 0 {
		t.Fatal("Apply output not strictly sorted")
	}

	// pagerank: x'_i = 0.5·y_i + 0.5/4, dense.
	next, _, err = Fixpoint{Var: "x", MaxIters: 1, Mode: FixpointPageRank, Damping: 0.5}.Apply(y, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.125, 1.625, 2.625, 0.125}
	if next.NNZ() != 4 {
		t.Fatalf("pagerank next has %d points, want dense 4", next.NNZ())
	}
	for i, p := range next.Pts {
		if p.Val != want[i] {
			t.Fatalf("pagerank next[%d] = %v, want %v", i, p.Val, want[i])
		}
	}

	// reach: saturate where either x or y is nonzero.
	next, delta, err = Fixpoint{Var: "x", MaxIters: 1, Mode: FixpointReach}.Apply(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if next.NNZ() != 3 { // nodes 0, 1, 2
		t.Fatalf("reach next = %+v", next.Pts)
	}
	for _, p := range next.Pts {
		if p.Val != 1 {
			t.Fatalf("reach value %v, want saturated 1", p.Val)
		}
	}
	// Fixed point: applying again changes nothing.
	if _, delta, _ = (Fixpoint{Var: "x", MaxIters: 1, Mode: FixpointReach}).Apply(y, next); delta != 0 {
		t.Fatalf("reach re-apply delta = %v, want 0", delta)
	}

	// Shape errors.
	m := tensor.NewCOO("m", 2, 2)
	if _, _, err := (Fixpoint{Var: "x", MaxIters: 1}).Apply(y, m); err == nil {
		t.Fatal("order-2 state accepted")
	}
	short := tensor.NewCOO("y", 3)
	if _, _, err := (Fixpoint{Var: "x", MaxIters: 1}).Apply(short, x); err == nil {
		t.Fatal("mismatched output length accepted")
	}
}

// TestRunFixpointPower iterates x' = M·x on a ring: the unit mass rotates
// one node per iteration, so after k iterations it sits at node k mod n.
func TestRunFixpointPower(t *testing.T) {
	p := spmvProgram(t)
	m, x := ring(5)
	inputs := map[string]*tensor.COO{"M": m, "x": x}

	res, err := RunFixpoint(p, inputs, Fixpoint{Var: "x", MaxIters: 7}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 7 || res.Converged {
		t.Fatalf("iterations %d converged %v, want 7 and false (tol disabled)", res.Iterations, res.Converged)
	}
	if len(res.Deltas) != 7 || res.Cycles == 0 {
		t.Fatalf("deltas %d cycles %d", len(res.Deltas), res.Cycles)
	}
	if res.Output.NNZ() != 1 || res.Output.Pts[0].Crd[0] != 2 || res.Output.Pts[0].Val != 1 {
		t.Fatalf("mass at %+v after 7 steps on a 5-ring, want node 2", res.Output.Pts)
	}
	// The caller's inputs map must be untouched.
	if inputs["x"] != x || x.NNZ() != 1 || x.Pts[0].Crd[0] != 0 {
		t.Fatal("RunFixpoint mutated the caller's inputs")
	}
}

// TestRunFixpointConvergence checks Tol stops iteration: on the ring, power
// iteration from the uniform vector is already at its fixpoint.
func TestRunFixpointConvergence(t *testing.T) {
	p := spmvProgram(t)
	m, _ := ring(4)
	x := tensor.NewCOO("x", 4)
	for i := 0; i < 4; i++ {
		x.Append(0.25, int64(i))
	}
	res, err := RunFixpoint(p, map[string]*tensor.COO{"M": m, "x": x},
		Fixpoint{Var: "x", MaxIters: 50, Tol: 1e-12}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("iterations %d converged %v, want immediate convergence", res.Iterations, res.Converged)
	}
}

// TestRunFixpointReachBFS runs frontier-less BFS on a small chain graph:
// reachability from node 0 saturates in diameter iterations.
func TestRunFixpointReachBFS(t *testing.T) {
	// Edges 0→1→2→3 (adjacency: A(i,j)=1 for edge j→i).
	a := tensor.NewCOO("M", 4, 4)
	a.Append(1, 1, 0)
	a.Append(1, 2, 1)
	a.Append(1, 3, 2)
	x := tensor.NewCOO("x", 4)
	x.Append(1, 0)

	res, err := RunFixpoint(spmvProgram(t), map[string]*tensor.COO{"M": a, "x": x},
		Fixpoint{Var: "x", MaxIters: 20, Tol: 1e-9, Mode: FixpointReach}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("BFS did not converge within the chain diameter")
	}
	if res.Output.NNZ() != 4 {
		t.Fatalf("reached %d of 4 chain nodes: %+v", res.Output.NNZ(), res.Output.Pts)
	}
}

// TestRunFixpointMatchesManualLoop cross-checks the driver against the same
// iterations done by hand with Apply — including on the compiled engine, and
// with pagerank's damped update.
func TestRunFixpointMatchesManualLoop(t *testing.T) {
	for _, engine := range []EngineKind{EngineEvent, EngineComp} {
		p := spmvProgram(t)
		m, x0 := ring(6)
		fx := Fixpoint{Var: "x", MaxIters: 9, Mode: FixpointPageRank}
		opt := Options{Engine: engine}

		res, err := RunFixpoint(p, map[string]*tensor.COO{"M": m, "x": x0}, fx, opt)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}

		x := x0
		for it := 0; it < 9; it++ {
			r, err := p.Run(map[string]*tensor.COO{"M": m, "x": x}, Options{Engine: engine})
			if err != nil {
				t.Fatalf("engine %s manual iteration %d: %v", engine, it, err)
			}
			next, delta, err := fx.Apply(r.Output, x)
			if err != nil {
				t.Fatal(err)
			}
			if delta != res.Deltas[it] {
				t.Fatalf("engine %s: delta[%d] = %v, driver reported %v", engine, it, delta, res.Deltas[it])
			}
			x = next
		}
		if err := tensor.Equal(res.Output, x, 0); err != nil {
			t.Fatalf("engine %s: driver output differs from manual loop: %v", engine, err)
		}

		// Iterate with a hand-written step is the same loop: RunFixpoint is
		// nothing but Iterate over Program.Run.
		steps := 0
		it, err := fx.Iterate(x0, func(x *tensor.COO) (*tensor.COO, int, error) {
			steps++
			r, err := p.Run(map[string]*tensor.COO{"M": m, "x": x}, opt)
			if err != nil {
				return nil, 0, err
			}
			return r.Output, r.Cycles, nil
		})
		if err != nil {
			t.Fatalf("engine %s: Iterate: %v", engine, err)
		}
		if steps != 9 || it.Iterations != res.Iterations || it.Cycles != res.Cycles || it.Converged != res.Converged || !slices.Equal(it.Deltas, res.Deltas) {
			t.Fatalf("engine %s: Iterate ran %d steps and reports %+v, RunFixpoint %+v", engine, steps, it, res)
		}
		if err := tensor.Equal(it.Output, x, 0); err != nil {
			t.Fatalf("engine %s: Iterate output differs from manual loop: %v", engine, err)
		}
	}
}

// TestRunFixpointErrors covers driver-level validation.
func TestRunFixpointErrors(t *testing.T) {
	p := spmvProgram(t)
	m, x := ring(3)
	if _, err := RunFixpoint(p, map[string]*tensor.COO{"M": m, "x": x},
		Fixpoint{Var: "z", MaxIters: 3}, Options{}); err == nil {
		t.Fatal("missing state input accepted")
	}
	if _, err := RunFixpoint(p, map[string]*tensor.COO{"M": m, "x": x},
		Fixpoint{Var: "M", MaxIters: 3}, Options{}); err == nil {
		t.Fatal("order-2 state input accepted")
	}
	if _, err := RunFixpoint(p, map[string]*tensor.COO{"M": m, "x": x},
		Fixpoint{Var: "x"}, Options{}); err == nil {
		t.Fatal("zero max_iters accepted")
	}
}
