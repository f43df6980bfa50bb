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

// randExpr generates a random well-formed tensor index notation statement
// plus matching random inputs: 1-3 operands of order 0-3 over a small
// variable pool, combined with * and +, with reduction variables arising
// naturally from variables absent on the left-hand side.
func randExpr(r *rand.Rand) (string, map[string]*tensor.COO) {
	pool := []string{"i", "j", "k", "l"}
	dims := map[string]int{"i": 9, "j": 8, "k": 7, "l": 6}

	nOps := r.Intn(3) + 1
	type opnd struct {
		name string
		vars []string
	}
	used := map[string]bool{}
	var ops []opnd
	for t := 0; t < nOps; t++ {
		order := r.Intn(3)
		if t == 0 && order == 0 {
			order = 1 // ensure at least one indexed operand
		}
		perm := r.Perm(len(pool))
		vars := make([]string, 0, order)
		for _, p := range perm[:order] {
			vars = append(vars, pool[p])
		}
		for _, v := range vars {
			used[v] = true
		}
		ops = append(ops, opnd{name: fmt.Sprintf("T%d", t), vars: vars})
	}

	// Output variables: a random nonempty subset of the used variables
	// (empty means a scalar result, also legal).
	var allUsed []string
	for _, v := range pool {
		if used[v] {
			allUsed = append(allUsed, v)
		}
	}
	var outVars []string
	for _, v := range allUsed {
		if r.Intn(2) == 0 {
			outVars = append(outVars, v)
		}
	}

	terms := make([]string, len(ops))
	for i, o := range ops {
		if len(o.vars) == 0 {
			terms[i] = o.name
		} else {
			terms[i] = o.name + "(" + strings.Join(o.vars, ",") + ")"
		}
	}
	// Combine with a random operator sequence; keep one connected
	// expression so every variable's scope is well defined.
	rhs := terms[0]
	for i := 1; i < len(terms); i++ {
		op := "*"
		if r.Intn(3) == 0 {
			op = "+"
		}
		rhs = rhs + " " + op + " " + terms[i]
	}
	lhs := "X"
	if len(outVars) > 0 {
		lhs += "(" + strings.Join(outVars, ",") + ")"
	}
	expr := lhs + " = " + rhs

	// Additions require both sides to carry the output variables; rather
	// than constrain generation, filter at the validation step (the caller
	// retries on compile errors for structurally unsupported statements).
	inputs := map[string]*tensor.COO{}
	for _, o := range ops {
		if len(o.vars) == 0 {
			s := tensor.NewCOO(o.name)
			s.Append(r.Float64() + 0.5)
			inputs[o.name] = s
			continue
		}
		ds := make([]int, len(o.vars))
		total := 1
		for i, v := range o.vars {
			ds[i] = dims[v]
			total *= ds[i]
		}
		nnz := r.Intn(total/2) + 1
		inputs[o.name] = tensor.UniformRandom(o.name, r, nnz, ds...)
	}
	return expr, inputs
}

// TestFuzzRandomExpressions compiles and simulates randomly generated
// statements, comparing every successful compilation against the gold
// evaluator. Statements the compiler legitimately rejects (e.g. reducer
// dimensions beyond n=2 for an adversarial loop order) are skipped, but a
// minimum number of statements must execute.
func TestFuzzRandomExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	executed := 0
	for trial := 0; trial < 400; trial++ {
		expr, inputs := randExpr(r)
		e, err := lang.Parse(expr)
		if err != nil {
			continue // e.g. output variable missing from the right side
		}
		g, err := custard.Compile(e, nil, lang.Schedule{})
		if err != nil {
			continue
		}
		res, err := Run(g, inputs, Options{})
		if err != nil {
			t.Fatalf("trial %d %q: simulate: %v", trial, expr, err)
		}
		want, err := lang.Gold(e, inputs)
		if err != nil {
			t.Fatalf("trial %d %q: gold: %v", trial, expr, err)
		}
		if err := tensor.Equal(res.Output, want, 1e-6); err != nil {
			t.Fatalf("trial %d %q: mismatch: %v", trial, expr, err)
		}
		executed++
	}
	if executed < 150 {
		t.Fatalf("only %d/400 random statements executed; generator or compiler too restrictive", executed)
	}
	t.Logf("executed %d/400 random statements", executed)
}

// TestFuzzEngineEquivalence cross-checks the event engine against the naive
// tick-all loop on randomly generated statements: identical cycle counts,
// byte-identical outputs and identical statistics for every stream (data,
// stop, empty, done and idle tokens). Unbounded queues run the lagging
// scheduler, which ticks each block on its own clock up to its horizon;
// with bounded ones (caps 2 and 7) Net.Run hands the net to the naive loop,
// so those rows hold the routing and the blocks' backpressure paths.
func TestFuzzEngineEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	executed := 0
	for trial := 0; trial < 150; trial++ {
		expr, inputs := randExpr(r)
		e, err := lang.Parse(expr)
		if err != nil {
			continue
		}
		g, err := custard.Compile(e, nil, lang.Schedule{})
		if err != nil {
			continue
		}
		caps := []int{0, 2, 7}
		cap := caps[r.Intn(len(caps))]
		naive, errNaive := Run(g, inputs, Options{Engine: EngineNaive, QueueCap: cap})
		event, errEvent := Run(g, inputs, Options{Engine: EngineEvent, QueueCap: cap})
		if errNaive != nil || errEvent != nil {
			// Tiny bounded queues can genuinely deadlock a graph (real
			// backpressure cycles); the engines must agree on the failure.
			if (errNaive == nil) != (errEvent == nil) {
				t.Fatalf("trial %d %q cap=%d: engines disagree: naive=%v event=%v", trial, expr, cap, errNaive, errEvent)
			}
			if errNaive.Error() != errEvent.Error() {
				t.Fatalf("trial %d %q cap=%d: errors differ:\n naive: %v\n event: %v", trial, expr, cap, errNaive, errEvent)
			}
			executed++
			continue
		}
		if event.Cycles != naive.Cycles {
			t.Fatalf("trial %d %q cap=%d: cycles event %d vs naive %d", trial, expr, cap, event.Cycles, naive.Cycles)
		}
		if err := tensor.Equal(event.Output, naive.Output, 0); err != nil {
			t.Fatalf("trial %d %q cap=%d: outputs differ: %v", trial, expr, cap, err)
		}
		if len(event.Streams) != len(naive.Streams) {
			t.Fatalf("trial %d %q cap=%d: %d streams on event, %d on naive", trial, expr, cap, len(event.Streams), len(naive.Streams))
		}
		for label, ns := range naive.Streams {
			if es, ok := event.Streams[label]; !ok || *es != *ns {
				t.Fatalf("trial %d %q cap=%d: stream %s: event %+v, naive %+v", trial, expr, cap, label, es, *ns)
			}
		}
		executed++
	}
	if executed < 50 {
		t.Fatalf("only %d/150 random statements executed", executed)
	}
	t.Logf("cross-checked %d/150 random statements", executed)
}

// TestFuzzRandomFormats runs a fixed expression battery under random format
// assignments.
func TestFuzzRandomFormats(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	exprs := []string{
		"x(i) = B(i,j) * c(j)",
		"X(i,j) = B(i,k) * C(k,j)",
		"X(i,j) = B(i,j) + C(i,j)",
		"X(i,j) = B(i,j,k) * c(k)",
	}
	kinds := []fiber.Format{fiber.Compressed, fiber.Dense, fiber.LinkedList}
	for trial := 0; trial < 60; trial++ {
		expr := exprs[r.Intn(len(exprs))]
		e := lang.MustParse(expr)
		formats := lang.Formats{}
		inputs := map[string]*tensor.COO{}
		for _, a := range e.Accesses() {
			if _, ok := inputs[a.Tensor]; ok {
				continue
			}
			lv := make([]fiber.Format, len(a.Idx))
			for i := range lv {
				lv[i] = kinds[r.Intn(len(kinds))]
			}
			formats[a.Tensor] = lang.Format{Levels: lv}
			ds := make([]int, len(a.Idx))
			total := 1
			for i := range ds {
				ds[i] = r.Intn(8) + 3
				total *= ds[i]
			}
			inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, r, r.Intn(total/2)+1, ds...)
		}
		// Shared variables must agree on dimensions; rebuild with a common
		// dimension map instead.
		dims := map[string]int{}
		ok := true
		for _, a := range e.Accesses() {
			for m, v := range a.Idx {
				if d, seen := dims[v]; seen && d != inputs[a.Tensor].Dims[m] {
					ok = false
				} else {
					dims[v] = inputs[a.Tensor].Dims[m]
				}
			}
		}
		if !ok {
			for _, a := range e.Accesses() {
				ds := make([]int, len(a.Idx))
				total := 1
				for m, v := range a.Idx {
					ds[m] = dims[v]
					total *= ds[m]
				}
				inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, r, r.Intn(total/2)+1, ds...)
			}
		}
		g, err := custard.Compile(e, formats, lang.Schedule{})
		if err != nil {
			t.Fatalf("trial %d %q formats %v: %v", trial, expr, formats, err)
		}
		res, err := Run(g, inputs, Options{})
		if err != nil {
			t.Fatalf("trial %d %q: %v", trial, expr, err)
		}
		want, err := lang.Gold(e, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.Equal(res.Output, want, 1e-6); err != nil {
			t.Fatalf("trial %d %q: %v", trial, expr, err)
		}
	}
}

// TestFuzzRandomLoopOrders runs the fixed battery under random loop-order
// permutations, exercising vector, matrix and higher-dimensional reducers.
func TestFuzzRandomLoopOrders(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	dims := map[string]int{"i": 8, "j": 7, "k": 6, "l": 5}
	exprs := []string{
		"X(i,j) = B(i,k) * C(k,j)",
		"X(i,j) = B(i,j,k) * c(k)",
		"X(i,j,k) = B(i,j,l) * C(k,l)",
		"X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",
		"x(i) = B(i,j) * c(j)",
	}
	executed := 0
	for trial := 0; trial < 120; trial++ {
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
		g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order})
		if err != nil {
			t.Fatalf("trial %d %q order %v: compile: %v", trial, expr, order, err)
		}
		res, err := Run(g, inputs, Options{})
		if err != nil {
			t.Fatalf("trial %d %q order %v: %v", trial, expr, order, err)
		}
		want, err := lang.Gold(e, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.Equal(res.Output, want, 1e-6); err != nil {
			t.Fatalf("trial %d %q order %v: %v", trial, expr, order, err)
		}
		executed++
	}
	t.Logf("executed %d loop-order trials", executed)
}
