package sim

import (
	"fmt"
	"maps"
	"math"

	"sam/internal/tensor"
)

// Fixpoint update rules. The driver separates "what the program computes"
// (one relaxation step, e.g. y = M·x) from "how state advances" (the update
// rule below), which is all a whole family of iterative graph kernels needs:
// PageRank is SpMV plus the damped-teleport update, BFS/reachability is
// SpMV plus monotone saturation.
const (
	// FixpointPower feeds the program output straight back as the next
	// state: x' = y. Plain power iteration.
	FixpointPower = "power"
	// FixpointPageRank applies the damped PageRank update to the SpMV
	// output: x'_i = damping·y_i + (1-damping)/N over every node i. The
	// state is dense after one step (the teleport term touches every node).
	FixpointPageRank = "pagerank"
	// FixpointReach saturates monotonically: x'_i = 1 where x_i ≠ 0 or
	// y_i ≠ 0. With y = A·x this is frontier-less BFS — the reached set —
	// converging in graph-diameter iterations with Tol > 0.
	FixpointReach = "reach"
)

// maxFixpointIters caps MaxIters so a hostile or typo'd request cannot ask
// the serving layer for an unbounded iteration budget.
const maxFixpointIters = 100_000

// Fixpoint describes an iterative driver around one compiled program: the
// program is run repeatedly, its output folded back into the operand named
// Var by the Mode update rule, until the L1 step delta drops to Tol or
// MaxIters runs complete. The program compiles once and every iteration
// reuses it — with a bind cache on Options, static operands (the matrix)
// also bind once.
type Fixpoint struct {
	// Var names the state operand (an order-1 input tensor) the update rule
	// rewrites between iterations.
	Var string
	// MaxIters bounds the iteration count; required, in [1, 100000].
	MaxIters int
	// Tol stops iteration once the L1 delta ‖x' − x‖₁ of one update falls
	// to or below it. Zero disables the convergence check: exactly MaxIters
	// iterations run.
	Tol float64
	// Mode selects the update rule; empty means FixpointPower.
	Mode string
	// Damping is the FixpointPageRank damping factor in [0, 1]; zero means
	// the conventional 0.85. Ignored by the other modes.
	Damping float64
}

// FixpointResult is the outcome of Iterate and RunFixpoint.
type FixpointResult struct {
	// Output is the final state of Var after the last update.
	Output *tensor.COO
	// Iterations is how many program runs executed.
	Iterations int
	// Converged reports whether the Tol check stopped iteration (always
	// false when Tol is zero).
	Converged bool
	// Deltas holds the L1 step delta of every iteration, in order.
	Deltas []float64
	// Cycles is the total simulated cycle count across iterations (zero on
	// the comp engine).
	Cycles int
}

// withDefaults validates the spec and fills defaulted fields.
func (fx Fixpoint) withDefaults() (Fixpoint, error) {
	if fx.Var == "" {
		return fx, fmt.Errorf("sim: fixpoint: var is required")
	}
	if fx.MaxIters < 1 || fx.MaxIters > maxFixpointIters {
		return fx, fmt.Errorf("sim: fixpoint: max_iters %d outside [1, %d]", fx.MaxIters, maxFixpointIters)
	}
	if fx.Tol < 0 || math.IsNaN(fx.Tol) {
		return fx, fmt.Errorf("sim: fixpoint: negative tol %v", fx.Tol)
	}
	switch fx.Mode {
	case "":
		fx.Mode = FixpointPower
	case FixpointPower, FixpointPageRank, FixpointReach:
	default:
		return fx, fmt.Errorf("sim: fixpoint: unknown mode %q (want %q, %q, or %q)",
			fx.Mode, FixpointPower, FixpointPageRank, FixpointReach)
	}
	if fx.Mode == FixpointPageRank {
		if fx.Damping == 0 {
			fx.Damping = 0.85
		}
		if fx.Damping < 0 || fx.Damping > 1 || math.IsNaN(fx.Damping) {
			return fx, fmt.Errorf("sim: fixpoint: damping %v outside [0, 1]", fx.Damping)
		}
	}
	return fx, nil
}

// Validate checks the spec without running anything, for callers (the
// serving layer) that must reject a bad request before admission.
func (fx Fixpoint) Validate() error {
	_, err := fx.withDefaults()
	return err
}

// Apply computes one fixpoint update from the program output y and the
// previous state x, returning the next state and the L1 step delta
// ‖x' − x‖₁: the update rule Iterate runs after every step. The next state
// is built in ascending index order, so it is strictly sorted and rides the
// zero-copy bind fast path on the next iteration.
func (fx Fixpoint) Apply(y, x *tensor.COO) (*tensor.COO, float64, error) {
	fx, err := fx.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	if x.Order() != 1 {
		return nil, 0, fmt.Errorf("sim: fixpoint: state %q has order %d, want an order-1 vector", fx.Var, x.Order())
	}
	n := x.Dims[0]
	if y.Order() != 1 || y.Dims[0] != n {
		return nil, 0, fmt.Errorf("sim: fixpoint: program output has dims %v, want [%d] to match state %q", y.Dims, n, fx.Var)
	}
	old := make([]float64, n)
	for _, p := range x.Pts {
		old[p.Crd[0]] = p.Val
	}
	out := make([]float64, n)
	for _, p := range y.Pts {
		out[p.Crd[0]] = p.Val
	}
	next := tensor.NewCOO(x.Name, n)
	var delta float64
	for i := 0; i < n; i++ {
		var v float64
		switch fx.Mode {
		case FixpointPower:
			v = out[i]
		case FixpointPageRank:
			v = fx.Damping*out[i] + (1-fx.Damping)/float64(n)
		case FixpointReach:
			if old[i] != 0 || out[i] != 0 {
				v = 1
			}
		}
		delta += math.Abs(v - old[i])
		if v != 0 {
			next.Append(v, int64(i))
		}
	}
	return next, delta, nil
}

// Iterate is the fixpoint loop, the only one: from state x0 it repeats step
// (one relaxation, returning its output y and the cycles it cost), folds y
// back into the state with the spec's update rule, and stops on convergence
// (Tol) or after MaxIters steps. The spec and the state's shape are checked
// before the first step runs. What a step is belongs to the caller — a
// Program.Run (RunFixpoint), a fan-out over a fleet merged (the serving
// router), the dense reference evaluator (samsim -check) — so all of them
// advance and stop by the same code.
func (fx Fixpoint) Iterate(x0 *tensor.COO, step func(x *tensor.COO) (y *tensor.COO, cycles int, err error)) (*FixpointResult, error) {
	fx, err := fx.withDefaults()
	if err != nil {
		return nil, err
	}
	if x0.Order() != 1 {
		return nil, fmt.Errorf("sim: fixpoint: state %q has order %d, want an order-1 vector", fx.Var, x0.Order())
	}
	res := &FixpointResult{Output: x0}
	for it := 0; it < fx.MaxIters; it++ {
		y, cycles, err := step(res.Output)
		if err != nil {
			return nil, fmt.Errorf("sim: fixpoint iteration %d: %w", it+1, err)
		}
		next, delta, err := fx.Apply(y, res.Output)
		if err != nil {
			return nil, fmt.Errorf("sim: fixpoint iteration %d: %w", it+1, err)
		}
		res.Output = next
		res.Iterations++
		res.Cycles += cycles
		res.Deltas = append(res.Deltas, delta)
		if fx.Tol > 0 && delta <= fx.Tol {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// RunFixpoint drives a compiled program to a fixpoint: Iterate with one
// Program.Run per step. The caller's inputs map is not mutated. Per-iteration
// cost is one run — no re-parse, no re-compile, and with Options.BindCache
// set, no re-bind of the static operands.
func RunFixpoint(p *Program, inputs map[string]*tensor.COO, fx Fixpoint, opt Options) (*FixpointResult, error) {
	x0, ok := inputs[fx.Var]
	if !ok {
		return nil, fmt.Errorf("sim: fixpoint: no input named %q to iterate", fx.Var)
	}
	cur := maps.Clone(inputs)
	return fx.Iterate(x0, func(x *tensor.COO) (*tensor.COO, int, error) {
		cur[fx.Var] = x
		r, err := p.Run(cur, opt)
		if err != nil {
			return nil, 0, err
		}
		return r.Output, r.Cycles, nil
	})
}
