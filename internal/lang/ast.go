// Package lang implements the Custard frontend: tensor index notation
// (Einsum) parsing, per-tensor format specifications, and scheduling
// (paper Section 5). It also provides a reference dense evaluator used as
// the gold model in tests and experiments.
package lang

import (
	"fmt"
	"strings"

	"sam/internal/fiber"
)

// Op is a binary arithmetic operator in an expression tree.
type Op uint8

// Expression operators.
const (
	Mul Op = iota
	Add
	Sub
)

func (o Op) String() string {
	switch o {
	case Mul:
		return "*"
	case Add:
		return "+"
	case Sub:
		return "-"
	}
	return "?"
}

// Expr is a node of the right-hand-side expression tree.
type Expr interface {
	// Vars returns the index variables the subtree depends on, in first
	// appearance order.
	Vars() []string
	String() string
}

// Access is a tensor operand indexed by variables, e.g. B(i,k). An order-0
// access (no variables) is a scalar operand such as alpha.
type Access struct {
	Tensor string
	Idx    []string
}

// Vars implements Expr.
func (a *Access) Vars() []string { return append([]string(nil), a.Idx...) }

func (a *Access) String() string {
	if len(a.Idx) == 0 {
		return a.Tensor
	}
	return a.Tensor + "(" + strings.Join(a.Idx, ",") + ")"
}

// Binary is a binary operation node.
type Binary struct {
	Op   Op
	L, R Expr
}

// Vars implements Expr.
func (b *Binary) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range append(b.L.Vars(), b.R.Vars()...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Einsum is one tensor index notation statement: an output access, an
// expression, and the derived reduction variables (variables appearing on
// the right but not the left, which are implicitly summed).
type Einsum struct {
	LHS *Access
	RHS Expr
}

// OutputVars returns the result index variables.
func (e *Einsum) OutputVars() []string { return append([]string(nil), e.LHS.Idx...) }

// ReductionVars returns the summed variables in first-appearance order.
func (e *Einsum) ReductionVars() []string {
	out := []string{}
	isOut := map[string]bool{}
	for _, v := range e.LHS.Idx {
		isOut[v] = true
	}
	for _, v := range e.RHS.Vars() {
		if !isOut[v] {
			out = append(out, v)
		}
	}
	return out
}

// AllVars returns output variables followed by reduction variables.
func (e *Einsum) AllVars() []string {
	return append(e.OutputVars(), e.ReductionVars()...)
}

// Accesses returns every tensor access in the expression tree, left to
// right, including repeated tensors.
func (e *Einsum) Accesses() []*Access {
	var out []*Access
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *Access:
			out = append(out, n)
		case *Binary:
			walk(n.L)
			walk(n.R)
		}
	}
	walk(e.RHS)
	return out
}

func (e *Einsum) String() string {
	return e.LHS.String() + " = " + e.RHS.String()
}

// Validate checks that the statement is well-formed tensor index notation:
// no repeated variables within one access, the output's variables all appear
// on the right, and variable usage is dimension-consistent given dims.
func (e *Einsum) Validate() error {
	for _, a := range append(e.Accesses(), e.LHS) {
		seen := map[string]bool{}
		for _, v := range a.Idx {
			if seen[v] {
				return fmt.Errorf("lang: repeated index variable %q in access %s", v, a)
			}
			seen[v] = true
		}
	}
	rhs := map[string]bool{}
	for _, v := range e.RHS.Vars() {
		rhs[v] = true
	}
	for _, v := range e.LHS.Idx {
		if !rhs[v] {
			return fmt.Errorf("lang: output variable %q does not appear on the right-hand side", v)
		}
	}
	return nil
}

// Format is a tensor's data-representation specification: one storage format
// per level plus an optional explicit mode order mapping levels to access
// modes (level d stores access mode ModeOrder[d]).
type Format struct {
	Levels    []fiber.Format
	ModeOrder []int
}

// Formats maps tensor names to their format specifications.
type Formats map[string]Format

// Uniform builds a format with the same storage at every level.
func Uniform(order int, f fiber.Format) Format {
	lv := make([]fiber.Format, order)
	for i := range lv {
		lv[i] = f
	}
	return Format{Levels: lv}
}

// CSR is the compressed-sparse-rows style format: a dense outer level and
// compressed inner levels.
func CSR(order int) Format {
	f := Uniform(order, fiber.Compressed)
	if order > 0 {
		f.Levels[0] = fiber.Dense
	}
	return f
}

// Schedule carries the optimization decisions of paper Sections 4 and 5:
// the dataflow (loop) order of index variables and the optimization toggles.
type Schedule struct {
	// LoopOrder is the index-variable iteration order, outermost first.
	// Empty means the statement's natural order (output vars then reduction
	// vars).
	LoopOrder []string
	// UseLocators rewrites intersections against locatable (dense) levels
	// into locator blocks (paper Section 4.2).
	UseLocators bool
	// UseSkip fuses scanners and intersecters into coordinate-skipping
	// (galloping) intersections (paper Section 4.2).
	UseSkip bool
	// Opt is the optimization level stamped on the compiled graph
	// (Graph.OptLevel). Every level compiles the same paper-faithful graph
	// — one block per paper definition, the graphs Table 1 counts — so the
	// level changes no block and no cycle; it only enters the canonical key
	// and the fingerprint. Levels outside [0, opt.MaxLevel] fail
	// compilation.
	Opt int
	// Par parallelizes the graph across Par lanes at the outermost loop
	// level (paper Section 4.4): the outermost variable's merged streams
	// fork element-wise through parallelizer blocks, the downstream compute
	// sub-graph is replicated once per lane, and the lanes join back through
	// round-robin serializers — before tensor construction when the
	// outermost variable is kept in the output, before its one reducer when
	// it is reduced. Values of 0 and 1 compile the ordinary sequential graph.
	Par int
}

// NormalizeLoopOrder returns the schedule's loop order completed and checked
// against the statement's variables.
func (s Schedule) NormalizeLoopOrder(e *Einsum) ([]string, error) {
	all := e.AllVars()
	if len(s.LoopOrder) == 0 {
		return all, nil
	}
	if len(s.LoopOrder) != len(all) {
		return nil, fmt.Errorf("lang: loop order %v must mention all %d variables of %s", s.LoopOrder, len(all), e)
	}
	have := map[string]bool{}
	for _, v := range all {
		have[v] = true
	}
	seen := map[string]bool{}
	for _, v := range s.LoopOrder {
		if !have[v] {
			return nil, fmt.Errorf("lang: loop order variable %q not in statement %s", v, e)
		}
		if seen[v] {
			return nil, fmt.Errorf("lang: loop order repeats variable %q", v)
		}
		seen[v] = true
	}
	return append([]string(nil), s.LoopOrder...), nil
}
