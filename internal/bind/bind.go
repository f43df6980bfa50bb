// Package bind resolves a compiled SAM graph's operand bindings against
// concrete input tensors. Every executor (the cycle engines in internal/sim
// and the compiled engine in internal/comp) needs the same two steps
// before running a graph: build each operand's fibertree storage in the
// scheduled mode order, and resolve the output dimension sizes. Centralizing
// them here keeps the engines free of duplicated binding plumbing. Equivalent
// bindings — a tensor accessed twice with the same mode order and formats —
// share one read-only fibertree, so a repeated operand is built once.
package bind

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/obs"
	"sam/internal/tensor"
)

// Cache memoizes built operand storage across runs. Lookup is keyed by the
// source tensor's identity (pointer) and the binding signature — operand
// name, mode order, and level formats — so an implementation that can prove
// a source tensor immutable (serve's named tensor store) returns the
// fibertree built by an earlier run and a warm reference skips binding
// entirely. Implementations must be safe for concurrent use, and stored
// trees are shared across concurrent runs, so every consumer must treat
// them as read-only (the engines already do: run state lives in per-run
// contexts, never in operand storage).
type Cache interface {
	// Lookup returns the memoized storage for (src, sig), if any.
	Lookup(src *tensor.COO, sig string) (*fiber.Tensor, bool)
	// Store offers freshly built storage for (src, sig). Implementations
	// that do not manage src (an inline request operand) simply drop it.
	Store(src *tensor.COO, sig string, ft *fiber.Tensor)
}

// Plan is the compile-time half of operand binding: the operand and output
// dimension metadata lifted out of a graph once, so that executors that run
// the same graph many times (sim.Program, the serving cache) pay only the
// input-dependent work — fibertree construction and dimension lookup — per
// request. A Plan is immutable after NewPlan and safe for concurrent use.
type Plan struct {
	bindings []graph.Binding
	dims     []graph.DimRef
	// sigs holds each binding's cache signature (operand, mode order,
	// formats), precomputed so cached binds pay no string building per run.
	sigs []string
	// same[i] is the index of the first earlier binding with binding i's
	// source, mode order and formats, or -1: binding i then shares that
	// binding's storage instead of building its own.
	same []int
}

// NewPlan captures a graph's binding metadata. The graph's Bindings and
// OutputDims slices are referenced, not copied; callers must not mutate the
// graph afterwards (compiled graphs are treated as immutable everywhere).
func NewPlan(g *graph.Graph) *Plan {
	return NewPlanFromParts(g.Bindings, g.OutputDims)
}

// NewPlanFromParts builds a Plan from bare binding metadata, for callers that
// hold a graph's lifted metadata without the graph itself — a decoded program
// artifact carries exactly these two slices. The slices are referenced, not
// copied, under the same immutability contract as NewPlan.
func NewPlanFromParts(bindings []graph.Binding, dims []graph.DimRef) *Plan {
	same := make([]int, len(bindings))
	for i, bd := range bindings {
		same[i] = slices.IndexFunc(bindings[:i], func(e graph.Binding) bool {
			return e.Source == bd.Source && slices.Equal(e.ModeOrder, bd.ModeOrder) && slices.Equal(e.Formats, bd.Formats)
		})
	}
	return &Plan{bindings: bindings, dims: dims, sigs: bindingSigs(bindings), same: same}
}

// bindingSigs precomputes each binding's cache signature.
func bindingSigs(bindings []graph.Binding) []string {
	sigs := make([]string, len(bindings))
	for i, bd := range bindings {
		var b strings.Builder
		b.WriteString(bd.Operand)
		b.WriteByte('|')
		for _, m := range bd.ModeOrder {
			b.WriteString(strconv.Itoa(m))
			b.WriteByte(',')
		}
		b.WriteByte('|')
		for _, f := range bd.Formats {
			b.WriteString(strconv.Itoa(int(f)))
			b.WriteByte(',')
		}
		sigs[i] = b.String()
	}
	return sigs
}

// Operands builds each operand's fibertree storage from its source tensor,
// permuting mode orders and building the per-level storage the plan's
// formats request. Inputs are keyed by source tensor name; order-0 tensors
// are scalars. This is the run-time half of binding: its cost scales with
// the input data, not the graph.
func (p *Plan) Operands(inputs map[string]*tensor.COO) (map[string]*fiber.Tensor, error) {
	return p.OperandsCached(inputs, nil)
}

// OperandsCached is Operands with a memoization layer: each binding first
// consults the cache for storage built by an earlier run over the same
// source tensor, and offers what it builds back. A nil cache degrades to
// plain Operands. A binding equivalent to an earlier one gets that
// binding's tree and consults nothing. Cached trees are shared read-only
// across runs, so this is only sound for sources the cache can prove
// immutable — the cache itself enforces that by declining Store for tensors
// it does not manage.
func (p *Plan) OperandsCached(inputs map[string]*tensor.COO, cache Cache) (map[string]*fiber.Tensor, error) {
	bound := make(map[string]*fiber.Tensor, len(p.bindings))
	for i, bd := range p.bindings {
		if j := p.same[i]; j >= 0 {
			bound[bd.Operand] = bound[p.bindings[j].Operand]
			continue
		}
		src, ok := inputs[bd.Source]
		if !ok {
			return nil, fmt.Errorf("bind: no input bound for tensor %q", bd.Source)
		}
		if cache != nil {
			if ft, ok := cache.Lookup(src, p.sigs[i]); ok {
				bound[bd.Operand] = ft
				continue
			}
		}
		ft, err := p.build(bd, src)
		if err != nil {
			return nil, err
		}
		if cache != nil {
			cache.Store(src, p.sigs[i], ft)
		}
		bound[bd.Operand] = ft
	}
	return bound, nil
}

// build constructs one operand's fibertree storage from its source tensor.
func (p *Plan) build(bd graph.Binding, src *tensor.COO) (*fiber.Tensor, error) {
	// Identity mode orders build storage straight off the source points
	// (read-only, so concurrent jobs can share one input tensor), and the
	// builder's one pass over them is the sortedness check: only an input
	// it finds out of order pays the permute clone and its sort. This is
	// the hot half of per-request binding: the permute copy used to
	// dominate compiled-engine runs end to end.
	if identityOrder(bd.ModeOrder) {
		ft, err := src.BuildNamed(bd.Operand, bd.Formats...)
		if unsorted := (*fiber.UnsortedError)(nil); !errors.As(err, &unsorted) {
			return ft, err
		}
	}
	perm, err := src.Permute(bd.Operand, bd.ModeOrder)
	if err != nil {
		return nil, err
	}
	return perm.Build(bd.Formats...)
}

// BindTraced is OperandsCached wrapped in a "bind" trace span: the full
// run-time binding entry point the engines use.
func (p *Plan) BindTraced(inputs map[string]*tensor.COO, cache Cache, tr *obs.Trace) (map[string]*fiber.Tensor, error) {
	sp := tr.Start("bind")
	bound, err := p.OperandsCached(inputs, cache)
	sp.End()
	return bound, err
}

// identityOrder reports whether a mode order is the identity permutation.
func identityOrder(order []int) bool {
	for d, m := range order {
		if m != d {
			return false
		}
	}
	return true
}

// OutputDims resolves the output level dimension sizes from the input
// tensors the plan's metadata references.
func (p *Plan) OutputDims(inputs map[string]*tensor.COO) ([]int, error) {
	dims := make([]int, 0, len(p.dims))
	for _, d := range p.dims {
		src, ok := inputs[d.Tensor]
		if !ok {
			return nil, fmt.Errorf("bind: output dimension references unbound tensor %q", d.Tensor)
		}
		if d.Mode < 0 || d.Mode >= src.Order() {
			return nil, fmt.Errorf("bind: output dimension references mode %d of order-%d tensor %q", d.Mode, src.Order(), d.Tensor)
		}
		dims = append(dims, src.Dims[d.Mode])
	}
	return dims, nil
}
