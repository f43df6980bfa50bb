package tiling

import (
	"fmt"
	"slices"

	"sam/internal/core"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// RowBlocks splits a matrix into n contiguous row-range blocks in the
// global coordinate space: every block keeps the source's full dims and its
// points keep their original coordinates, so block k holds exactly the rows
// [k·ceil(R/n), (k+1)·ceil(R/n)). This is the scale-out tiling unit the
// sharded serving layer stores one-per-shard: because the blocks partition
// the row index's domain, any multiplicative einsum evaluated per block
// yields partials that sum to the whole-matrix result (rows a block does
// not own contribute zero). Empty blocks are returned too; callers decide
// whether an empty tile is worth storing.
func RowBlocks(t *tensor.COO, n int) ([]*tensor.COO, error) {
	if t.Order() != 2 {
		return nil, fmt.Errorf("tiling: row blocks need an order-2 tensor, got order %d", t.Order())
	}
	if n < 1 {
		return nil, fmt.Errorf("tiling: row blocks need n >= 1, got %d", n)
	}
	rows := t.Dims[0]
	if n > rows {
		n = rows
	}
	per := (rows + n - 1) / n
	out := make([]*tensor.COO, n)
	for k := range out {
		out[k] = tensor.NewCOO(t.Name, t.Dims...)
	}
	for _, p := range t.Pts {
		k := int(p.Crd[0]) / per
		if k >= n {
			k = n - 1
		}
		out[k].Append(p.Val, p.Crd...)
	}
	for _, b := range out {
		b.Sort()
	}
	return out, nil
}

// Distributable checks the algebraic precondition for evaluating e once
// per row block of operand and summing the partials: operand appears exactly
// once, and every operator in the expression is a product — row-block
// partials of T sum to T, and a multilinear product distributes over that
// sum, while an added term would be re-counted once per block. fixVar, when
// non-empty, is the state a fixpoint rewrites between iterations; it must not
// be the blocked operand, whose blocks are stored and never rewritten.
func Distributable(e *lang.Einsum, operand, fixVar string) error {
	uses := 0
	for _, a := range e.Accesses() {
		if a.Tensor == operand {
			uses++
		}
	}
	if uses != 1 {
		return fmt.Errorf("tiled operand %q appears %d times in %q; per-tile partials sum to the result only when it appears exactly once", operand, uses, e.String())
	}
	var pure func(lang.Expr) bool
	pure = func(x lang.Expr) bool {
		b, ok := x.(*lang.Binary)
		return !ok || b.Op == lang.Mul && pure(b.L) && pure(b.R)
	}
	if !pure(e.RHS) {
		return fmt.Errorf("expression %q mixes addition with a tiled operand; per-tile partials sum to the result only for pure products (an added term would be re-counted once per tile)", e.String())
	}
	if fixVar == operand {
		return fmt.Errorf("fixpoint var %q is the tiled operand; the iterated state must be a plain input", operand)
	}
	return nil
}

// MergePartials sums per-block partial outputs coordinate-wise into one
// tensor named name — the host-side combine of Figure 9 generalized to the
// sharded serving layer. Exact zeros produced by cancellation are dropped,
// matching the engines' output assembly. The merged tensor takes its dims
// from the partials, which must all share them, and its points share their
// coordinate tuples; nil partials are skipped, and at least one must remain.
func MergePartials(name string, parts []*tensor.COO) (*tensor.COO, error) {
	var out *tensor.COO
	at := map[string]int{} // packed coordinate → index into out.Pts
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = tensor.NewCOO(name, p.Dims...)
		} else if !slices.Equal(p.Dims, out.Dims) {
			return nil, fmt.Errorf("tiling: partial %q dims %v, want %v", p.Name, p.Dims, out.Dims)
		}
		for _, pt := range p.Pts {
			k := core.PackKey(pt.Crd)
			i, seen := at[k]
			if !seen {
				i = len(out.Pts)
				at[k] = i
				out.Pts = append(out.Pts, tensor.Point{Crd: pt.Crd})
			}
			out.Pts[i].Val += pt.Val
		}
	}
	if out == nil {
		return nil, fmt.Errorf("tiling: no partials to merge into %q", name)
	}
	// A scalar keeps its one point even at zero: an order-0 tensor always
	// carries its value.
	if out.Order() > 0 {
		out.Pts = slices.DeleteFunc(out.Pts, func(pt tensor.Point) bool { return pt.Val == 0 })
		out.Sort()
	}
	return out, nil
}
