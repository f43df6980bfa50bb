// Package tensor provides the tensor substrate for the SAM reproduction:
// coordinate-list (COO) and dense tensors, conversion to fibertree storage,
// reshaping for split formats, the synthetic data generators of the paper's
// evaluation (uniform random, runs, and blocks — Figure 17), Matrix Market
// IO, and a reference dense evaluator used as gold for every experiment.
package tensor

import (
	"fmt"
	"math/rand"
	"sort"

	"sam/internal/fiber"
)

// COO is a coordinate-list tensor: one coordinate tuple and value per stored
// point. Points need not be sorted until Sort is called.
type COO struct {
	Name string
	Dims []int
	Pts  []Point
}

// Point is one stored tensor component.
type Point struct {
	Crd []int64
	Val float64
}

// NewCOO creates an empty COO tensor of the given shape.
func NewCOO(name string, dims ...int) *COO {
	return &COO{Name: name, Dims: append([]int(nil), dims...)}
}

// Order is the number of dimensions.
func (c *COO) Order() int { return len(c.Dims) }

// NNZ is the number of stored points.
func (c *COO) NNZ() int { return len(c.Pts) }

// Append adds one point; coordinates are copied.
func (c *COO) Append(val float64, crd ...int64) {
	c.Pts = append(c.Pts, Point{Crd: append([]int64(nil), crd...), Val: val})
}

// Sort orders points lexicographically and sums duplicates.
func (c *COO) Sort() {
	sort.Slice(c.Pts, func(i, j int) bool { return lexLess(c.Pts[i].Crd, c.Pts[j].Crd) })
	out := c.Pts[:0]
	for _, p := range c.Pts {
		if len(out) > 0 && lexEq(out[len(out)-1].Crd, p.Crd) {
			out[len(out)-1].Val += p.Val
			continue
		}
		out = append(out, p)
	}
	c.Pts = out
}

// Permute returns a new COO with dimensions reordered by perm: output
// dimension d is input dimension perm[d]. It implements transposition and
// the mode orderings derived from a schedule.
func (c *COO) Permute(name string, perm []int) (*COO, error) {
	if len(perm) != c.Order() {
		return nil, fmt.Errorf("tensor: permutation of length %d for order-%d tensor", len(perm), c.Order())
	}
	dims := make([]int, len(perm))
	for d, p := range perm {
		if p < 0 || p >= c.Order() {
			return nil, fmt.Errorf("tensor: permutation index %d out of range", p)
		}
		dims[d] = c.Dims[p]
	}
	out := NewCOO(name, dims...)
	for _, pt := range c.Pts {
		crd := make([]int64, len(perm))
		for d, p := range perm {
			crd[d] = pt.Crd[p]
		}
		out.Pts = append(out.Pts, Point{Crd: crd, Val: pt.Val})
	}
	out.Sort()
	return out, nil
}

// Split reshapes dimension d of size N into two dimensions (chunks,
// chunkSize) with chunkSize = ceil(N/chunks), producing an order+1 tensor.
// This is the iteration-splitting/tiling transformation of paper Section 4.1
// used by the "w/ split" configurations of Figure 13.
func (c *COO) Split(name string, d, chunks int) (*COO, error) {
	if d < 0 || d >= c.Order() {
		return nil, fmt.Errorf("tensor: split dimension %d out of range", d)
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("tensor: split into %d chunks", chunks)
	}
	size := (c.Dims[d] + chunks - 1) / chunks
	dims := make([]int, 0, c.Order()+1)
	dims = append(dims, c.Dims[:d]...)
	dims = append(dims, chunks, size)
	dims = append(dims, c.Dims[d+1:]...)
	out := NewCOO(name, dims...)
	for _, pt := range c.Pts {
		crd := make([]int64, 0, len(dims))
		crd = append(crd, pt.Crd[:d]...)
		crd = append(crd, pt.Crd[d]/int64(size), pt.Crd[d]%int64(size))
		crd = append(crd, pt.Crd[d+1:]...)
		out.Pts = append(out.Pts, Point{Crd: crd, Val: pt.Val})
	}
	out.Sort()
	return out, nil
}

// Build converts the COO tensor to fibertree storage with the given level
// formats. The COO is sorted as a side effect.
func (c *COO) Build(formats ...fiber.Format) (*fiber.Tensor, error) {
	c.Sort()
	return c.BuildNamed(c.Name, formats...)
}

// SortedStrict reports whether the stored points are strictly ascending
// lexicographically (sorted, no duplicates), without mutating the tensor.
// Callers use it to take read-only fast paths that are safe under
// concurrent runs sharing one input tensor.
func (c *COO) SortedStrict() bool {
	for i := 1; i < len(c.Pts); i++ {
		if !lexLess(c.Pts[i-1].Crd, c.Pts[i].Crd) {
			return false
		}
	}
	return true
}

// BuildNamed converts the COO tensor to fibertree storage under the given
// tensor name without mutating the receiver: points must already be strictly
// sorted (fiber.Build validates and errors otherwise). Coordinate slices are
// shared with the fibertree builder, which only reads them, so concurrent
// BuildNamed calls on one tensor are safe — the property the operand-binding
// fast path relies on.
func (c *COO) BuildNamed(name string, formats ...fiber.Format) (*fiber.Tensor, error) {
	coords := make([][]int64, len(c.Pts))
	vals := make([]float64, len(c.Pts))
	for i, p := range c.Pts {
		coords[i] = p.Crd
		vals[i] = p.Val
	}
	return fiber.Build(name, c.Dims, formats, coords, vals)
}

// FromFiber converts fibertree storage back to COO (sorted).
func FromFiber(t *fiber.Tensor) *COO {
	c := NewCOO(t.Name, t.Dims...)
	t.Iterate(func(crd []int64, v float64) {
		c.Append(v, crd...)
	})
	return c
}

// FromFiberPermuted is FromFiber(t).Permute(name, perm) — same points, order,
// values, errors and nil-ness — in one walk of a valid fibertree (t.Validate):
// every coordinate tuple is written already permuted into one shared slab, and
// the points are sorted only when perm is not the identity, where the walk is
// lexicographic as it stands.
func FromFiberPermuted(t *fiber.Tensor, name string, perm []int) (*COO, error) {
	out, err := NewCOO(name, t.Dims...).Permute(name, perm) // checks perm, permutes Dims
	if err != nil || len(t.Vals) == 0 {
		return out, err
	}
	identity := true
	for d, p := range perm {
		identity = identity && p == d
	}
	out.Pts = make([]Point, 0, len(t.Vals))
	slab := make([]int64, 0, len(perm)*len(t.Vals))
	t.Iterate(func(crd []int64, v float64) {
		base := len(slab)
		for _, p := range perm {
			slab = append(slab, crd[p])
		}
		out.Pts = append(out.Pts, Point{Crd: slab[base:len(slab):len(slab)], Val: v})
	})
	if !identity {
		out.Sort()
	}
	return out, nil
}

// Dense is a dense row-major tensor used as the gold-model representation.
type Dense struct {
	Dims []int
	Data []float64
}

// NewDense allocates a zero dense tensor.
func NewDense(dims ...int) *Dense {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return &Dense{Dims: append([]int(nil), dims...), Data: make([]float64, n)}
}

// offset computes the row-major position of a coordinate tuple.
func (d *Dense) offset(crd ...int64) int {
	o := 0
	for i, c := range crd {
		o = o*d.Dims[i] + int(c)
	}
	return o
}

// At reads one component.
func (d *Dense) At(crd ...int64) float64 { return d.Data[d.offset(crd...)] }

// Set writes one component.
func (d *Dense) Set(v float64, crd ...int64) { d.Data[d.offset(crd...)] = v }

// Add accumulates into one component.
func (d *Dense) Add(v float64, crd ...int64) { d.Data[d.offset(crd...)] += v }

// ToCOO converts the dense tensor to COO, dropping zeros.
func (d *Dense) ToCOO(name string) *COO {
	c := NewCOO(name, d.Dims...)
	crd := make([]int64, len(d.Dims))
	var walk func(dim int)
	walk = func(dim int) {
		if dim == len(d.Dims) {
			if v := d.At(crd...); v != 0 {
				c.Append(v, crd...)
			}
			return
		}
		for i := 0; i < d.Dims[dim]; i++ {
			crd[dim] = int64(i)
			walk(dim + 1)
		}
	}
	if len(d.Dims) == 0 {
		if d.Data[0] != 0 {
			c.Append(d.Data[0])
		}
		return c
	}
	walk(0)
	return c
}

// ToDense converts a COO tensor to dense.
func (c *COO) ToDense() *Dense {
	d := NewDense(c.Dims...)
	for _, p := range c.Pts {
		d.Add(p.Val, p.Crd...)
	}
	return d
}

// Equal compares two COO tensors after sorting, within tolerance eps.
func Equal(a, b *COO, eps float64) error {
	if a.Order() != b.Order() {
		return fmt.Errorf("tensor: order mismatch %d vs %d", a.Order(), b.Order())
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return fmt.Errorf("tensor: dim %d mismatch %d vs %d", i, a.Dims[i], b.Dims[i])
		}
	}
	a.Sort()
	b.Sort()
	// Zeros are semantically absent: compare nonzero support.
	ap := withoutZeros(a.Pts, eps)
	bp := withoutZeros(b.Pts, eps)
	if len(ap) != len(bp) {
		return fmt.Errorf("tensor: nnz mismatch %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if !lexEq(ap[i].Crd, bp[i].Crd) {
			return fmt.Errorf("tensor: point %d coordinate mismatch %v vs %v", i, ap[i].Crd, bp[i].Crd)
		}
		diff := ap[i].Val - bp[i].Val
		if diff < -eps || diff > eps {
			return fmt.Errorf("tensor: value mismatch at %v: %g vs %g", ap[i].Crd, ap[i].Val, bp[i].Val)
		}
	}
	return nil
}

func withoutZeros(pts []Point, eps float64) []Point {
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.Val < -eps || p.Val > eps {
			out = append(out, p)
		}
	}
	return out
}

func lexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func lexEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// UniformRandom generates a tensor with exactly nnz components placed
// uniformly at random (the paper's urandom pattern), values in (0, 1].
func UniformRandom(name string, rng *rand.Rand, nnz int, dims ...int) *COO {
	c := NewCOO(name, dims...)
	total := 1
	for _, d := range dims {
		total *= d
	}
	if nnz > total {
		nnz = total
	}
	seen := make(map[int64]bool, nnz)
	crd := make([]int64, len(dims))
	for len(c.Pts) < nnz {
		key := int64(0)
		for i, d := range dims {
			crd[i] = int64(rng.Intn(d))
			key = key*int64(d) + crd[i]
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		c.Append(rng.Float64()*0.9+0.1, crd...)
	}
	c.Sort()
	return c
}

// IdenticalBits reports whether two COO tensors are bitwise identical:
// same dimensions, same points in the same order, coordinates and values
// compared exactly (explicit zeros included). This is the optimizer's and
// the lane batteries' correctness bar — stricter than Equal, which sorts,
// tolerates eps, and ignores explicit zeros. A nil error means identical.
func IdenticalBits(a, b *COO) error {
	if len(a.Dims) != len(b.Dims) {
		return fmt.Errorf("order %d vs %d", len(a.Dims), len(b.Dims))
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return fmt.Errorf("dims %v vs %v", a.Dims, b.Dims)
		}
	}
	if len(a.Pts) != len(b.Pts) {
		return fmt.Errorf("%d points vs %d", len(a.Pts), len(b.Pts))
	}
	for i := range a.Pts {
		p, q := a.Pts[i], b.Pts[i]
		if p.Val != q.Val {
			return fmt.Errorf("point %d: %v=%g vs %v=%g", i, p.Crd, p.Val, q.Crd, q.Val)
		}
		for m := range p.Crd {
			if p.Crd[m] != q.Crd[m] {
				return fmt.Errorf("point %d: %v=%g vs %v=%g", i, p.Crd, p.Val, q.Crd, q.Val)
			}
		}
	}
	return nil
}

// QuantizeInts replaces every stored value with a small nonzero integer
// drawn from [1, max]. Integer values keep floating-point sums exact
// regardless of association, so differential batteries that reassociate
// reductions — parallel lane partials, optimizer rewrites — can demand
// bit-identical outputs instead of tolerance comparisons.
func QuantizeInts(rng *rand.Rand, max int, ts ...*COO) {
	for _, t := range ts {
		for i := range t.Pts {
			t.Pts[i].Val = float64(rng.Intn(max) + 1)
		}
	}
}

// RunsPair generates the paper's runs pattern (Figure 17): two vectors of
// length n with nnz nonzeros each, where one vector has stretches of length
// run between the nonzeros of the other, creating skippable gaps for
// coordinate-skipping intersection (Figure 13b).
func RunsPair(rng *rand.Rand, n, nnz, run int) (*COO, *COO) {
	b := NewCOO("b", n)
	c := NewCOO("c", n)
	// Alternate runs: b occupies a run, then c occupies a run, and so on,
	// until each has nnz nonzeros.
	pos := 0
	bn, cn := 0, 0
	for (bn < nnz || cn < nnz) && pos < n {
		for k := 0; k < run && pos < n && bn < nnz; k++ {
			b.Append(rng.Float64()*0.9+0.1, int64(pos))
			bn++
			pos++
		}
		for k := 0; k < run && pos < n && cn < nnz; k++ {
			c.Append(rng.Float64()*0.9+0.1, int64(pos))
			cn++
			pos++
		}
	}
	b.Sort()
	c.Sort()
	return b, c
}

// BlocksPair generates the paper's blocks pattern (Figure 17): two vectors
// with dense blocks of the given size placed throughout, sharing block
// positions so intersections within blocks are dense (Figure 13c).
func BlocksPair(rng *rand.Rand, n, nnz, block int) (*COO, *COO) {
	b := NewCOO("b", n)
	c := NewCOO("c", n)
	blocks := (nnz + block - 1) / block
	if blocks == 0 {
		return b, c
	}
	stride := n / blocks
	if stride < block {
		stride = block
	}
	bn, cn := 0, 0
	for k := 0; k < blocks; k++ {
		start := k * stride
		for i := 0; i < block && start+i < n; i++ {
			if bn < nnz {
				b.Append(rng.Float64()*0.9+0.1, int64(start+i))
				bn++
			}
			if cn < nnz {
				c.Append(rng.Float64()*0.9+0.1, int64(start+i))
				cn++
			}
		}
	}
	b.Sort()
	c.Sort()
	return b, c
}
