// Package tensor provides the tensor substrate for the SAM reproduction:
// coordinate-list (COO) and dense tensors, conversion to fibertree storage,
// reshaping for split formats, the synthetic data generators of the paper's
// evaluation (uniform random, runs, and blocks — Figure 17), Matrix Market
// IO, and a reference dense evaluator used as gold for every experiment.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"sam/internal/fiber"
)

// COO is a coordinate-list tensor: one coordinate tuple and value per stored
// point. Points need not be sorted until Sort is called.
type COO struct {
	Name string
	Dims []int
	Pts  []Point
}

// Point is one stored tensor component: fiber.Build reads a COO's points
// as they stand.
type Point = fiber.Point

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
	slices.SortFunc(c.Pts, byCrd)
	out := c.Pts[:0]
	for _, p := range c.Pts {
		if len(out) > 0 && byCrd(out[len(out)-1], p) == 0 {
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
	if err := checkPerm(perm, c.Order()); err != nil {
		return nil, err
	}
	dims := make([]int, len(perm))
	for d, p := range perm {
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

// checkPerm reports why perm does not permute order modes, if it does not.
func checkPerm(perm []int, order int) error {
	if len(perm) != order {
		return fmt.Errorf("tensor: permutation of length %d for order-%d tensor", len(perm), order)
	}
	for d, p := range perm {
		if p < 0 || p >= order {
			return fmt.Errorf("tensor: permutation index %d out of range", p)
		}
		if slices.Index(perm[:d], p) >= 0 {
			return fmt.Errorf("tensor: permutation index %d repeated", p)
		}
	}
	return nil
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

// BuildNamed converts the COO tensor to fibertree storage under the given
// tensor name without mutating the receiver: points must already be strictly
// sorted (fiber.Build checks, and fails with a *fiber.UnsortedError
// otherwise). The points go to the fibertree builder as they stand, which
// only reads them, so concurrent BuildNamed calls on one tensor are safe —
// the property the operand-binding fast path relies on.
func (c *COO) BuildNamed(name string, formats ...fiber.Format) (*fiber.Tensor, error) {
	return fiber.Build(name, c.Dims, formats, c.Pts)
}

// PermOf returns the permutation Permute takes from a tensor whose modes
// are named from to the mode order named to: output mode d is input mode
// perm[d]. It is how an engine reads its result in left-hand-side order out
// of the loop order its writers wrote. A name of to missing from from fails.
func PermOf(to, from []string) ([]int, error) {
	perm := make([]int, len(to))
	for d, v := range to {
		if perm[d] = slices.Index(from, v); perm[d] < 0 {
			return nil, fmt.Errorf("tensor: output variable %q missing from graph metadata", v)
		}
	}
	return perm, nil
}

// FromFiberPermuted reads a result out of the fibertree that a run's level
// writers wrote: it validates t and converts it to COO with its modes
// permuted, as converting and then calling Permute(name, perm) would — same
// points, order, values, errors and nil-ness. One walk writes every
// coordinate tuple already permuted into one shared slab, reading
// compressed levels directly and any other format through fiber.Level; the
// walk is lexicographic in the tree's level order, so an identity perm
// needs nothing more and any other one needs sortPermuted's counting
// passes. Beside the result it allocates only those passes' buffer and counts.
func FromFiberPermuted(t *fiber.Tensor, name string, perm []int) (*COO, error) {
	order := t.Order()
	if err := checkPerm(perm, order); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tensor: assembled output invalid: %w", err)
	}
	out := &COO{Name: name}
	if order > 0 {
		out.Dims = make([]int, order)
		for d, p := range perm {
			out.Dims[d] = t.Dims[p]
		}
	}
	if len(t.Vals) == 0 {
		return out, nil
	}
	w := walk{t: t, perm: perm, pts: make([]Point, len(t.Vals)), slab: make([]int64, order*(len(t.Vals)+1))}
	if order == 0 {
		w.point(0)
	} else {
		w.level(0, 0)
	}
	out.Pts = sortPermuted(w.pts, out.Dims, perm)
	return out, nil
}

// sortPermuted puts the walk's points, lexicographic in the tree's level
// order, in lexicographic output order, as a comparison sort by byCrd
// would; points are unique, so a stable sort is the sort. Output modes from
// s on, where perm[s:] is perm's longest ascending suffix, are in order
// already among points that agree before s: the walk ordered them by those
// same levels. So stable counting passes, least significant first, over
// modes s-1 down to 0 finish the job. Each pass counts one digit of a
// mode's coordinate, at most max(8, bits in len(pts)) bits wide, which keeps
// the counts O(len(pts)) whatever a dimension's size.
func sortPermuted(pts []Point, dims, perm []int) []Point {
	s := len(perm)
	for s > 0 && (s == len(perm) || perm[s-1] < perm[s]) {
		s--
	}
	if s == 0 || len(pts) < 2 {
		return pts
	}
	width := max(8, bits.Len(uint(len(pts))))
	var tmp []Point
	var count []int
	for d := s - 1; d >= 0; d-- {
		size := bits.Len(uint(dims[d] - 1))
		for shift := 0; shift < size; shift += width {
			w := min(width, size-shift)
			if tmp == nil {
				tmp = make([]Point, len(pts))
			}
			if len(count) < 1<<w+1 {
				count = make([]int, 1<<w+1)
			}
			at := count[:1<<w+1]
			clear(at)
			mask := int64(1)<<w - 1
			for _, p := range pts {
				at[(p.Crd[d]>>shift)&mask+1]++
			}
			for k := 1; k < len(at); k++ {
				at[k] += at[k-1]
			}
			for _, p := range pts {
				k := (p.Crd[d] >> shift) & mask
				tmp[at[k]] = p
				at[k]++
			}
			pts, tmp = tmp, pts
		}
	}
	return pts
}

// walk is FromFiberPermuted's depth-first walk of a valid fibertree. The
// point being built occupies slab[n*order:][:order]: each level writes its
// coordinate there at its output mode, so when a leaf closes the point its
// tuple is complete and already permuted. The slab holds one point more
// than the tree, where the levels above a last, empty fiber write.
type walk struct {
	t    *fiber.Tensor
	perm []int
	pts  []Point
	slab []int64
	n    int // points closed
}

// level walks fiber ref of level d, reading a compressed level directly.
func (w *walk) level(d, ref int) {
	k := len(w.perm)
	m := slices.Index(w.perm, d) // the output mode level d writes
	l := w.t.Levels[d]
	cl, _ := l.(*fiber.CompressedLevel)
	for i := range l.FiberLen(ref) {
		var crd, child int64
		if cl != nil {
			child = int64(cl.Seg[ref]) + int64(i)
			crd = int64(cl.Crd[child])
		} else {
			crd, child = l.Coord(ref, i), l.ChildRef(ref, i)
		}
		w.slab[w.n*k+m] = crd
		if d == k-1 {
			w.point(int(child))
		} else {
			w.level(d+1, int(child))
		}
	}
}

// point closes the point being built with value Vals[v] and starts the
// next one on its coordinates, which the levels above the leaf keep.
func (w *walk) point(v int) {
	k := len(w.perm)
	base := w.n * k
	crd := w.slab[base : base+k : base+k]
	w.pts[w.n] = Point{Crd: crd, Val: w.t.Vals[v]}
	w.n++
	copy(w.slab[base+k:], crd)
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
		if byCrd(ap[i], bp[i]) != 0 {
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

// byCrd orders points lexicographically by coordinates: the one order Sort
// and FromFiberPermuted put points in.
func byCrd(a, b Point) int { return slices.Compare(a.Crd, b.Crd) }

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
// same dimensions, same points in the same order, coordinates compared
// exactly and values bit for bit (explicit zeros and their signs included). This is the engine and
// lane batteries' correctness bar — stricter than Equal, which sorts,
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
		if math.Float64bits(p.Val) != math.Float64bits(q.Val) {
			return fmt.Errorf("point %d: %v=%v vs %v=%v", i, p.Crd, p.Val, q.Crd, q.Val)
		}
		for m := range p.Crd {
			if p.Crd[m] != q.Crd[m] {
				return fmt.Errorf("point %d: %v=%v vs %v=%v", i, p.Crd, p.Val, q.Crd, q.Val)
			}
		}
	}
	return nil
}

// QuantizeInts replaces every stored value with a small nonzero integer
// drawn from [1, max]. Integer values keep floating-point sums exact
// regardless of association, so differential batteries whose reference sums
// in another order — the gold model, another engine — can demand
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
