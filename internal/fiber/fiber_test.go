package fiber

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randPoints draws sorted unique points.
func randPoints(r *rand.Rand, dims []int, n int) []Point {
	seen := map[int64]bool{}
	var pts []Point
	for len(pts) < n {
		crd := make([]int64, len(dims))
		key := int64(0)
		for i, d := range dims {
			crd[i] = int64(r.Intn(d))
			key = key*int64(d) + crd[i]
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		pts = append(pts, Point{Crd: crd, Val: r.Float64() + 0.1})
	}
	slices.SortFunc(pts, func(a, b Point) int { return slices.Compare(a.Crd, b.Crd) })
	return pts
}

// TestBuildIterateRoundTrip checks that building a fibertree under every
// format combination and iterating it returns exactly the input points.
func TestBuildIterateRoundTrip(t *testing.T) {
	formats := []Format{Dense, Compressed, Bitvector, LinkedList}
	r := rand.New(rand.NewSource(1))
	dims := []int{9, 7, 5}
	pts := randPoints(r, dims, 40)
	for _, f0 := range formats {
		for _, f1 := range formats {
			for _, f2 := range formats {
				fs := []Format{f0, f1, f2}
				ten, err := Build("T", dims, fs, pts)
				if err != nil {
					t.Fatalf("%v: %v", fs, err)
				}
				if err := ten.Validate(); err != nil {
					t.Fatalf("%v: %v", fs, err)
				}
				got := map[[3]int64]float64{}
				ten.Iterate(func(crd []int64, v float64) {
					if v != 0 {
						got[[3]int64{crd[0], crd[1], crd[2]}] = v
					}
				})
				if len(got) != len(pts) {
					t.Fatalf("%v: %d nonzeros, want %d", fs, len(got), len(pts))
				}
				for _, p := range pts {
					if got[[3]int64{p.Crd[0], p.Crd[1], p.Crd[2]}] != p.Val {
						t.Fatalf("%v: value mismatch at %v", fs, p.Crd)
					}
				}
			}
		}
	}
}

// TestQuickCompressedLevelInvariants property-tests the compressed level's
// coordinate ordering and locate agreement.
func TestQuickCompressedLevelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{r.Intn(20) + 2, r.Intn(20) + 2}
		n := r.Intn(dims[0]*dims[1]) + 1
		ten, err := Build("T", dims, []Format{Compressed, Compressed}, randPoints(r, dims, n))
		if err != nil {
			return false
		}
		for d, lvl := range ten.Levels {
			for f := 0; f < lvl.NumFibers(); f++ {
				prev := int64(-1)
				for i := 0; i < lvl.FiberLen(f); i++ {
					c := lvl.Coord(f, i)
					if c <= prev {
						return false
					}
					prev = c
					// Locate agrees with iteration.
					ref, ok := lvl.Locate(f, c)
					if !ok || ref != lvl.ChildRef(f, i) {
						return false
					}
				}
				// Absent coordinates do not locate.
				if _, ok := lvl.Locate(f, int64(dims[d])+5); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickBitvectorMatchesCompressed property-tests that bitvector levels
// present the same fibertree as compressed levels for the same data.
func TestQuickBitvectorMatchesCompressed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{r.Intn(100) + 2, r.Intn(200) + 2}
		n := r.Intn(min(dims[0]*dims[1], 300)) + 1
		pts := randPoints(r, dims, n)
		bt, err := Build("T", dims, []Format{Bitvector, Bitvector}, pts)
		if err != nil {
			return false
		}
		ct, err := Build("T", dims, []Format{Compressed, Compressed}, pts)
		if err != nil {
			return false
		}
		be, ce := bt.Entries(), ct.Entries()
		if len(be) != len(ce) {
			return false
		}
		for i := range be {
			if be[i].Val != ce[i].Val || be[i].Crd[0] != ce[i].Crd[0] || be[i].Crd[1] != ce[i].Crd[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBitvectorWordAccess checks word/base bookkeeping used by BV scanners.
func TestBitvectorWordAccess(t *testing.T) {
	ten, err := Build("v", []int{200}, []Format{Bitvector}, []Point{{[]int64{1}, 1}, {[]int64{63}, 2}, {[]int64{64}, 3}, {[]int64{130}, 4}})
	if err != nil {
		t.Fatal(err)
	}
	lvl := ten.Levels[0].(*BitvectorLevel)
	if got := lvl.WordsPerFiber(); got != 4 {
		t.Fatalf("WordsPerFiber = %d, want 4", got)
	}
	if w := lvl.Word(0, 0); w != (1<<1)|(1<<63) {
		t.Errorf("word 0 = %x", w)
	}
	if w := lvl.Word(0, 1); w != 1 {
		t.Errorf("word 1 = %x, want 1", w)
	}
	if b := lvl.WordBase(0, 1); b != 2 {
		t.Errorf("base of word 1 = %d, want 2", b)
	}
	if b := lvl.WordBase(0, 2); b != 3 {
		t.Errorf("base of word 2 = %d, want 3", b)
	}
	if ref, ok := lvl.Locate(0, 130); !ok || ref != 3 {
		t.Errorf("Locate(130) = %d,%v want 3,true", ref, ok)
	}
}

// TestLinkedListDiscordantAppend checks out-of-order fiber writes.
func TestLinkedListDiscordantAppend(t *testing.T) {
	l := &LinkedListLevel{N: 10}
	l.AppendFiber(2, []int32{1, 5}, []int32{10, 11})
	l.AppendFiber(0, []int32{3}, []int32{12})
	l.AppendFiber(2, []int32{7}, []int32{13}) // appends to fiber 2's chain
	if got := l.NumFibers(); got != 3 {
		t.Fatalf("NumFibers = %d, want 3", got)
	}
	if got := l.FiberLen(2); got != 3 {
		t.Fatalf("fiber 2 length = %d, want 3", got)
	}
	if c := l.Coord(2, 2); c != 7 {
		t.Errorf("fiber 2 coord 2 = %d, want 7", c)
	}
	if ref, ok := l.Locate(2, 5); !ok || ref != 11 {
		t.Errorf("Locate(2,5) = %d,%v", ref, ok)
	}
	if l.FiberLen(1) != 0 {
		t.Errorf("fiber 1 should be empty")
	}
}

// TestBuildErrors pins each of Build's error texts and which one wins when
// points have several faults: the format count first, then the first point
// out of order wherever it lies, then the first tuple of the wrong length
// or out of range.
func TestBuildErrors(t *testing.T) {
	pts := func(crds ...[]int64) []Point {
		out := make([]Point, len(crds))
		for i, c := range crds {
			out[i] = Point{Crd: c, Val: float64(i + 1)}
		}
		return out
	}
	cc := []Format{Compressed, Compressed}
	for _, tc := range []struct {
		name    string
		dims    []int
		formats []Format
		pts     []Point
		want    string
	}{
		{"formats", []int{4}, cc, pts([]int64{9, 9, 9}, []int64{0}), `fiber: 2 formats for order-1 tensor "T"`},
		{"unsorted", []int{4}, cc[:1], pts([]int64{2}, []int64{1}), `fiber: coordinates for "T" not sorted/unique at point 1`},
		{"duplicate", []int{4, 4}, cc, pts([]int64{1, 2}, []int64{1, 2}), `fiber: coordinates for "T" not sorted/unique at point 1`},
		{"prefix", []int{4, 4}, cc, pts([]int64{1, 2}, []int64{1}), `fiber: coordinates for "T" not sorted/unique at point 1`},
		{"range", []int{4}, cc[:1], pts([]int64{5}), `fiber: coordinate 5 out of range [0,4) in dim 0 of "T"`},
		{"negative", []int{4, 3}, cc, pts([]int64{0, -1}), `fiber: coordinate -1 out of range [0,3) in dim 1 of "T"`},
		{"arity", []int{4, 4}, cc, pts([]int64{1}, []int64{2, 0}), `fiber: coordinate tuple of length 1 for order-2 tensor "T"`},
		{"long", []int{4}, cc[:1], pts([]int64{1, 0}), `fiber: coordinate tuple of length 2 for order-1 tensor "T"`},
		// Order beats arity and range, even when it fails later.
		{"order after range", []int{4}, cc[:1], pts([]int64{5}, []int64{6}, []int64{1}), `fiber: coordinates for "T" not sorted/unique at point 2`},
		{"order after arity", []int{4, 4}, cc, pts([]int64{0}, []int64{1, 1}, []int64{1, 0}), `fiber: coordinates for "T" not sorted/unique at point 2`},
		// Of arity and range, the first tuple at fault wins.
		{"range then arity", []int{4, 4}, cc, pts([]int64{0, 9}, []int64{1}), `fiber: coordinate 9 out of range [0,4) in dim 1 of "T"`},
		{"arity then range", []int{4, 4}, cc, pts([]int64{0}, []int64{0, 9}), `fiber: coordinate tuple of length 1 for order-2 tensor "T"`},
		{"first range", []int{4, 4}, cc, pts([]int64{0, 5}, []int64{6, 0}), `fiber: coordinate 5 out of range [0,4) in dim 1 of "T"`},
		{"format", []int{4}, []Format{Format(99)}, pts([]int64{1}), `fiber: unsupported level format`},
	} {
		_, err := Build("T", tc.dims, tc.formats, tc.pts)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if ue := (*UnsortedError)(nil); errors.As(err, &ue) != strings.Contains(tc.want, "not sorted") {
			t.Errorf("%s: %v is an UnsortedError: %v", tc.name, err, ue != nil)
		}
	}
}

// TestScalarTensor checks order-0 handling.
func TestScalarTensor(t *testing.T) {
	s := Scalar("a", 3.5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	got := 0.0
	s.Iterate(func(crd []int64, v float64) { got = v })
	if got != 3.5 {
		t.Errorf("scalar value = %g", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Entry is one stored (coordinate, value) point produced by Iterate.
type Entry struct {
	Crd []int64
	Val float64
}

// Entries collects all stored points of the tensor.
func (t *Tensor) Entries() []Entry {
	var out []Entry
	t.Iterate(func(crd []int64, v float64) {
		c := make([]int64, len(crd))
		copy(c, crd)
		out = append(out, Entry{Crd: c, Val: v})
	})
	return out
}

// Iterate walks the fibertree depth-first and calls fn for every stored
// value with its full coordinate tuple (in level order). Iteration order is
// lexicographic in level order. It is the tests' reading of a tree; the
// engines read theirs through tensor.FromFiberPermuted.
func (t *Tensor) Iterate(fn func(crd []int64, val float64)) {
	if t.Order() == 0 {
		if len(t.Vals) > 0 {
			fn(nil, t.Vals[0])
		}
		return
	}
	crd := make([]int64, t.Order())
	t.walk(0, 0, crd, fn)
}

func (t *Tensor) walk(level int, ref int, crd []int64, fn func([]int64, float64)) {
	l := t.Levels[level]
	n := l.FiberLen(ref)
	for i := 0; i < n; i++ {
		crd[level] = l.Coord(ref, i)
		child := l.ChildRef(ref, i)
		if level == t.Order()-1 {
			fn(crd, t.Vals[child])
		} else {
			t.walk(level+1, int(child), crd, fn)
		}
	}
}

// TestLessMatchesCompare holds the inlined tuple order to slices.Compare,
// tuples of different lengths and equal prefixes included.
func TestLessMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tuple := func() []int64 {
		c := make([]int64, r.Intn(4))
		for k := range c {
			c[k] = int64(r.Intn(3) - 1)
		}
		return c
	}
	for range 5000 {
		a, b := tuple(), tuple()
		if got, want := Less(a, b), slices.Compare(a, b) < 0; got != want {
			t.Fatalf("Less(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}
