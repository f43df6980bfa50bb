package fiber

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randPoints draws sorted unique coordinate tuples.
func randPoints(r *rand.Rand, dims []int, n int) ([][]int64, []float64) {
	seen := map[int64]bool{}
	var coords [][]int64
	var vals []float64
	for len(coords) < n {
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
		coords = append(coords, crd)
		vals = append(vals, r.Float64()+0.1)
	}
	sortPoints(coords, vals)
	return coords, vals
}

func sortPoints(coords [][]int64, vals []float64) {
	for i := 1; i < len(coords); i++ {
		for j := i; j > 0 && slices.Compare(coords[j], coords[j-1]) < 0; j-- {
			coords[j], coords[j-1] = coords[j-1], coords[j]
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
}

// TestBuildIterateRoundTrip checks that building a fibertree under every
// format combination and iterating it returns exactly the input points.
func TestBuildIterateRoundTrip(t *testing.T) {
	formats := []Format{Dense, Compressed, Bitvector, LinkedList}
	r := rand.New(rand.NewSource(1))
	dims := []int{9, 7, 5}
	coords, vals := randPoints(r, dims, 40)
	for _, f0 := range formats {
		for _, f1 := range formats {
			for _, f2 := range formats {
				fs := []Format{f0, f1, f2}
				ten, err := Build("T", dims, fs, coords, vals)
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
				if len(got) != len(coords) {
					t.Fatalf("%v: %d nonzeros, want %d", fs, len(got), len(coords))
				}
				for i, crd := range coords {
					if got[[3]int64{crd[0], crd[1], crd[2]}] != vals[i] {
						t.Fatalf("%v: value mismatch at %v", fs, crd)
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
		coords, vals := randPoints(r, dims, n)
		ten, err := Build("T", dims, []Format{Compressed, Compressed}, coords, vals)
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
		coords, vals := randPoints(r, dims, n)
		bt, err := Build("T", dims, []Format{Bitvector, Bitvector}, coords, vals)
		if err != nil {
			return false
		}
		ct, err := Build("T", dims, []Format{Compressed, Compressed}, coords, vals)
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
	coords := [][]int64{{1}, {63}, {64}, {130}}
	vals := []float64{1, 2, 3, 4}
	ten, err := Build("v", []int{200}, []Format{Bitvector}, coords, vals)
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

// TestBuildErrors checks builder validation.
func TestBuildErrors(t *testing.T) {
	if _, err := Build("T", []int{4}, []Format{Compressed, Compressed}, nil, nil); err == nil {
		t.Error("format arity mismatch accepted")
	}
	if _, err := Build("T", []int{4}, []Format{Compressed}, [][]int64{{2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("unsorted coordinates accepted")
	}
	if _, err := Build("T", []int{4}, []Format{Compressed}, [][]int64{{5}}, []float64{1}); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := Build("T", []int{4}, []Format{Compressed}, [][]int64{{1}}, []float64{1, 2}); err == nil {
		t.Error("value count mismatch accepted")
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
