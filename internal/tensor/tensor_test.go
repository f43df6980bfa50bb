package tensor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sam/internal/fiber"
)

func TestSortDeduplicates(t *testing.T) {
	c := NewCOO("T", 4, 4)
	c.Append(1, 2, 3)
	c.Append(2, 0, 1)
	c.Append(3, 2, 3) // duplicate coordinate: values sum
	c.Sort()
	if c.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", c.NNZ())
	}
	if c.Pts[0].Crd[0] != 0 || c.Pts[1].Val != 4 {
		t.Errorf("sorted points = %+v", c.Pts)
	}
}

// TestQuickPermuteInverse checks that permuting by p then by p's inverse is
// the identity.
func TestQuickPermuteInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{r.Intn(8) + 2, r.Intn(8) + 2, r.Intn(8) + 2}
		c := UniformRandom("T", r, r.Intn(30)+1, dims...)
		perm := r.Perm(3)
		inv := make([]int, 3)
		for i, p := range perm {
			inv[p] = i
		}
		fwd, err := c.Permute("P", perm)
		if err != nil {
			return false
		}
		back, err := fwd.Permute("T", inv)
		if err != nil {
			return false
		}
		return Equal(c, back, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitPreservesPoints checks the iteration-splitting reshape.
func TestQuickSplitPreservesPoints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(500) + 10
		chunks := r.Intn(15) + 1
		c := UniformRandom("v", r, r.Intn(n)+1, n)
		s, err := c.Split("s", 0, chunks)
		if err != nil {
			return false
		}
		size := int64(s.Dims[1])
		back := NewCOO("v", n)
		for _, p := range s.Pts {
			back.Append(p.Val, p.Crd[0]*size+p.Crd[1])
		}
		back.Sort()
		return Equal(c, back, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := UniformRandom("M", rng, 50, 20, 30)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket("M", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(c, back, 0); err != nil {
		t.Error(err)
	}
}

func TestMatrixMarketSymmetricAndPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
`
	m, err := ReadMatrixMarket("S", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) mirrors to (1,2); (3,3) is diagonal.
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	d := m.ToDense()
	if d.At(1, 0) != 1 || d.At(0, 1) != 1 || d.At(2, 2) != 1 {
		t.Errorf("unexpected dense contents: %+v", d.Data)
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	for _, bad := range []string{
		"not a header\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n1 1\n1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
	} {
		if _, err := ReadMatrixMarket("X", strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed input %q", bad)
		}
	}
}

func TestUniformRandomExactNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := UniformRandom("T", rng, 123, 40, 40)
	if c.NNZ() != 123 {
		t.Errorf("nnz = %d, want 123", c.NNZ())
	}
	// All coordinates unique and in range.
	seen := map[[2]int64]bool{}
	for _, p := range c.Pts {
		k := [2]int64{p.Crd[0], p.Crd[1]}
		if seen[k] {
			t.Fatalf("duplicate coordinate %v", k)
		}
		seen[k] = true
		if p.Crd[0] >= 40 || p.Crd[1] >= 40 {
			t.Fatalf("coordinate out of range: %v", p.Crd)
		}
	}
	// Requesting more nonzeros than cells saturates.
	full := UniformRandom("F", rng, 100, 5, 5)
	if full.NNZ() != 25 {
		t.Errorf("saturated nnz = %d, want 25", full.NNZ())
	}
}

func TestRunsPairStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b, c := RunsPair(rng, 2000, 400, 8)
	if b.NNZ() != 400 || c.NNZ() != 400 {
		t.Fatalf("nnz = %d/%d, want 400/400", b.NNZ(), c.NNZ())
	}
	// Supports are disjoint: runs alternate.
	bset := map[int64]bool{}
	for _, p := range b.Pts {
		bset[p.Crd[0]] = true
	}
	for _, p := range c.Pts {
		if bset[p.Crd[0]] {
			t.Fatalf("runs overlap at %d", p.Crd[0])
		}
	}
}

func TestBlocksPairStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b, c := BlocksPair(rng, 2000, 400, 16)
	if b.NNZ() != 400 || c.NNZ() != 400 {
		t.Fatalf("nnz = %d/%d, want 400/400", b.NNZ(), c.NNZ())
	}
	// Blocks coincide: intersection is the full support.
	bset := map[int64]bool{}
	for _, p := range b.Pts {
		bset[p.Crd[0]] = true
	}
	common := 0
	for _, p := range c.Pts {
		if bset[p.Crd[0]] {
			common++
		}
	}
	if common != 400 {
		t.Errorf("blocks share %d positions, want 400", common)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := UniformRandom("T", rng, 30, 8, 9)
	back := c.ToDense().ToCOO("T")
	if err := Equal(c, back, 0); err != nil {
		t.Error(err)
	}
}

func TestEqualReportsMismatches(t *testing.T) {
	a := NewCOO("a", 4)
	a.Append(1, 1)
	b := NewCOO("b", 4)
	b.Append(1, 2)
	if err := Equal(a, b, 0); err == nil {
		t.Error("coordinate mismatch not detected")
	}
	c := NewCOO("c", 4)
	c.Append(2, 1)
	if err := Equal(a, c, 0); err == nil {
		t.Error("value mismatch not detected")
	}
	d := NewCOO("d", 5)
	d.Append(1, 1)
	if err := Equal(a, d, 0); err == nil {
		t.Error("shape mismatch not detected")
	}
	// Explicit zeros are ignored.
	e := NewCOO("e", 4)
	e.Append(1, 1)
	e.Append(0, 3)
	if err := Equal(a, e, 0); err != nil {
		t.Errorf("explicit zero should be ignored: %v", err)
	}
}

// TestQuickBuildFromCOOMatchesEntries checks COO -> fibertree -> COO.
func TestQuickBuildFromCOOMatchesEntries(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{r.Intn(10) + 1, r.Intn(10) + 1}
		c := UniformRandom("T", r, r.Intn(dims[0]*dims[1])+1, dims...)
		ft, err := c.Build(fiber.Compressed, fiber.Compressed)
		if err != nil {
			return false
		}
		return Equal(c, FromFiber(ft), 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFromFiberPermutedMatchesPermute holds the one-walk conversion to
// FromFiber(ft).Permute(name, perm) — points, order, values, errors, and the
// nil-ness of Dims, Pts and order-0 Crd that the JSON encoding shows — over
// random fibertrees of order 0 to 3 in every level format, every permutation
// of their levels, empty tensors, and a writer-shaped tree with empty fibers.
func TestFromFiberPermutedMatchesPermute(t *testing.T) {
	check := func(label string, ft *fiber.Tensor, perm []int) {
		t.Helper()
		want, werr := FromFiber(ft).Permute("X", perm)
		got, gerr := FromFiberPermuted(ft, "X", perm)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s perm %v: error %v, Permute gives %v", label, perm, gerr, werr)
		}
		if werr != nil {
			return
		}
		if err := IdenticalBits(got, want); err != nil {
			t.Fatalf("%s perm %v: %v", label, perm, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s perm %v: differs in nil-ness:\n got  %#v\n want %#v", label, perm, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("%s perm %v: JSON differs:\n got  %s\n want %s", label, perm, gj, wj)
		}
	}
	var perms func(n int) [][]int
	perms = func(n int) [][]int {
		if n == 0 {
			return [][]int{{}}
		}
		var out [][]int
		for _, p := range perms(n - 1) {
			for at := 0; at <= len(p); at++ {
				q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
				out = append(out, q)
			}
		}
		return out
	}
	formats := []fiber.Format{fiber.Dense, fiber.Compressed, fiber.Bitvector, fiber.LinkedList}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		order := r.Intn(4)
		dims := make([]int, order)
		fs := make([]fiber.Format, order)
		total := 1
		for d := range dims {
			dims[d] = r.Intn(5) + 1
			fs[d] = formats[r.Intn(len(formats))]
			total *= dims[d]
		}
		c := UniformRandom("T", r, r.Intn(total+1), dims...)
		if order == 0 {
			c.Append(r.Float64())
		}
		ft, err := c.Build(fs...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d dims %v formats %v nnz %d", trial, dims, fs, c.NNZ())
		for _, p := range perms(order) {
			check(label, ft, p)
		}
		check(label, ft, make([]int, order+1))
		if order > 0 {
			bad := perms(order)[0]
			bad[0] = order
			check(label, ft, bad)
		}
	}
	// What a level writer emits and fiber.Build never does: empty fibers
	// below stored coordinates (row 0 of 2 is empty).
	holes := &fiber.Tensor{Name: "T", Dims: []int{3, 4}, Vals: []float64{5, 0, 6},
		Levels: []fiber.Level{
			&fiber.CompressedLevel{N: 3, Seg: []int32{0, 2}, Crd: []int32{0, 2}},
			&fiber.CompressedLevel{N: 4, Seg: []int32{0, 0, 3}, Crd: []int32{0, 1, 3}},
		}}
	if err := holes.Validate(); err != nil {
		t.Fatal(err)
	}
	check("empty fibers", holes, []int{0, 1})
	check("empty fibers", holes, []int{1, 0})
}
