package tiling

import (
	"math/rand"
	"strings"
	"testing"

	"sam/internal/lang"
	"sam/internal/tensor"
)

// TestRowBlocksPartition checks that row blocks partition the nonzeros by
// row range, keep global dims and coordinates, and reassemble exactly via
// MergePartials.
func TestRowBlocksPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tensor.UniformRandom("M", rng, 200, 31, 17)
	for _, n := range []int{1, 2, 3, 7, 31, 40} {
		blocks, err := RowBlocks(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		wantBlocks := n
		if n > 31 {
			wantBlocks = 31 // clamped to the row count
		}
		if len(blocks) != wantBlocks {
			t.Fatalf("n=%d: got %d blocks, want %d", n, len(blocks), wantBlocks)
		}
		total := 0
		per := (31 + len(blocks) - 1) / len(blocks)
		for k, b := range blocks {
			if b.Dims[0] != 31 || b.Dims[1] != 17 {
				t.Fatalf("n=%d block %d: dims %v, want global [31 17]", n, k, b.Dims)
			}
			for _, p := range b.Pts {
				row := int(p.Crd[0])
				if row/per != k && !(row/per >= len(blocks) && k == len(blocks)-1) {
					t.Fatalf("n=%d block %d holds row %d outside its range", n, k, row)
				}
			}
			total += len(b.Pts)
		}
		if total != len(m.Pts) {
			t.Fatalf("n=%d: blocks hold %d points, source has %d", n, total, len(m.Pts))
		}
		back, err := MergePartials("M", blocks)
		if err != nil {
			t.Fatal(err)
		}
		ms := *m
		ms.Sort()
		if err := tensor.Equal(back, &ms, 0); err != nil {
			t.Fatalf("n=%d: merge of blocks differs from source: %v", n, err)
		}
	}
	if _, err := RowBlocks(tensor.NewCOO("v", 4), 2); err == nil {
		t.Error("RowBlocks accepted an order-1 tensor")
	}
	if _, err := RowBlocks(m, 0); err == nil {
		t.Error("RowBlocks accepted n=0")
	}
}

// TestMergePartialsSums checks coordinate-wise summation semantics:
// overlapping coordinates add, exact cancellation drops the point, scalars
// sum into one value, and dim mismatches fail loudly.
func TestMergePartialsSums(t *testing.T) {
	a := tensor.NewCOO("p", 4)
	a.Append(2, 1)
	a.Append(1, 3)
	b := tensor.NewCOO("p", 4)
	b.Append(3, 1)
	b.Append(-1, 3)
	out, err := MergePartials("x", []*tensor.COO{nil, a, b, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pts) != 1 || out.Pts[0].Crd[0] != 1 || out.Pts[0].Val != 5 {
		t.Fatalf("merge got %+v, want single point 5@[1] (cancellation at [3] dropped)", out.Pts)
	}

	s1 := tensor.NewCOO("s")
	s1.Append(1.5)
	s2 := tensor.NewCOO("s")
	s2.Append(2.5)
	sc, err := MergePartials("s", []*tensor.COO{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Pts) != 1 || sc.Pts[0].Val != 4 {
		t.Fatalf("scalar merge got %+v, want one value 4", sc.Pts)
	}

	wrong := tensor.NewCOO("w", 5)
	if _, err := MergePartials("x", []*tensor.COO{a, wrong}); err == nil {
		t.Error("MergePartials accepted mismatched dims")
	}
	if _, err := MergePartials("x", []*tensor.COO{nil}); err == nil {
		t.Error("MergePartials made a tensor out of no partials")
	}
	if out.Name != "x" || len(out.Dims) != 1 || out.Dims[0] != 4 {
		t.Errorf("merged tensor is %q %v, want x [4] from the partials", out.Name, out.Dims)
	}
}

// TestDistributable pins which expressions may be evaluated once per row
// block of an operand and summed: the operand exactly once, products only,
// and never the state a fixpoint rewrites.
func TestDistributable(t *testing.T) {
	for _, tc := range []struct {
		name, expr, operand, fixVar string
		wantErr                     string // substring; "" means distributable
	}{
		{"exactly once", "x(i) = B(i,j) * c(j)", "B", "", ""},
		{"three-way product", "X(i,j) = B(i,k) * C(k,j) * d(j)", "C", "", ""},
		{"fixpoint over another input", "y(i) = B(i,j) * x(j)", "B", "x", ""},
		{"additive term", "X(i,j) = B(i,j) + C(i,j)", "B", "", "mixes addition"},
		{"additive term beside a product", "x(i) = B(i,j) * c(j) + d(i)", "B", "", "mixes addition"},
		{"repeated operand", "x(i) = B(i,j) * B(i,j)", "B", "", "appears 2 times"},
		{"absent operand", "x(i) = B(i,j) * c(j)", "Z", "", "appears 0 times"},
		{"tiled fixpoint var", "y(i) = B(i,j) * x(j)", "B", "B", "is the tiled operand"},
		// Two tiled refs in one request are the registry's to refuse (the
		// router knows which names are tiled); each alone is distributable.
		{"two tiled refs", "X(i,j) = B(i,k) * C(k,j)", "C", "", ""},
	} {
		err := Distributable(lang.MustParse(tc.expr), tc.operand, tc.fixVar)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
