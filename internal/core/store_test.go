package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sam/internal/fiber"
	"sam/internal/tensor"
	"sam/internal/token"
)

// TestArrayStoreScatter checks plain and accumulating stores.
func TestArrayStoreScatter(t *testing.T) {
	n := &Net{}
	refs, vals := n.NewQueue("ref"), n.NewQueue("val")
	refs.Preload(token.MustParse("1 3 1 S0 D"))
	vals.Preload(token.Stream{token.V(5), token.V(7), token.V(2), token.S(0), token.D()})
	st := NewArrayStore("store", make([]float64, 4), true, refs, vals)
	n.Add(st)
	mustRun(t, n)
	got := st.Vals()
	want := []float64{0, 7, 0, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vals = %v, want %v", got, want)
		}
	}
}

// TestLocateScatterSpMV builds the paper's Section 4.2 optimization by hand:
// the linear-combination (j -> i) sparse matrix-vector product scattering
// into a dense output through locate-style positional references, avoiding
// the vector reducer entirely. x(i) = sum_j B(j,i)*c(j), driven by c.
func TestLocateScatterSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const rows, cols = 30, 24
	bc := tensor.UniformRandom("B", rng, 120, rows, cols)
	cc := tensor.UniformRandom("c", rng, 12, rows)
	bt, err := bc.Build(fiber.Compressed, fiber.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := cc.Build(fiber.Compressed)
	if err != nil {
		t.Fatal(err)
	}

	n := &Net{}
	rootB, rootC := n.NewQueue("rootB"), n.NewQueue("rootC")
	rootB.Preload(token.Root())
	rootC.Preload(token.Root())

	// Scan B's rows (j) and c's coordinates (j), intersect at j.
	bjCrd, bjRef := n.NewQueue("bj.crd"), n.NewQueue("bj.ref")
	n.Add(NewScanner("Bj", bt.Levels[0], rootB, NewOut(bjCrd), NewOut(bjRef)))
	cjCrd, cjRef := n.NewQueue("cj.crd"), n.NewQueue("cj.ref")
	n.Add(NewScanner("cj", ct.Levels[0], rootC, NewOut(cjCrd), NewOut(cjRef)))
	jCrd := n.NewQueue("j.crd")
	jRefB, jRefC := n.NewQueue("j.refB"), n.NewQueue("j.refC")
	n.Add(NewMerger("int j", false, []*Queue{bjCrd, cjCrd}, []*Queue{bjRef, cjRef},
		NewOut(jCrd), []*Out{NewOut(jRefB), NewOut(jRefC)}))

	// For each surviving row j: scan B's i coordinates, repeat c's value
	// reference over them, multiply, and scatter-accumulate into dense x.
	biCrd, biRef := n.NewQueue("bi.crd"), n.NewQueue("bi.ref")
	biCrd2 := n.NewQueue("bi.crd2")
	n.Add(NewScanner("Bi", bt.Levels[1], jRefB, NewOut(biCrd, biCrd2), NewOut(biRef)))
	cRep := n.NewQueue("c.rep")
	n.Add(NewRepeater("rep c", biCrd2, jRefC, NewOut(cRep)))
	bVals, cVals := n.NewQueue("b.vals"), n.NewQueue("c.vals")
	n.Add(NewArrayLoad("B vals", bt.Vals, biRef, NewOut(bVals)))
	n.Add(NewArrayLoad("c vals", ct.Vals, cRep, NewOut(cVals)))
	prod := n.NewQueue("prod")
	n.Add(NewALU("mul", OpMul, bVals, cVals, NewOut(prod)))

	// The i coordinates are positional references into the dense output, so
	// the coordinate stream itself scatters the products — no reducer.
	out := make([]float64, cols)
	st := NewArrayStore("x store", out, true, biCrd, prod)
	n.Add(st)
	mustRun(t, n)

	// Gold: x(i) = sum_j B(j,i) * c(j).
	want := make([]float64, cols)
	db := bc.ToDense()
	dc := cc.ToDense()
	for j := int64(0); j < rows; j++ {
		for i := int64(0); i < cols; i++ {
			want[i] += db.At(j, i) * dc.At(j)
		}
	}
	for i := range want {
		if math.Abs(st.Vals()[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, st.Vals()[i], want[i])
		}
	}
}

// TestALUMaxMin covers the remaining ALU operations.
func TestALUMaxMin(t *testing.T) {
	for _, tc := range []struct {
		op   ALUOp
		want float64
	}{
		{OpMax, 7}, {OpMin, 2},
	} {
		n := &Net{}
		a, b := n.NewQueue("a"), n.NewQueue("b")
		a.Preload(token.Stream{token.V(2), token.S(0), token.D()})
		b.Preload(token.Stream{token.V(7), token.S(0), token.D()})
		out := n.NewQueue("out")
		n.Add(NewALU("alu", tc.op, a, b, NewOut(out)))
		mustRun(t, n)
		got := out.Drain()
		if got[0].V != tc.want {
			t.Errorf("%v: got %v, want %g", tc.op, got[0], tc.want)
		}
	}
}

// TestBVConvertMatchesScanner cross-checks Definition 4.2: converting a
// compressed scan to bitvector words equals scanning a bitvector level.
func TestBVConvertMatchesScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vc := tensor.UniformRandom("v", rng, 50, 300)
	comp, err := vc.Build(fiber.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := vc.Build(fiber.Bitvector)
	if err != nil {
		t.Fatal(err)
	}

	// Path 1: compressed scanner -> bitvector converter.
	n1 := &Net{}
	root1 := n1.NewQueue("root")
	root1.Preload(token.Root())
	crd, ref := n1.NewQueue("crd"), n1.NewQueue("ref")
	n1.Add(NewScanner("s", comp.Levels[0], root1, NewOut(crd), NewOut(ref)))
	n1.Add(NewSink("refsink", ref))
	conv := n1.NewQueue("conv")
	n1.Add(NewBVConvert("conv", 300, crd, NewOut(conv)))
	mustRun(t, n1)
	got := conv.Drain()

	// Path 2: bitvector scanner directly.
	n2 := &Net{}
	root2 := n2.NewQueue("root")
	root2.Preload(token.Root())
	bvOut, bvRef := n2.NewQueue("bv"), n2.NewQueue("bvref")
	n2.Add(NewBVScanner("bs", bv.Levels[0].(*fiber.BitvectorLevel), root2, NewOut(bvOut), NewOut(bvRef)))
	n2.Add(NewSink("refsink", bvRef))
	mustRun(t, n2)
	want := bvOut.Drain()

	if !token.Equal(got, want) {
		t.Errorf("converted stream:\n got:  %s\n want: %s", got, want)
	}
}

// TestTensorReducerN3 checks a three-dimensional accumulation: one group of
// repeated (i,j,k) points reduced over an outermost variable. The second
// iteration holds empty sub-fibers at both outer levels: j = 4 under i = 0
// has no k (trailing in i's fiber), and i = 1 has no j at all (mid-fiber).
// Each one's coordinate must be popped where its subtree closes, or the next
// point loads it as its own.
func TestTensorReducerN3(t *testing.T) {
	n := &Net{}
	q0, q1, q2, qv := n.NewQueue("c0"), n.NewQueue("c1"), n.NewQueue("c2"), n.NewQueue("v")
	// Two reduction iterations (closed by S2, the group by S3): points
	// (0,1,2)=1, (0,1,3)=2 in the first; (0,1,2)=10, (2,0,0)=5 in the second.
	q0.Preload(token.MustParse("0 S0 0 1 2 S1 D"))
	q1.Preload(token.MustParse("1 S1 1 4 S0 S0 0 S2 D"))
	q2.Preload(token.MustParse("2 3 S2 2 S0 S1 S1 0 S3 D"))
	qv.Preload(token.MustParse("1.0 2.0 S2 10.0 S0 S1 S1 5.0 S3 D"))
	o0, o1, o2, ov := n.NewQueue("o0"), n.NewQueue("o1"), n.NewQueue("o2"), n.NewQueue("ov")
	n.Add(NewReducer("tr", 3, []*Queue{q0, q1, q2}, qv,
		[]*Out{NewOut(o0), NewOut(o1), NewOut(o2)}, NewOut(ov)))
	mustRun(t, n)

	checkStream(t, "crd0", o0.Drain(), "0 2 S0 D")
	checkStream(t, "crd1", o1.Drain(), "1 S0 0 S1 D")
	checkStream(t, "crd2", o2.Drain(), "2 3 S1 0 S2 D")
	checkStream(t, "vals", ov.Drain(), "11.0 2.0 S1 5.0 S2 D")
}

// TestGroupAccWideCoordinates emits one group the same way whether its
// points sort as packed keys (small coordinates) or point by point
// (coordinates too wide to pack): unique, sorted, summed in arrival order,
// with an empty token registering its point at zero.
func TestGroupAccWideCoordinates(t *testing.T) {
	for _, base := range []int64{10, 1 << 40} {
		var g GroupAcc
		g.Reset(2)
		for _, p := range []struct {
			i, j int64
			v    token.Tok
		}{
			{base + 1, 5, token.V(1)}, {base, 7, token.V(2)}, {base + 1, 5, token.V(3)},
			{base, 9, token.N()}, {base, 2, token.V(4)},
		} {
			g.Load(0, p.i)
			g.Add(p.j, p.v)
			g.Stop(0)
		}
		g.Stop(2)
		var crd [2]token.Stream
		var val token.Stream
		toks := make([]token.Tok, 3)
		for g.Emitting() {
			from := g.Next(toks)
			for j := from; j < 2; j++ {
				crd[j] = append(crd[j], toks[j])
			}
			val = append(val, toks[2])
		}
		checkStream(t, "crd0", crd[0], fmt.Sprintf("%d %d S0", base, base+1))
		checkStream(t, "crd1", crd[1], "2 7 9 S0 5 S1")
		checkStream(t, "vals", val, "4.0 2.0 0.0 S0 4.0 S1")
	}
}
