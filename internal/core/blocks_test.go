package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/token"
)

// fig1Matrix builds the 4x4 sparse matrix of paper Figure 1a in DCSR:
//
//	row 0: (0,1)=1
//	row 1: (1,0)=2 (1,2)=3
//	row 3: (3,1)=4 (3,3)=5
func fig1Matrix(t testing.TB) *fiber.Tensor {
	t.Helper()
	ten, err := fiber.Build("B", []int{4, 4},
		[]fiber.Format{fiber.Compressed, fiber.Compressed},
		[]fiber.Point{{Crd: []int64{0, 1}, Val: 1}, {Crd: []int64{1, 0}, Val: 2}, {Crd: []int64{1, 2}, Val: 3},
			{Crd: []int64{3, 1}, Val: 4}, {Crd: []int64{3, 3}, Val: 5}})
	if err != nil {
		t.Fatalf("building figure-1 matrix: %v", err)
	}
	if err := ten.Validate(); err != nil {
		t.Fatalf("figure-1 matrix invalid: %v", err)
	}
	return ten
}

func mustRun(t testing.TB, n *Net) int {
	t.Helper()
	cycles, err := n.Run(1_000_000)
	if err != nil {
		t.Fatalf("net run failed: %v", err)
	}
	return cycles
}

func checkStream(t testing.TB, label string, got token.Stream, want string) {
	t.Helper()
	w := token.MustParse(want)
	if !slices.Equal(got, w) {
		t.Errorf("%s stream mismatch:\n got:  %s\n want: %s", label, got, w)
	}
}

// TestFig1StorageMatchesPaper pins the DCSR arrays of Figure 1c.
func TestFig1StorageMatchesPaper(t *testing.T) {
	ten := fig1Matrix(t)
	li := ten.Levels[0].(*fiber.CompressedLevel)
	lj := ten.Levels[1].(*fiber.CompressedLevel)
	wantSegI, wantCrdI := []int32{0, 3}, []int32{0, 1, 3}
	wantSegJ, wantCrdJ := []int32{0, 1, 3, 5}, []int32{1, 0, 2, 1, 3}
	for i, v := range wantSegI {
		if li.Seg[i] != v {
			t.Fatalf("level i seg = %v, want %v", li.Seg, wantSegI)
		}
	}
	for i, v := range wantCrdI {
		if li.Crd[i] != v {
			t.Fatalf("level i crd = %v, want %v", li.Crd, wantCrdI)
		}
	}
	for i, v := range wantSegJ {
		if lj.Seg[i] != v {
			t.Fatalf("level j seg = %v, want %v", lj.Seg, wantSegJ)
		}
	}
	for i, v := range wantCrdJ {
		if lj.Crd[i] != v {
			t.Fatalf("level j crd = %v, want %v", lj.Crd, wantCrdJ)
		}
	}
}

// TestScannerFigure2 reproduces the chained level scanners of paper
// Figure 2 on the Figure 1 matrix.
func TestScannerFigure2(t *testing.T) {
	ten := fig1Matrix(t)
	n := &Net{}
	root := n.NewQueue("root")
	root.Preload(token.Root())
	crdI, refI := n.NewQueue("Bi.crd"), n.NewQueue("Bi.ref")
	n.Add(NewScanner("Bi", ten.Levels[0], root, NewOut(crdI), NewOut(refI)))
	crdJ, refJ := n.NewQueue("Bj.crd"), n.NewQueue("Bj.ref")
	n.Add(NewScanner("Bj", ten.Levels[1], refI, NewOut(crdJ), NewOut(refJ)))
	mustRun(t, n)

	checkStream(t, "Bi crd", crdI.Drain(), "0 1 3 S0 D")
	checkStream(t, "Bj crd", crdJ.Drain(), "1 S0 0 2 S0 1 3 S1 D")
	checkStream(t, "Bj ref", refJ.Drain(), "0 S0 1 2 S0 3 4 S1 D")
}

// TestScannerValuesFigure1d checks the value stream of Figure 1d by loading
// through an array block.
func TestScannerValuesFigure1d(t *testing.T) {
	ten := fig1Matrix(t)
	n := &Net{}
	root := n.NewQueue("root")
	root.Preload(token.Root())
	crdI, refI := n.NewQueue("Bi.crd"), n.NewQueue("Bi.ref")
	n.Add(NewScanner("Bi", ten.Levels[0], root, NewOut(crdI), NewOut(refI)))
	crdJ, refJ := n.NewQueue("Bj.crd"), n.NewQueue("Bj.ref")
	n.Add(NewScanner("Bj", ten.Levels[1], refI, NewOut(crdJ), NewOut(refJ)))
	vals := n.NewQueue("B.vals")
	n.Add(NewArrayLoad("Bvals", ten.Vals, refJ, NewOut(vals)))
	mustRun(t, n)

	checkStream(t, "B vals", vals.Drain(), "1.0 S0 2.0 3.0 S0 4.0 5.0 S1 D")
}

// TestScannerDenseLevel checks the uncompressed level scanner interface of
// Figure 3: same machine, positional references.
func TestScannerDenseLevel(t *testing.T) {
	lvl := &fiber.DenseLevel{N: 3, Fibers: 2}
	n := &Net{}
	in := n.NewQueue("in")
	in.Preload(token.MustParse("0 1 S0 D"))
	crd, ref := n.NewQueue("crd"), n.NewQueue("ref")
	n.Add(NewScanner("dense", lvl, in, NewOut(crd), NewOut(ref)))
	mustRun(t, n)

	checkStream(t, "dense crd", crd.Drain(), "0 1 2 S0 0 1 2 S1 D")
	checkStream(t, "dense ref", ref.Drain(), "0 1 2 S0 3 4 5 S1 D")
}

// TestScannerEmptyInputs checks empty-fiber and N-token handling.
func TestScannerEmptyInputs(t *testing.T) {
	lvl := &fiber.CompressedLevel{N: 4, Seg: []int32{0, 2, 2}, Crd: []int32{1, 3}}
	cases := []struct {
		name    string
		in      string
		wantCrd string
	}{
		{"empty stored fiber", "0 1 S0 D", "1 3 S0 S1 D"},
		{"empty token input", "0 N S0 D", "1 3 S0 S1 D"},
		{"all empty", "N N S0 D", "S0 S1 D"},
		{"no fibers", "S0 D", "S1 D"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := &Net{}
			in := n.NewQueue("in")
			in.Preload(token.MustParse(tc.in))
			crd, ref := n.NewQueue("crd"), n.NewQueue("ref")
			n.Add(NewScanner("s", lvl, in, NewOut(crd), NewOut(ref)))
			mustRun(t, n)
			checkStream(t, "crd", crd.Drain(), tc.wantCrd)
		})
	}
}

// TestUnionFigure5 reproduces the binary unioner example of paper Figure 5.
func TestUnionFigure5(t *testing.T) {
	n := &Net{}
	crdB, refB := n.NewQueue("b.crd"), n.NewQueue("b.ref")
	crdC, refC := n.NewQueue("c.crd"), n.NewQueue("c.ref")
	crdB.Preload(token.MustParse("2 4 6 7 8 S0 D"))
	refB.Preload(token.MustParse("0 1 2 3 4 S0 D"))
	crdC.Preload(token.MustParse("0 2 6 8 9 S0 D"))
	refC.Preload(token.MustParse("0 1 2 3 4 S0 D"))
	outCrd := n.NewQueue("out.crd")
	outB, outC := n.NewQueue("out.refb"), n.NewQueue("out.refc")
	n.Add(NewMerger("union", true, []*Queue{crdB, crdC}, []*Queue{refB, refC},
		NewOut(outCrd), []*Out{NewOut(outB), NewOut(outC)}))
	mustRun(t, n)

	checkStream(t, "union crd", outCrd.Drain(), "0 2 4 6 7 8 9 S0 D")
	checkStream(t, "union ref b", outB.Drain(), "N 0 1 2 3 4 N S0 D")
	checkStream(t, "union ref c", outC.Drain(), "0 1 N 2 N 3 4 S0 D")
}

// TestRepeaterFigure6 reproduces the scalar-broadcast example of Figure 6.
func TestRepeaterFigure6(t *testing.T) {
	n := &Net{}
	inCrd, inRef := n.NewQueue("b.crd"), n.NewQueue("c.root")
	inCrd.Preload(token.MustParse("0 2 6 8 9 S0 D"))
	inRef.Preload(token.Root())
	out := n.NewQueue("out")
	n.Add(NewRepeater("rep", inCrd, inRef, NewOut(out)))
	mustRun(t, n)

	checkStream(t, "repeated ref", out.Drain(), "0 0 0 0 0 S0 D")
}

// TestRepeaterHierarchical checks one reference per coordinate fiber with
// nested stops and empty fibers.
func TestRepeaterHierarchical(t *testing.T) {
	n := &Net{}
	inCrd, inRef := n.NewQueue("crd"), n.NewQueue("ref")
	// Three fibers: (5,7), empty, (2); refs 10, 11, 12.
	inCrd.Preload(token.MustParse("5 7 S0 S0 2 S1 D"))
	inRef.Preload(token.MustParse("10 11 12 S0 D"))
	out := n.NewQueue("out")
	n.Add(NewRepeater("rep", inCrd, inRef, NewOut(out)))
	mustRun(t, n)

	checkStream(t, "repeated ref", out.Drain(), "10 10 S0 S0 12 S1 D")
}

// TestIntersectBasic checks m-ary intersection semantics.
func TestIntersectBasic(t *testing.T) {
	n := &Net{}
	crdA, refA := n.NewQueue("a.crd"), n.NewQueue("a.ref")
	crdB, refB := n.NewQueue("b.crd"), n.NewQueue("b.ref")
	crdA.Preload(token.MustParse("0 2 4 6 S0 2 S1 D"))
	refA.Preload(token.MustParse("0 1 2 3 S0 4 S1 D"))
	crdB.Preload(token.MustParse("2 3 4 S0 1 S1 D"))
	refB.Preload(token.MustParse("0 1 2 S0 3 S1 D"))
	outCrd := n.NewQueue("out.crd")
	outA, outB := n.NewQueue("out.refa"), n.NewQueue("out.refb")
	n.Add(NewMerger("int", false, []*Queue{crdA, crdB}, []*Queue{refA, refB},
		NewOut(outCrd), []*Out{NewOut(outA), NewOut(outB)}))
	mustRun(t, n)

	checkStream(t, "intersect crd", outCrd.Drain(), "2 4 S0 S1 D")
	checkStream(t, "intersect ref a", outA.Drain(), "1 2 S0 S1 D")
	checkStream(t, "intersect ref b", outB.Drain(), "0 2 S0 S1 D")
}

// TestIntersectThreeWay checks a 3-ary intersecter (SDDMM-style).
func TestIntersectThreeWay(t *testing.T) {
	n := &Net{}
	mk := func(crd, ref string) (*Queue, *Queue) {
		return nil, nil
	}
	_ = mk
	crds := []*Queue{}
	refs := []*Queue{}
	data := []struct{ crd, ref string }{
		{"1 3 5 7 S0 D", "0 1 2 3 S0 D"},
		{"1 5 6 7 S0 D", "0 1 2 3 S0 D"},
		{"0 1 5 9 S0 D", "0 1 2 3 S0 D"},
	}
	for i, d := range data {
		qc := n.NewQueue("crd" + string(rune('a'+i)))
		qr := n.NewQueue("ref" + string(rune('a'+i)))
		qc.Preload(token.MustParse(d.crd))
		qr.Preload(token.MustParse(d.ref))
		crds = append(crds, qc)
		refs = append(refs, qr)
	}
	outCrd := n.NewQueue("out.crd")
	outs := []*Out{}
	outQs := []*Queue{}
	for i := 0; i < 3; i++ {
		q := n.NewQueue("out.ref" + string(rune('a'+i)))
		outQs = append(outQs, q)
		outs = append(outs, NewOut(q))
	}
	n.Add(NewMerger("int3", false, crds, refs, NewOut(outCrd), outs))
	mustRun(t, n)

	checkStream(t, "crd", outCrd.Drain(), "1 5 S0 D")
	checkStream(t, "refa", outQs[0].Drain(), "0 2 S0 D")
	checkStream(t, "refb", outQs[1].Drain(), "0 1 S0 D")
	checkStream(t, "refc", outQs[2].Drain(), "1 2 S0 D")
}

// TestMergerRejectsEmptyOnCoordinateInput feeds N, a reference-stream token,
// to a coordinate input of the intersecter and the unioner: both fail naming
// it, with the text comp's stepMerge gives for the same fault.
func TestMergerRejectsEmptyOnCoordinateInput(t *testing.T) {
	for _, union := range []bool{false, true} {
		n := &Net{}
		crdA, refA := n.NewQueue("a.crd"), n.NewQueue("a.ref")
		crdB, refB := n.NewQueue("b.crd"), n.NewQueue("b.ref")
		crdA.Preload(token.MustParse("1 N S0 D"))
		refA.Preload(token.MustParse("0 1 S0 D"))
		crdB.Preload(token.MustParse("1 2 S0 D"))
		refB.Preload(token.MustParse("0 1 S0 D"))
		n.Add(NewMerger("merge", union, []*Queue{crdA, crdB}, []*Queue{refA, refB},
			NewOut(n.NewQueue("out.crd")), []*Out{NewOut(n.NewQueue("out.refa")), NewOut(n.NewQueue("out.refb"))}))
		_, err := n.Run(1_000_000)
		if err == nil || !strings.Contains(err.Error(), "merge: unexpected token N on coordinate input") {
			t.Errorf("union=%v: err = %v, want the N named on a coordinate input", union, err)
		}
	}
}

// TestVectorReducerFigure7 reproduces the row reducer example of Figure 7 on
// the reducer at n = 1: accumulating the columns of the Figure 1 matrix.
func TestVectorReducerFigure7(t *testing.T) {
	n := &Net{}
	crd, val := n.NewQueue("crd"), n.NewQueue("val")
	crd.Preload(token.MustParse("1 S0 0 2 S0 1 3 S1 D"))
	val.Preload(token.MustParse("1.0 S0 2.0 3.0 S0 4.0 5.0 S1 D"))
	outCrd, outVal := n.NewQueue("out.crd"), n.NewQueue("out.val")
	n.Add(NewReducer("red", 1, []*Queue{crd}, val, []*Out{NewOut(outCrd)}, NewOut(outVal)))
	mustRun(t, n)

	checkStream(t, "reduced crd", outCrd.Drain(), "0 1 2 3 S0 D")
	checkStream(t, "reduced val", outVal.Drain(), "2.0 5.0 3.0 5.0 S0 D")
}

// TestVectorReducerGroups checks group-by-group reduction at n = 1 with empty
// groups kept as empty fibers.
func TestVectorReducerGroups(t *testing.T) {
	n := &Net{}
	crd, val := n.NewQueue("crd"), n.NewQueue("val")
	// Group 1: fibers (1) and (1,2); group 2: empty; group 3: (0).
	crd.Preload(token.MustParse("1 S0 1 2 S1 S1 0 S2 D"))
	val.Preload(token.MustParse("1.0 S0 2.0 3.0 S1 S1 4.0 S2 D"))
	outCrd, outVal := n.NewQueue("out.crd"), n.NewQueue("out.val")
	n.Add(NewReducer("red", 1, []*Queue{crd}, val, []*Out{NewOut(outCrd)}, NewOut(outVal)))
	mustRun(t, n)

	checkStream(t, "crd", outCrd.Drain(), "1 2 S0 S0 0 S1 D")
	checkStream(t, "val", outVal.Drain(), "3.0 3.0 S0 S0 4.0 S1 D")
}

// TestScalarReducer checks innermost-group summation and stop lowering.
func TestScalarReducer(t *testing.T) {
	n := &Net{}
	val := n.NewQueue("val")
	val.Preload(token.MustParse("1.0 2.0 S0 3.0 S0 S1 D"))
	out := n.NewQueue("out")
	n.Add(NewScalarReducer("red", val, NewOut(out)))
	mustRun(t, n)

	// Groups (1+2), (3), and an empty group that emits an explicit zero.
	checkStream(t, "reduced", out.Drain(), "3.0 3.0 0.0 S0 D")
}

// TestALU checks value-stream arithmetic with empty-token-as-zero handling.
func TestALU(t *testing.T) {
	n := &Net{}
	a, b := n.NewQueue("a"), n.NewQueue("b")
	a.Preload(token.Stream{token.V(2), token.N(), token.V(3), token.S(0), token.D()})
	b.Preload(token.Stream{token.V(5), token.V(7), token.N(), token.S(0), token.D()})
	out := n.NewQueue("out")
	n.Add(NewALU("add", OpAdd, a, b, NewOut(out)))
	mustRun(t, n)

	checkStream(t, "sum", out.Drain(), "7.0 7.0 3.0 S0 D")
}

// TestCrdDropEdgeCases runs every row of the dropper's conformance table,
// testdata/drop_rules.txt, through core.Dropper: Figure 8, leading, trailing
// and fully dropped fibers, value mode's zeros and orphans, and one row per
// failure rule. comp's TestCrdDropEdgeCases runs the same rows through
// stepDrop.
func TestCrdDropEdgeCases(t *testing.T) {
	raw, err := os.ReadFile("testdata/drop_rules.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "|")
		for i := range f {
			f[i] = strings.TrimSpace(f[i])
		}
		if _, ok := dropModes[f[1]]; !ok || len(f) != 6 && (len(f) != 5 || !strings.HasPrefix(f[4], "fails: ")) {
			t.Fatalf("drop_rules.txt: malformed row %q", line)
		}
		t.Run(f[0], func(t *testing.T) {
			n := &Net{}
			outer, inner := n.NewQueue("outer"), n.NewQueue("inner")
			outer.Preload(token.MustParse(f[2]))
			inner.Preload(token.MustParse(f[3]))
			oOut, oIn := n.NewQueue("out.outer"), n.NewQueue("out.inner")
			n.Add(NewDropper("drop", dropModes[f[1]], outer, inner, NewOut(oOut), NewOut(oIn)))
			_, err := n.Run(1_000)
			if len(f) == 5 {
				want := "drop: " + strings.TrimPrefix(f[4], "fails: ")
				if err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %s", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("net run failed: %v", err)
			}
			checkStream(t, "outer", oOut.Drain(), f[4])
			checkStream(t, "inner", oIn.Drain(), f[5])
		})
	}
}

// dropModes names drop_rules.txt's mode column.
var dropModes = map[string]graph.DropMode{"crd": graph.DropCrd, "val": graph.DropVal, "orphan": graph.DropOrphan}

// TestCrdWriter checks compressed level construction from a stream.
func TestCrdWriter(t *testing.T) {
	n := &Net{}
	in := n.NewQueue("in")
	in.Preload(token.MustParse("1 S0 0 2 S0 1 3 S1 D"))
	w := NewCrdWriter("wr", fiber.Compressed, 4, 0, in)
	n.Add(w)
	mustRun(t, n)

	lvl := w.Level().(*fiber.CompressedLevel)
	if got, want := len(lvl.Seg), 4; got != want {
		t.Fatalf("segments = %d, want %d (seg=%v)", got, want, lvl.Seg)
	}
	wantSeg := []int32{0, 1, 3, 5}
	wantCrd := []int32{1, 0, 2, 1, 3}
	for i := range wantSeg {
		if lvl.Seg[i] != wantSeg[i] {
			t.Fatalf("seg = %v, want %v", lvl.Seg, wantSeg)
		}
	}
	for i := range wantCrd {
		if lvl.Crd[i] != wantCrd[i] {
			t.Fatalf("crd = %v, want %v", lvl.Crd, wantCrd)
		}
	}
}

// TestLocatorRootFiber checks leader-follower intersection into a vector:
// the fiber-select stream picks its one root fiber.
func TestLocatorRootFiber(t *testing.T) {
	lvl := &fiber.CompressedLevel{N: 10, Seg: []int32{0, 4}, Crd: []int32{1, 3, 5, 7}}
	n := &Net{}
	crd, ref, fib := n.NewQueue("crd"), n.NewQueue("ref"), n.NewQueue("fib")
	crd.Preload(token.MustParse("0 3 5 6 S0 D"))
	ref.Preload(token.MustParse("0 1 2 3 S0 D"))
	fib.Preload(token.MustParse("0 D"))
	oc, orf, ol := n.NewQueue("oc"), n.NewQueue("or"), n.NewQueue("ol")
	n.Add(NewLocator("loc", lvl, crd, ref, fib, NewOut(oc), NewOut(orf), NewOut(ol)))
	mustRun(t, n)

	checkStream(t, "crd", oc.Drain(), "3 5 S0 D")
	checkStream(t, "pass ref", orf.Drain(), "1 2 S0 D")
	checkStream(t, "located ref", ol.Drain(), "1 2 S0 D")
}

// TestLocatorDense checks locating into a dense level always succeeds with
// positional references.
func TestLocatorDense(t *testing.T) {
	lvl := &fiber.DenseLevel{N: 8, Fibers: 2}
	n := &Net{}
	crd, ref, fib := n.NewQueue("crd"), n.NewQueue("ref"), n.NewQueue("fib")
	crd.Preload(token.MustParse("2 5 S0 1 S1 D"))
	ref.Preload(token.MustParse("0 1 S0 2 S1 D"))
	fib.Preload(token.MustParse("0 1 S0 D"))
	oc, orf, ol := n.NewQueue("oc"), n.NewQueue("or"), n.NewQueue("ol")
	n.Add(NewLocator("loc", lvl, crd, ref, fib, NewOut(oc), NewOut(orf), NewOut(ol)))
	mustRun(t, n)

	checkStream(t, "crd", oc.Drain(), "2 5 S0 1 S1 D")
	checkStream(t, "located", ol.Drain(), "2 5 S0 9 S1 D")
}

// TestGallopIntersect checks skipping intersection produces the same
// coordinates as streaming intersection.
func TestGallopIntersect(t *testing.T) {
	a := &fiber.CompressedLevel{N: 100, Seg: []int32{0, 5}, Crd: []int32{10, 20, 30, 40, 50}}
	b := &fiber.CompressedLevel{N: 100, Seg: []int32{0, 6}, Crd: []int32{5, 20, 35, 40, 60, 99}}
	n := &Net{}
	ra, rb := n.NewQueue("ra"), n.NewQueue("rb")
	ra.Preload(token.Root())
	rb.Preload(token.Root())
	oc, oa, ob := n.NewQueue("oc"), n.NewQueue("oa"), n.NewQueue("ob")
	n.Add(NewGallopIntersect("gallop", a, b, ra, rb, NewOut(oc), NewOut(oa), NewOut(ob)))
	mustRun(t, n)

	checkStream(t, "crd", oc.Drain(), "20 40 S0 D")
	checkStream(t, "ref a", oa.Drain(), "1 3 S0 D")
	checkStream(t, "ref b", ob.Drain(), "1 3 S0 D")
}

// TestParallelizerSerializerRoundTrip checks fiber-granular fork/join: five
// fibers over three lanes, the join rotated by the lanes' forks of the outer
// coordinate stream, which has one data token per fiber.
func TestParallelizerSerializerRoundTrip(t *testing.T) {
	outer := "0 1 2 3 4 S0 D"
	src := "1 2 S0 3 S0 4 5 6 S0 7 S0 8 S1 D"
	got, err := runParJoin(token.MustParse(outer), token.MustParse(src), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, "round trip", got, src)
}

// TestScannerPipelineThroughput checks the fully-pipelined cost model: a
// scanner emits one token per cycle, so scanning F fibers of L coordinates
// each takes close to F*(L+1) cycles.
func TestScannerPipelineThroughput(t *testing.T) {
	const fibers, length = 10, 50
	seg := make([]int32, fibers+1)
	var crd []int32
	for f := 0; f < fibers; f++ {
		seg[f+1] = seg[f] + length
		for i := 0; i < length; i++ {
			crd = append(crd, int32(i))
		}
	}
	lvl := &fiber.CompressedLevel{N: length, Seg: seg, Crd: crd}
	n := &Net{}
	in := n.NewQueue("in")
	refs := token.Stream{}
	for f := 0; f < fibers; f++ {
		refs = append(refs, token.C(int64(f)))
	}
	refs = append(refs, token.S(0), token.D())
	in.Preload(refs)
	crdQ, refQ := n.NewQueue("crd"), n.NewQueue("ref")
	n.Add(NewScanner("s", lvl, in, NewOut(crdQ), NewOut(refQ)))
	cycles := mustRun(t, n)

	tokens := fibers*(length+1) + 1 // coords + separators + done
	if cycles < tokens || cycles > tokens+4 {
		t.Errorf("cycles = %d, want about %d (fully pipelined)", cycles, tokens)
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

// TestRadixSortMatchesSort holds the large-group sort (radixSort) to
// slices.Sort on random keys of every width from 1 to 64 bits, at sizes
// around one digit's range, through buffers reused from sort to sort, as a
// GroupAcc reuses them.
func TestRadixSortMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var keys, tmp []uint64
	for width := 1; width <= 64; width++ {
		for _, n := range []int{radixMin, 1000, 5000} {
			keys = keys[:0]
			for range n {
				k := r.Uint64()
				if width < 64 {
					k &= 1<<width - 1
				}
				keys = append(keys, k)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			keys, tmp = radixSort(keys, tmp, width)
			if !slices.Equal(keys, want) {
				t.Fatalf("width %d, %d keys: radix order differs from slices.Sort", width, n)
			}
		}
	}
}

// TestGroupAccRadixGroup emits a group large enough to radix-sort as a
// small one is emitted: unique points sorted, each summed in arrival order.
func TestGroupAccRadixGroup(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var g GroupAcc
	g.Reset(2)
	sums := map[[2]int64]float64{}
	for range 4 * radixMin {
		p := [2]int64{r.Int63n(40), r.Int63n(40)}
		v := float64(r.Intn(9) + 1)
		sums[p] += v
		g.Load(0, p[0])
		g.Add(p[1], token.V(v))
		g.Stop(0)
	}
	g.Stop(2)
	toks := make([]token.Tok, 3)
	var prev [2]int64
	got := 0
	for g.Emitting() {
		from := g.Next(toks)
		if !toks[2].IsVal() {
			continue
		}
		cur := prev
		for j := from; j < 2; j++ {
			cur[j] = toks[j].N
		}
		if got > 0 && (cur[0] < prev[0] || cur[0] == prev[0] && cur[1] <= prev[1]) {
			t.Fatalf("point %v emitted after %v", cur, prev)
		}
		if toks[2].V != sums[cur] {
			t.Fatalf("point %v sums to %v, want %v", cur, toks[2].V, sums[cur])
		}
		prev = cur
		got++
	}
	if got != len(sums) {
		t.Fatalf("%d points emitted, want %d", got, len(sums))
	}
}
