package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sam/internal/fiber"
	"sam/internal/token"
)

// randFiberStream builds a random depth-1 coordinate/reference stream pair
// (one fiber) plus the coordinate set it carries.
func randFiberStream(r *rand.Rand, dim int) (token.Stream, token.Stream, map[int64]int64) {
	n := r.Intn(dim)
	set := map[int64]bool{}
	for len(set) < n {
		set[int64(r.Intn(dim))] = true
	}
	coords := make([]int64, 0, n)
	for c := range set {
		coords = append(coords, c)
	}
	sort.Slice(coords, func(i, j int) bool { return coords[i] < coords[j] })
	crd := token.Stream{}
	ref := token.Stream{}
	refs := map[int64]int64{}
	for i, c := range coords {
		crd = append(crd, token.C(c))
		ref = append(ref, token.C(int64(i)))
		refs[c] = int64(i)
	}
	crd = append(crd, token.S(0), token.D())
	ref = append(ref, token.S(0), token.D())
	return crd, ref, refs
}

// TestQuickIntersectSetSemantics property-tests two-finger intersection
// against map-based set intersection.
func TestQuickIntersectSetSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		crdA, refA, setA := randFiberStream(r, 40)
		crdB, refB, setB := randFiberStream(r, 40)
		n := &Net{}
		qa, qra := n.NewQueue("a"), n.NewQueue("ar")
		qb, qrb := n.NewQueue("b"), n.NewQueue("br")
		qa.Preload(crdA)
		qra.Preload(refA)
		qb.Preload(crdB)
		qrb.Preload(refB)
		oc, oa, ob := n.NewQueue("oc"), n.NewQueue("oa"), n.NewQueue("ob")
		n.Add(NewMerger("int", false, []*Queue{qa, qb}, []*Queue{qra, qrb}, NewOut(oc), []*Out{NewOut(oa), NewOut(ob)}))
		if _, err := n.Run(100000); err != nil {
			return false
		}
		got := oc.Drain()
		refsA := oa.Drain()
		refsB := ob.Drain()
		var want []int64
		for c := range setA {
			if _, ok := setB[c]; ok {
				want = append(want, c)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		// Output: want coords + S0 + D, refs aligned to each side's set.
		if len(got) != len(want)+2 {
			return false
		}
		for i, c := range want {
			if got[i].N != c || refsA[i].N != setA[c] || refsB[i].N != setB[c] {
				return false
			}
		}
		return got[len(got)-2].IsStop() && got[len(got)-1].IsDone()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionSetSemantics property-tests union against map-based set
// union with N fillers on absent sides.
func TestQuickUnionSetSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		crdA, refA, setA := randFiberStream(r, 40)
		crdB, refB, setB := randFiberStream(r, 40)
		n := &Net{}
		qa, qra := n.NewQueue("a"), n.NewQueue("ar")
		qb, qrb := n.NewQueue("b"), n.NewQueue("br")
		qa.Preload(crdA)
		qra.Preload(refA)
		qb.Preload(crdB)
		qrb.Preload(refB)
		oc, oa, ob := n.NewQueue("oc"), n.NewQueue("oa"), n.NewQueue("ob")
		n.Add(NewMerger("un", true, []*Queue{qa, qb}, []*Queue{qra, qrb}, NewOut(oc), []*Out{NewOut(oa), NewOut(ob)}))
		if _, err := n.Run(100000); err != nil {
			return false
		}
		got := oc.Drain()
		refsA := oa.Drain()
		refsB := ob.Drain()
		all := map[int64]bool{}
		for c := range setA {
			all[c] = true
		}
		for c := range setB {
			all[c] = true
		}
		var want []int64
		for c := range all {
			want = append(want, c)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want)+2 {
			return false
		}
		for i, c := range want {
			if got[i].N != c {
				return false
			}
			if ra, ok := setA[c]; ok {
				if refsA[i].N != ra {
					return false
				}
			} else if !refsA[i].IsEmpty() {
				return false
			}
			if rb, ok := setB[c]; ok {
				if refsB[i].N != rb {
					return false
				}
			} else if !refsB[i].IsEmpty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickScannerRoundTrip property-tests scanner + writer inversion: a
// compressed level scanned into streams and rewritten reproduces the level.
func TestQuickScannerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fibers := r.Intn(6) + 1
		dim := r.Intn(20) + 2
		seg := make([]int32, fibers+1)
		var crd []int32
		for fb := 0; fb < fibers; fb++ {
			n := r.Intn(dim)
			set := map[int32]bool{}
			for len(set) < n {
				set[int32(r.Intn(dim))] = true
			}
			var fs []int32
			for c := range set {
				fs = append(fs, c)
			}
			sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
			crd = append(crd, fs...)
			seg[fb+1] = int32(len(crd))
		}
		lvl := &fiber.CompressedLevel{N: dim, Seg: seg, Crd: crd}
		n := &Net{}
		in := n.NewQueue("in")
		refs := token.Stream{}
		for fb := 0; fb < fibers; fb++ {
			refs = append(refs, token.C(int64(fb)))
		}
		refs = append(refs, token.S(0), token.D())
		in.Preload(refs)
		oc, orf := n.NewQueue("oc"), n.NewQueue("or")
		n.Add(NewScanner("s", lvl, in, NewOut(oc), NewOut(orf)))
		w := NewCrdWriter("w", fiber.Compressed, dim, 0, oc)
		n.Add(w)
		n.Add(NewSink("sink", orf))
		if _, err := n.Run(100000); err != nil {
			return false
		}
		got := w.Level().(*fiber.CompressedLevel)
		// The rewritten level drops one nesting level (the scanner's input
		// was a single root group), so fibers match one to one.
		if got.NumFibers() != fibers {
			return false
		}
		for fb := 0; fb < fibers; fb++ {
			if got.FiberLen(fb) != lvl.FiberLen(fb) {
				return false
			}
			for i := 0; i < got.FiberLen(fb); i++ {
				if got.Coord(fb, i) != lvl.Coord(fb, i) {
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

// TestQuickScalarReducerSumsGroups property-tests group summation.
func TestQuickScalarReducerSumsGroups(t *testing.T) {
	f := func(groups [][]float64) bool {
		if len(groups) == 0 || len(groups) > 8 {
			return true
		}
		in := token.Stream{}
		var sums []float64
		for gi, g := range groups {
			if len(g) > 20 {
				g = g[:20]
			}
			s := 0.0
			for _, v := range g {
				v = float64(int(v*100)) / 100 // tame extreme floats
				in = append(in, token.V(v))
				s += v
			}
			sums = append(sums, s)
			if gi == len(groups)-1 {
				in = append(in, token.S(1))
			} else {
				in = append(in, token.S(0))
			}
		}
		in = append(in, token.D())
		n := &Net{}
		q := n.NewQueue("in")
		q.Preload(in)
		out := n.NewQueue("out")
		n.Add(NewScalarReducer("red", q, NewOut(out)))
		if _, err := n.Run(100000); err != nil {
			return false
		}
		got := out.Drain()
		// One sum per group, then S0, then D.
		if len(got) != len(sums)+2 {
			return false
		}
		for i, s := range sums {
			diff := got[i].V - s
			if diff < -1e-9 || diff > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickGallopMatchesIntersect property-tests the skipping intersecter
// against the streaming intersecter.
func TestQuickGallopMatchesIntersect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *fiber.CompressedLevel {
			n := r.Intn(60)
			set := map[int32]bool{}
			for len(set) < n {
				set[int32(r.Intn(200))] = true
			}
			var cs []int32
			for c := range set {
				cs = append(cs, c)
			}
			sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
			return &fiber.CompressedLevel{N: 200, Seg: []int32{0, int32(len(cs))}, Crd: cs}
		}
		la, lb := mk(), mk()

		runGallop := func() (token.Stream, error) {
			n := &Net{}
			ra, rb := n.NewQueue("ra"), n.NewQueue("rb")
			ra.Preload(token.Root())
			rb.Preload(token.Root())
			oc, oa, ob := n.NewQueue("oc"), n.NewQueue("oa"), n.NewQueue("ob")
			n.Add(NewGallopIntersect("g", la, lb, ra, rb, NewOut(oc), NewOut(oa), NewOut(ob)))
			if _, err := n.Run(100000); err != nil {
				return nil, err
			}
			return oc.Drain(), nil
		}
		runPlain := func() (token.Stream, error) {
			n := &Net{}
			ra, rb := n.NewQueue("ra"), n.NewQueue("rb")
			ra.Preload(token.Root())
			rb.Preload(token.Root())
			ca, cra := n.NewQueue("ca"), n.NewQueue("cra")
			cb, crb := n.NewQueue("cb"), n.NewQueue("crb")
			n.Add(NewScanner("sa", la, ra, NewOut(ca), NewOut(cra)))
			n.Add(NewScanner("sb", lb, rb, NewOut(cb), NewOut(crb)))
			oc, oa, ob := n.NewQueue("oc"), n.NewQueue("oa"), n.NewQueue("ob")
			n.Add(NewMerger("i", false, []*Queue{ca, cb}, []*Queue{cra, crb}, NewOut(oc), []*Out{NewOut(oa), NewOut(ob)}))
			if _, err := n.Run(100000); err != nil {
				return nil, err
			}
			return oc.Drain(), nil
		}
		g, err := runGallop()
		if err != nil {
			return false
		}
		p, err := runPlain()
		if err != nil {
			return false
		}
		return token.Equal(g, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickParallelizerRoundTrip property-tests fork/join inversion for
// arbitrary lane counts and random fiber structures: a depth-2 stream forked
// fiber by fiber and joined back under the lanes' forks of its outer level.
func TestQuickParallelizerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lanes := r.Intn(4) + 2
		// Random fibers (some empty, possibly none at all), one outer
		// coordinate each.
		outer, s := token.Stream{}, token.Stream{}
		fibersN := r.Intn(7)
		for fb := 0; fb < fibersN; fb++ {
			outer = append(outer, token.C(int64(fb)))
			for x := 0; x < r.Intn(4); x++ {
				s = append(s, token.C(int64(x)))
			}
			if fb < fibersN-1 {
				s = append(s, token.S(0))
			}
		}
		outer = append(outer, token.S(0), token.D())
		s = append(s, token.S(1), token.D())
		got, err := runParJoin(outer, s, lanes, 0)
		return err == nil && token.Equal(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
