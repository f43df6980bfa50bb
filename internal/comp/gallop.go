package comp

import (
	"math"

	"sam/internal/fiber"
	"sam/internal/token"
)

// match is one coordinate two co-iterated fibers share, with each side's
// child reference.
type match struct{ crd, a, b int64 }

// coiter co-iterates two storage levels, one pair of fiber references at a
// time: what it finds per pair is what two scanners feeding a two-way
// intersecter emit. It serves GallopIntersect blocks (paper Section 4.2),
// the scanner + scanner + intersect triples the first fusion pass collapsed
// (stepGallop) and the fused leaf level (stepLeaf). How far a pointer skips
// costs nothing here — only the match sequence matters — so it is free to
// merge the two fibers or probe one of them (probeWorth).
type coiter struct {
	name   string
	la, lb fiber.Level
	ka, kb *fiber.CompressedLevel // set when both levels are compressed: the Crd arrays are read directly
	na, nb int

	lastA, lastB int       // the previous pair's fibers
	tab          *probeTab // nil until the probe first engages
}

func (x *exec) coiter(g *StepIR) coiter {
	la, lb := x.level(g.Label, g.Tensor, g.Level), x.level(g.Label, g.TensorB, g.LevelB)
	co := coiter{name: g.Label, la: la, lb: lb, na: la.NumFibers(), nb: lb.NumFibers(), lastA: -1, lastB: -1}
	ka, _ := la.(*fiber.CompressedLevel)
	kb, _ := lb.(*fiber.CompressedLevel)
	if ka != nil && kb != nil {
		co.ka, co.kb = ka, kb
	}
	return co
}

// A fiber named by two pairs in a row — what a Repeat produces — is probed,
// not merged again, when it is
//
//   - at least probeMinRatio times longer than the fiber it meets. A probe
//     spends one dependent load per coordinate of the short side, a merge one
//     well-predicted compare per coordinate of both; under a few times longer
//     the two cost the same (SDDMM's 48 against 48 measures equal either way)
//     and the build, a store per coordinate of the long fiber, is not repaid;
//   - and stores at least one coordinate in probeMaxSpread of its level. The
//     table is 4·N bytes whatever the fiber holds: at N ≤ 32·len, two cache
//     lines of table per stored coordinate at most, so a fiber that sits in
//     cache has a table that does. Sparser, each lookup is a miss and a lane's
//     arena carries megabytes to skip a few hundred compares.
const (
	probeMinRatio  = 4
	probeMaxSpread = 32
)

func probeWorth(long, short, n int) bool {
	return long >= probeMinRatio*short && long >= n/probeMaxSpread
}

// probeTab is the paper's iterate-locate, chosen from what the stream shows
// rather than from the schedule: pos maps a coordinate of the fiber the table
// holds to its position in the level's Crd, plus one; zero is absent. built
// is that fiber's coordinates, kept to clear by — only entries a fiber set
// are ever reset.
type probeTab struct {
	pos   []int32
	built []int32
}

func (t *probeTab) clear() {
	for _, c := range t.built {
		if uint(c) < uint(len(t.pos)) { // a failed build stopped at one that is not
			t.pos[c] = 0
		}
	}
	t.built = nil
}

// at looks a coordinate up; one outside the level is stored by no fiber.
func (t *probeTab) at(c int32) int32 {
	if uint(c) >= uint(len(t.pos)) {
		return 0
	}
	return t.pos[c]
}

// table returns the probe table over one fiber — coordinates crd, the first
// at position base, of a level of size n — building it over whatever it held
// unless it holds that fiber already.
func (co *coiter) table(x *exec, crd []int32, base, n int) *probeTab {
	if co.tab == nil {
		co.tab = &x.a.probe
		co.tab.clear() // of what an earlier step, or a failed run, left
	}
	t := co.tab
	if len(t.built) == len(crd) && &t.built[0] == &crd[0] { // crd is longer than a fiber that is not empty
		return t
	}
	t.clear()
	if len(t.pos) < n {
		t.pos = append(t.pos, make([]int32, n-len(t.pos))...)
	}
	t.built = crd
	for i, c := range crd {
		if c < 0 || int(c) >= n {
			fail("%s: coordinate %d outside level of size %d", co.name, c, n)
		}
		t.pos[c] = int32(base+i) + 1
	}
	return t
}

// pair intersects the two fibers a pair of reference tokens selects and
// returns the matches in coordinate order, in arena scratch the next call
// overwrites. The references are stream data: fiberOf checks each against its
// level, once per fiber.
func (co *coiter) pair(x *exec, ta, tb token.Tok) []match {
	fa, fb := fiberOf(co.name, ta, co.na), fiberOf(co.name, tb, co.nb)
	out := x.a.matches[:0]
	if co.ka == nil {
		out = mergeLevels(out, co.la, co.lb, fa, fb)
		x.a.matches = out
		return out
	}
	// A compressed coordinate's child reference is its position in Crd.
	ba, bb := int(co.ka.Seg[fa]), int(co.kb.Seg[fb])
	a, b := co.ka.Crd[ba:co.ka.Seg[fa+1]], co.kb.Crd[bb:co.kb.Seg[fb+1]]
	switch {
	case len(a) == 0 || len(b) == 0:
	case fb == co.lastB && probeWorth(len(b), len(a), co.kb.N):
		t := co.table(x, b, bb, co.kb.N)
		for i, c := range a {
			if p := t.at(c); p != 0 {
				out = append(out, match{int64(c), int64(ba + i), int64(p - 1)})
			}
		}
	case fa == co.lastA && probeWorth(len(a), len(b), co.ka.N):
		t := co.table(x, a, ba, co.ka.N)
		for j, c := range b {
			if p := t.at(c); p != 0 {
				out = append(out, match{int64(c), int64(p - 1), int64(bb + j)})
			}
		}
	default:
		out = mergeCrd(out, a, b, ba, bb)
	}
	co.lastA, co.lastB = fa, fb
	x.a.matches = out
	return out
}

// mergeLevels is mergeCrd through the Level interface, for every other
// storage format.
func mergeLevels(out []match, la, lb fiber.Level, fa, fb int) []match {
	i, n := 0, la.FiberLen(fa)
	j, m := 0, lb.FiberLen(fb)
	for i < n && j < m {
		switch ca, cb := la.Coord(fa, i), lb.Coord(fb, j); {
		case ca == cb:
			out = append(out, match{ca, la.ChildRef(fa, i), lb.ChildRef(fb, j)})
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
	return out
}

// mergeCrd appends the matches of two coordinate lists whose first elements
// sit at positions ba and bb: the package's one two-pointer merge over
// compressed fibers, a function of its own so its state stays in registers.
func mergeCrd(out []match, a, b []int32, ba, bb int) []match {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch ca, cb := a[i], b[j]; {
		case ca == cb:
			out = append(out, match{int64(ca), int64(ba + i), int64(bb + j)})
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
	return out
}

// aligned reports whether two tokens can share a position in two streams of
// one shape: two references (N included), two stops of one level, two dones.
func aligned(a, b token.Tok) bool {
	switch a.Kind {
	case token.Stop:
		return b.IsStop() && a.N == b.N
	case token.Done:
		return b.IsDone()
	}
	return b.IsVal() || b.IsEmpty()
}

// refPairs reads a co-iteration's two reference streams in step. next
// returns the next two tokens, aligned, and whether they close a fiber no
// stop has closed: a fiber ends at the stop behind it, or else where the next
// reference pair or the done token begins.
type refPairs struct {
	name   string
	ca, cb *cursor
	open   bool
}

func (w *refPairs) next() (ta, tb token.Tok, closes bool) {
	ta, tb = w.ca.next(), w.cb.next()
	if !aligned(ta, tb) {
		fail("%s: misaligned reference inputs %v vs %v", w.name, ta, tb)
	}
	closes = w.open && !ta.IsStop()
	w.open = ta.IsVal() || ta.IsEmpty()
	return ta, tb, closes
}

// stepGallop is the co-iteration kernel with its streams written out: each
// pair of fiber references yields one fiber of matched coordinates with both
// child references, stops rise one level.
func stepGallop(si *StepIR) step {
	inA, inB := si.Ins[0], si.Ins[1]
	outCrd, outRefA, outRefB := si.Outs[0], si.Outs[1], si.Outs[2]
	return func(x *exec) {
		co := x.coiter(si)
		w := refPairs{name: si.Label, ca: x.cur(inA), cb: x.cur(inB)}
		emit := func(t token.Tok) {
			x.push(outCrd, t)
			x.push(outRefA, t)
			x.push(outRefB, t)
		}
		for {
			ta, tb, closes := w.next()
			if closes {
				emit(token.S(0))
			}
			switch {
			case ta.IsStop():
				emit(token.S(ta.StopLevel() + 1))
			case ta.IsDone():
				emit(ta)
				return
			case ta.IsVal() && tb.IsVal(): // an absent fiber on either side empties the intersection
				for _, m := range co.pair(x, ta, tb) {
					x.push(outCrd, token.C(m.crd))
					x.push(outRefA, token.C(m.a))
					x.push(outRefB, token.C(m.b))
				}
			}
		}
	}
}

// stepLeaf is a whole leaf level as one loop (fuser.leafReduce): it walks G's
// reference pairs as stepGallop does, and where stepGallop writes each fiber
// of matches out for Array loads, an ALU tree and a scalar reducer to stream
// through, it evaluates the tree per match into a register accumulator and
// emits only what the reducer would: the sum per pair, each input stop back
// at its own level behind the sum it closes (the explicit zero for a group
// with no pair), and done. A hoisted operand is read once per pair, under
// stepRepeat's alignment rules. An N reference there is stepALU's absent
// operand, and +0 stands for it exactly: the ALU computes with zero in its
// place, two absent operands make an N where every op makes +0 of two zeros,
// and the reducer skips an N where adding +0 leaves the sum's bits alone (a
// sum that starts at +0 is never -0).
func stepLeaf(si *StepIR, lf *leafExpr) step {
	inA, inB, outer := si.Ins[0], si.Ins[1], si.Ins[2:]
	out := si.Outs[0]
	nh, root := len(outer), len(lf.prog)-1
	return func(x *exec) {
		co := x.coiter(&lf.g)
		prog := x.a.leafProg(lf.prog)
		// lim[s] is how far side s's child references may reach: the shortest
		// Vals an Array loads with them, arr[s] that Array's label.
		lim, arr := [2]int64{math.MaxInt64, math.MaxInt64}, [2]string{}
		for k := range prog {
			in := &prog[k]
			if in.op > leafHoist {
				continue
			}
			in.vals = x.vals(in.label, in.tensor)
			if n := int64(len(in.vals)); in.op != leafHoist && n < lim[in.op] {
				lim[in.op], arr[in.op] = n, in.label
			}
		}
		inRange := func(side int, r int64) {
			if r < 0 || r >= lim[side] {
				fail("%s: reference %d out of range", arr[side], r)
			}
		}
		w := refPairs{name: lf.g.Label, ca: x.cur(inA), cb: x.cur(inB)}
		hs := x.curs(outer)
		acc := 0.0
		for {
			ta, tb, closes := w.next()
			if closes {
				x.push(out, token.V(acc))
				acc = 0
			}
			for i, h := range hs {
				in := &prog[i]
				switch ht := h.next(); {
				case !aligned(ta, ht):
					fail("%s: misaligned reference %v at %v", in.label, ht, ta)
				case ht.IsEmpty():
					in.v = 0
				case ht.IsVal():
					if ht.N < 0 || ht.N >= int64(len(in.vals)) {
						fail("%s: reference %d out of range", in.label, ht.N)
					}
					in.v = in.vals[ht.N]
				}
			}
			switch {
			case ta.IsStop():
				x.push(out, token.V(acc))
				x.push(out, ta)
				acc = 0
			case ta.IsDone():
				x.push(out, ta)
				return
			case ta.IsVal() && tb.IsVal():
				ms := co.pair(x, ta, tb)
				// Compressed positions ascend with the coordinates, so the last
				// match bounds its fiber's; other formats promise no order.
				chk := ms
				if co.ka != nil && len(ms) > 0 {
					chk = ms[len(ms)-1:]
				}
				for _, m := range chk {
					inRange(0, m.a)
					inRange(1, m.b)
				}
				for _, m := range ms {
					for k := nh; k < len(prog); k++ {
						switch in := &prog[k]; in.op {
						case leafLoadA:
							in.v = in.vals[m.a]
						case leafLoadB:
							in.v = in.vals[m.b]
						case leafMul:
							in.v = prog[in.a].v * prog[in.b].v
						case leafAdd:
							in.v = prog[in.a].v + prog[in.b].v
						default:
							in.v = prog[in.a].v - prog[in.b].v
						}
					}
					acc += prog[root].v
				}
			}
		}
	}
}
