package comp

import (
	"sam/internal/fiber"
	"sam/internal/token"
)

// stepGallop is the co-iteration kernel: each pair of fiber references
// selects one fiber of each storage level, and the two fibers are merged in
// place, emitting every matched coordinate with both child references. It
// serves the coordinate-skipping intersection of paper Section 4.2
// (GallopIntersect blocks) and every scanner + scanner + intersect triple
// that fuseScanIntersect collapsed; the emitted streams are exactly those of
// two scanners feeding a two-way intersecter. How far a pointer skips costs
// nothing here — only the token sequence matters — so the merge is a plain
// two-pointer walk.
func stepGallop(si *StepIR) step {
	inA, inB := si.Ins[0], si.Ins[1]
	outCrd, outRefA, outRefB := si.Outs[0], si.Outs[1], si.Outs[2]
	opA, lvA := si.Tensor, si.Level
	opB, lvB := si.TensorB, si.LevelB
	name := si.Label
	return func(x *exec) {
		la := x.level(name, opA, lvA)
		lb := x.level(name, opB, lvB)
		// Two compressed levels merge their coordinate arrays directly; any
		// other format goes through the Level interface.
		ka, _ := la.(*fiber.CompressedLevel)
		kb, _ := lb.(*fiber.CompressedLevel)
		typed := ka != nil && kb != nil
		na, nb := la.NumFibers(), lb.NumFibers()
		ca, cb := x.cur(inA), x.cur(inB)
		sep := false
		for {
			ta := ca.next()
			tb := cb.next()
			switch {
			case (ta.IsVal() || ta.IsEmpty()) && (tb.IsVal() || tb.IsEmpty()):
				if sep {
					x.push(outCrd, token.S(0))
					x.push(outRefA, token.S(0))
					x.push(outRefB, token.S(0))
				}
				sep = true
				if ta.IsEmpty() || tb.IsEmpty() {
					// An absent fiber on either side empties the intersection.
					continue
				}
				fa, fb := fiberOf(name, ta, na), fiberOf(name, tb, nb)
				if typed {
					x.mergeCompressed(ka, kb, fa, fb, outCrd, outRefA, outRefB)
				} else {
					x.mergeLevels(la, lb, fa, fb, outCrd, outRefA, outRefB)
				}
			case ta.IsStop() && tb.IsStop():
				if ta.StopLevel() != tb.StopLevel() {
					fail("%s: misaligned stops %v vs %v", name, ta, tb)
				}
				sep = false
				s := token.S(ta.StopLevel() + 1)
				x.push(outCrd, s)
				x.push(outRefA, s)
				x.push(outRefB, s)
			case ta.IsDone() && tb.IsDone():
				if sep {
					x.push(outCrd, token.S(0))
					x.push(outRefA, token.S(0))
					x.push(outRefB, token.S(0))
				}
				x.push(outCrd, token.D())
				x.push(outRefA, token.D())
				x.push(outRefB, token.D())
				return
			default:
				fail("%s: misaligned reference inputs %v vs %v", name, ta, tb)
			}
		}
	}
}

// mergeCompressed intersects fiber fa of la with fiber fb of lb over the raw
// coordinate arrays; a compressed coordinate's child reference is its
// position in Crd.
func (x *exec) mergeCompressed(la, lb *fiber.CompressedLevel, fa, fb, outCrd, outRefA, outRefB int) {
	ba, bb := int(la.Seg[fa]), int(lb.Seg[fb])
	a, b := la.Crd[ba:la.Seg[fa+1]], lb.Crd[bb:lb.Seg[fb+1]]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch ca, cb := a[i], b[j]; {
		case ca == cb:
			x.push(outCrd, token.C(int64(ca)))
			x.push(outRefA, token.C(int64(ba+i)))
			x.push(outRefB, token.C(int64(bb+j)))
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
}

// mergeLevels is mergeCompressed through the Level interface, for every
// other storage format.
func (x *exec) mergeLevels(la, lb fiber.Level, fa, fb, outCrd, outRefA, outRefB int) {
	i, n := 0, la.FiberLen(fa)
	j, m := 0, lb.FiberLen(fb)
	for i < n && j < m {
		switch ca, cb := la.Coord(fa, i), lb.Coord(fb, j); {
		case ca == cb:
			x.push(outCrd, token.C(ca))
			x.push(outRefA, token.C(la.ChildRef(fa, i)))
			x.push(outRefB, token.C(lb.ChildRef(fb, j)))
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
}
