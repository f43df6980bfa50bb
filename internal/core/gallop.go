package core

import (
	"math/bits"
	"sort"

	"sam/internal/fiber"
	"sam/internal/token"
)

// GallopIntersect is the coordinate-skipping intersection of paper
// Section 4.2: two level scanners fused with an intersecter where each side
// can skip ahead to the other side's coordinate instead of streaming every
// coordinate in between. The paper realizes this with a skip signal from the
// intersecter back to the trailing level scanner plus a locator; this block
// models the composed unit, charging one cycle per emitted match and
// 1+log2(distance) cycles per skip (a galloping search), so that uniformly
// random data costs the same as plain two-finger intersection while long runs
// are skipped in logarithmic time (Figure 13b).
type GallopIntersect struct {
	basic
	lvlA, lvlB fiber.Level
	inA, inB   *Queue // reference streams of depth k, fiber-aligned
	outCrd     *Out
	outRefA    *Out
	outRefB    *Out

	scanning   bool
	fa, fb     int
	pa, na     int
	pb, nb     int
	stall      int
	sepPending bool
}

// NewGallopIntersect builds a skipping intersecter over two levels.
func NewGallopIntersect(name string, lvlA, lvlB fiber.Level, inA, inB *Queue, outCrd, outRefA, outRefB *Out) *GallopIntersect {
	return &GallopIntersect{
		basic: basic{name: name}, lvlA: lvlA, lvlB: lvlB,
		inA: inA, inB: inB, outCrd: outCrd, outRefA: outRefA, outRefB: outRefB,
	}
}

// skipCost is the cycle cost of a galloping jump over dist coordinates:
// one probe plus one per doubling step, never worse than streaming linearly.
func skipCost(dist int) int {
	if dist <= 1 {
		return 1
	}
	cost := 1 + bits.Len(uint(dist-1))
	if cost > dist {
		cost = dist
	}
	return cost
}

// gallopTo returns the first position in [pos, n) of the level's fiber f
// whose coordinate is >= target.
func gallopTo(lvl fiber.Level, f, pos, n int, target int64) int {
	return pos + sort.Search(n-pos, func(i int) bool { return lvl.Coord(f, pos+i) >= target })
}

// Tick implements Block.
func (b *GallopIntersect) Tick() bool {
	if b.done {
		return false
	}
	if b.stall > 0 {
		b.stall--
		return true
	}
	if !b.outCrd.CanPush() || !b.outRefA.CanPush() || !b.outRefB.CanPush() {
		return false
	}
	if b.scanning {
		if b.pa >= b.na || b.pb >= b.nb {
			b.scanning = false
			b.sepPending = true
			return true
		}
		ca := b.lvlA.Coord(b.fa, b.pa)
		cb := b.lvlB.Coord(b.fb, b.pb)
		switch {
		case ca == cb:
			b.outCrd.Push(token.C(ca))
			b.outRefA.Push(token.C(b.lvlA.ChildRef(b.fa, b.pa)))
			b.outRefB.Push(token.C(b.lvlB.ChildRef(b.fb, b.pb)))
			b.pa++
			b.pb++
		case ca < cb:
			np := gallopTo(b.lvlA, b.fa, b.pa, b.na, cb)
			b.stall = skipCost(np-b.pa) - 1
			b.pa = np
		default:
			np := gallopTo(b.lvlB, b.fb, b.pb, b.nb, ca)
			b.stall = skipCost(np-b.pb) - 1
			b.pb = np
		}
		return true
	}
	ta, ok := b.inA.Peek()
	if !ok {
		return false
	}
	tb, ok := b.inB.Peek()
	if !ok {
		return false
	}
	emitAll := func(t token.Tok) {
		b.outCrd.Push(t)
		b.outRefA.Push(t)
		b.outRefB.Push(t)
	}
	switch {
	case (ta.IsVal() || ta.IsEmpty()) && (tb.IsVal() || tb.IsEmpty()):
		if b.sepPending {
			emitAll(token.S(0))
			b.sepPending = false
			return true
		}
		b.inA.Pop()
		b.inB.Pop()
		if ta.IsEmpty() || tb.IsEmpty() {
			// An absent fiber on either side empties the intersection.
			b.sepPending = true
			return true
		}
		b.fa, b.fb = int(ta.N), int(tb.N)
		b.pa, b.na = 0, b.lvlA.FiberLen(b.fa)
		b.pb, b.nb = 0, b.lvlB.FiberLen(b.fb)
		b.scanning = true
		return true
	case ta.IsStop() && tb.IsStop():
		if ta.StopLevel() != tb.StopLevel() {
			return b.fail("misaligned stops %v vs %v", ta, tb)
		}
		b.inA.Pop()
		b.inB.Pop()
		b.sepPending = false
		emitAll(token.S(ta.StopLevel() + 1))
		return true
	case ta.IsDone() && tb.IsDone():
		if b.sepPending {
			emitAll(token.S(0))
			b.sepPending = false
			return true
		}
		b.inA.Pop()
		b.inB.Pop()
		emitAll(token.D())
		b.done = true
		return true
	}
	return b.fail("misaligned reference inputs %v vs %v", ta, tb)
}

// InQueues implements Block.
func (b *GallopIntersect) InQueues() []*Queue { return []*Queue{b.inA, b.inB} }

// OutPorts implements Block.
func (b *GallopIntersect) OutPorts() []*Out { return []*Out{b.outCrd, b.outRefA, b.outRefB} }
