package core

import "sam/internal/token"

// CrdDropCrd is the coordinate dropper in coordinate mode (paper
// Definition 3.9, Figure 8): it pairs each outer-level coordinate with one
// inner-level fiber, drops outer coordinates whose inner fiber is empty, and
// removes the dropped fiber's now-redundant stop tokens.
//
// The two outputs follow asymmetric stop rules that keep chained droppers and
// level writers consistent:
//
//   - outer: coordinates are filtered but every outer stop passes verbatim,
//     so fibers whose coordinates were all dropped remain visible (as empty
//     fibers) to the next dropper out.
//   - inner: kept fibers pass through; boundaries of dropped fibers merge
//     upward into a single held stop (the maximum level crossed), emitted
//     before the next kept fiber — so the number of inner fibers always
//     equals the number of surviving outer coordinates.
type CrdDropCrd struct {
	basic
	inOuter  *Queue // coordinate stream, depth k
	inInner  *Queue // coordinate stream, depth k+1
	outOuter *Out
	outInner *Out

	pending     token.Tok
	havePending bool
	emitted     bool // current inner fiber emitted at least one token
	everEmitted bool // any inner data emitted since stream start
	heldInner   int  // merged pending inner stop level, -1 if none
}

// NewCrdDropCrd builds a coordinate-mode dropper.
func NewCrdDropCrd(name string, inOuter, inInner *Queue, outOuter, outInner *Out) *CrdDropCrd {
	return &CrdDropCrd{
		basic: basic{name: name}, inOuter: inOuter, inInner: inInner,
		outOuter: outOuter, outInner: outInner, heldInner: -1,
	}
}

// Tick implements Block.
func (b *CrdDropCrd) Tick() bool {
	if b.done {
		return false
	}
	if !b.outOuter.CanPush() || !b.outInner.CanPush() {
		return false
	}
	t, ok := b.inInner.Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		if b.heldInner >= 0 {
			// Flush the merged boundary before the next fiber's data;
			// boundaries preceding the first kept fiber are discarded.
			if b.everEmitted {
				b.outInner.Push(token.S(b.heldInner))
			}
			b.heldInner = -1
			return true
		}
		if !b.emitted {
			if !b.havePending {
				to, ok := b.inOuter.Pop()
				if !ok {
					return false
				}
				if !to.IsVal() {
					return b.fail("expected outer coordinate, got %v", to)
				}
				b.pending = to
				b.havePending = true
			}
			b.outOuter.Push(b.pending)
			b.havePending = false
			b.emitted = true
		}
		b.inInner.Pop()
		b.outInner.Push(t)
		b.everEmitted = true
		return true
	case token.Stop:
		lvl := t.StopLevel()
		if !b.emitted && !b.havePending {
			to, ok := b.inOuter.Peek()
			if !ok {
				return false
			}
			if to.IsVal() {
				// The empty fiber's outer coordinate: stage it so the next
				// cycle can discard it together with the fiber.
				b.inOuter.Pop()
				b.pending = to
				b.havePending = true
				return true
			}
			if lvl == 0 {
				return b.fail("outer stream misaligned: inner S0 but outer %v", to)
			}
			// Structural empty outer fiber: no coordinate to pair with.
		}
		if lvl >= 1 {
			ts, ok := b.inOuter.Peek()
			if !ok {
				return false
			}
			if !ts.IsStop() || ts.StopLevel() != lvl-1 {
				return b.fail("outer stream misaligned: inner %v vs outer %v", t, ts)
			}
			b.inOuter.Pop()
			b.outOuter.Push(token.S(lvl - 1))
		}
		b.inInner.Pop()
		if lvl > b.heldInner {
			b.heldInner = lvl
		}
		b.havePending = false // a dropped fiber discards its coordinate
		b.emitted = false
		return true
	case token.Done:
		if b.heldInner >= 0 {
			if b.everEmitted {
				b.outInner.Push(token.S(b.heldInner))
			}
			b.heldInner = -1
			return true
		}
		to, ok := b.inOuter.Peek()
		if !ok {
			return false
		}
		if !to.IsDone() {
			return b.fail("outer stream misaligned at done: %v", to)
		}
		b.inOuter.Pop()
		b.inInner.Pop()
		b.outOuter.Push(token.D())
		b.outInner.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("unexpected token %v on inner input", t)
}

// CrdDropVal is the coordinate dropper in value mode: the inner stream is a
// value stream at the same depth as the outer coordinate stream, pairing one
// value with one coordinate. Coordinates whose value is an explicit zero or
// an empty token are dropped together with the value (paper Section 3.7).
// Stop tokens pass through verbatim on both streams; fibers whose
// coordinates were all dropped become empty fibers for the next dropper out.
type CrdDropVal struct {
	basic
	inOuter  *Queue
	inVal    *Queue
	outOuter *Out
	outVal   *Out
}

// NewCrdDropVal builds a value-mode dropper.
func NewCrdDropVal(name string, inOuter, inVal *Queue, outOuter, outVal *Out) *CrdDropVal {
	return &CrdDropVal{basic: basic{name: name}, inOuter: inOuter, inVal: inVal, outOuter: outOuter, outVal: outVal}
}

// Tick implements Block.
func (b *CrdDropVal) Tick() bool {
	if b.done {
		return false
	}
	if !b.outOuter.CanPush() || !b.outVal.CanPush() {
		return false
	}
	tc, ok := b.inOuter.Peek()
	if !ok {
		return false
	}
	tv, ok := b.inVal.Peek()
	if !ok {
		return false
	}
	switch {
	case tc.IsVal() && (tv.IsVal() || tv.IsEmpty()):
		b.inOuter.Pop()
		b.inVal.Pop()
		if tv.IsEmpty() || tv.V == 0 {
			return true
		}
		b.outOuter.Push(tc)
		b.outVal.Push(tv)
		return true
	case tc.IsStop() && (tv.IsVal() || tv.IsEmpty()):
		// An orphan zero: a scalar reduction of a structurally empty group
		// (one with no coordinate at all) emits an explicit zero that pairs
		// with no outer coordinate. Discard it to restore alignment.
		if tv.IsVal() && tv.V != 0 {
			return b.fail("nonzero value %v with no outer coordinate", tv)
		}
		b.inVal.Pop()
		return true
	case tc.IsStop() && tv.IsStop():
		if tc.StopLevel() != tv.StopLevel() {
			return b.fail("misaligned stops S%d vs S%d", tc.StopLevel(), tv.StopLevel())
		}
		b.inOuter.Pop()
		b.inVal.Pop()
		b.outOuter.Push(tc)
		b.outVal.Push(tv)
		return true
	case tc.IsDone() && tv.IsDone():
		b.inOuter.Pop()
		b.inVal.Pop()
		b.outOuter.Push(token.D())
		b.outVal.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("misaligned inputs %v vs %v", tc, tv)
}

// InQueues implements Block.
func (b *CrdDropCrd) InQueues() []*Queue { return []*Queue{b.inOuter, b.inInner} }

// OutPorts implements Block.
func (b *CrdDropCrd) OutPorts() []*Out { return []*Out{b.outOuter, b.outInner} }

// InQueues implements Block.
func (b *CrdDropVal) InQueues() []*Queue { return []*Queue{b.inOuter, b.inVal} }

// OutPorts implements Block.
func (b *CrdDropVal) OutPorts() []*Out { return []*Out{b.outOuter, b.outVal} }
