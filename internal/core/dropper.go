package core

import "sam/internal/token"

// Dropper is the coordinate dropper (paper Definition 3.9, Figure 8): it
// pairs each coordinate of the outer stream with what the inner stream holds
// for it and drops the coordinates that hold nothing. In coordinate mode the
// inner input is a coordinate stream one level deeper, one fiber per outer
// coordinate, dropped when empty. In value mode it is a value stream at the
// outer stream's depth, one value per outer coordinate, dropped when zero or
// N (paper Section 3.7). Inner data is a coordinate in coordinate mode and a
// value or N in value mode.
//
// The stop rules are asymmetric, which keeps chained droppers and level
// writers consistent. Outer stops pass verbatim, so a fiber whose coordinates
// were all dropped stays visible, as an empty fiber, to the next dropper out.
// In coordinate mode the stops closing dropped inner fibers merge upward into
// one held stop (the highest level crossed), emitted before the next kept
// fiber, so the inner output holds one fiber per surviving outer coordinate;
// in value mode inner stops pass verbatim too.
//
// Each cycle it peeks the inner head, and the outer head when a rule needs it,
// and applies the first rule that holds:
//   - a stop is held and the inner head is data or done: emit the held stop,
//     unless no inner data has gone out yet, and clear it;
//   - inner done: the outer head must be done; forward the done;
//   - inner data in a fiber whose coordinate has gone out: forward it;
//   - inner data, outer coordinate: consume both and forward both, unless
//     the data is a value-mode zero or N; in coordinate mode this opens the
//     fiber;
//   - inner data, outer stop, value mode: an orphan — what a scalar
//     reducer sums a structurally empty group to — so discard a zero or N
//     and fail on anything else;
//   - any other inner data fails: it has no outer coordinate;
//   - inner stop closing a coordinate-mode fiber that has no coordinate yet,
//     outer coordinate: consume the coordinate, dropping the empty fiber;
//   - inner stop S(m): the outer head must be the stop it pairs with, S(m)
//     in value mode and S(m-1) in coordinate mode (an S0 closing a fiber
//     that has its coordinate pairs with none); forward that stop, and
//     forward the inner stop in value mode or raise the held stop to m in
//     coordinate mode;
//
// and any other token on the inner input (an N in coordinate mode) fails.
// comp's stepDrop follows the same rules.
type Dropper struct {
	basic
	val      bool
	inOuter  *Queue
	inInner  *Queue
	outOuter *Out
	outInner *Out

	held   int  // merged pending inner stop level, -1 if none
	paired bool // the current inner fiber's outer coordinate is consumed
	sent   bool // any inner data emitted since stream start
}

// NewDropper builds a coordinate dropper, in value mode when val is set.
func NewDropper(name string, val bool, inOuter, inInner *Queue, outOuter, outInner *Out) *Dropper {
	return &Dropper{
		basic: basic{name: name}, val: val, inOuter: inOuter, inInner: inInner,
		outOuter: outOuter, outInner: outInner, held: -1,
	}
}

// Tick implements Block.
func (b *Dropper) Tick() bool {
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
	data := t.IsVal() || b.val && t.IsEmpty()
	if b.held >= 0 && (data || t.IsDone()) {
		if b.sent {
			b.outInner.Push(token.S(b.held))
		}
		b.held = -1
		return true
	}
	switch {
	case t.IsDone():
		o, ok := b.inOuter.Peek()
		if !ok {
			return false
		}
		if !o.IsDone() {
			return b.fail("outer stream misaligned at done: %v", o)
		}
		b.inOuter.Pop()
		b.inInner.Pop()
		b.outOuter.Push(token.D())
		b.outInner.Push(token.D())
		b.done = true
		return true
	case data && b.paired:
		b.inInner.Pop()
		b.outInner.Push(t)
		return true
	case data:
		o, ok := b.inOuter.Peek()
		if !ok {
			return false
		}
		switch {
		case o.IsVal():
			b.inOuter.Pop()
			b.inInner.Pop()
			if !b.val || t.IsVal() && t.V != 0 {
				b.outOuter.Push(o)
				b.outInner.Push(t)
				b.paired = !b.val
				b.sent = true
			}
			return true
		case b.val && o.IsStop():
			if t.IsVal() && t.V != 0 {
				return b.fail("nonzero value %v with no outer coordinate", t)
			}
			b.inInner.Pop()
			return true
		}
		return b.fail("expected outer coordinate, got %v", o)
	case t.IsStop():
		m := t.StopLevel()
		pair := m - 1
		if b.val {
			pair = m
		}
		if pair >= 0 || !b.paired {
			o, ok := b.inOuter.Peek()
			if !ok {
				return false
			}
			if !b.val && !b.paired && o.IsVal() {
				b.inOuter.Pop()
				b.paired = true
				return true
			}
			if !o.IsStop() || o.StopLevel() != pair {
				return b.fail("outer stream misaligned: inner %v vs outer %v", t, o)
			}
			b.inOuter.Pop()
			b.outOuter.Push(o)
		}
		b.inInner.Pop()
		if b.val {
			b.outInner.Push(t)
		} else {
			b.held = max(b.held, m)
			b.paired = false
		}
		return true
	}
	return b.fail("unexpected token %v on inner input", t)
}

// InQueues implements Block.
func (b *Dropper) InQueues() []*Queue { return []*Queue{b.inOuter, b.inInner} }

// OutPorts implements Block.
func (b *Dropper) OutPorts() []*Out { return []*Out{b.outOuter, b.outInner} }
