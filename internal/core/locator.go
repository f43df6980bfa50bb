package core

import (
	"sam/internal/fiber"
	"sam/internal/token"
)

// Locator implements iterate-locate (leader-follower) intersection (paper
// Definition 4.1 and Section 4.2): a driver coordinate stream asks the bound
// tensor level whether it contains each coordinate instead of co-iterating.
// Found coordinates emit the input coordinate, the pass-through driver
// reference, and the located reference; missing coordinates are filtered from
// all three outputs.
//
// The fiber to search is selected by the inFiber reference stream (one
// reference per driver fiber, like a repeater); locating into a vector or a
// tensor's top level selects its root fiber, 0.
type Locator struct {
	basic
	lvl     fiber.Level
	inCrd   *Queue
	inRef   *Queue
	inFiber *Queue
	outCrd  *Out
	outRef  *Out
	outLoc  *Out

	cur     token.Tok // current fiber-select token (Val or N)
	haveCur bool
}

// NewLocator builds a locator over one tensor level.
func NewLocator(name string, lvl fiber.Level, inCrd, inRef, inFiber *Queue, outCrd, outRef, outLoc *Out) *Locator {
	return &Locator{
		basic: basic{name: name}, lvl: lvl,
		inCrd: inCrd, inRef: inRef, inFiber: inFiber,
		outCrd: outCrd, outRef: outRef, outLoc: outLoc,
	}
}

// Tick implements Block.
func (b *Locator) Tick() bool {
	if b.done {
		return false
	}
	if !b.outCrd.CanPush() || !b.outRef.CanPush() || !b.outLoc.CanPush() {
		return false
	}
	t, ok := b.inCrd.Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		if !b.haveCur {
			f, ok := b.inFiber.Pop()
			if !ok {
				return false
			}
			if !f.IsVal() && !f.IsEmpty() {
				return b.fail("expected fiber-select reference, got %v", f)
			}
			b.cur = f
			b.haveCur = true
		}
		b.inCrd.Pop()
		r, ok := b.inRef.Pop()
		if !ok {
			return b.fail("reference stream shorter than coordinate stream")
		}
		if b.cur.IsEmpty() {
			// The whole follower fiber is absent: filter the coordinate.
			return true
		}
		loc, found := b.lvl.Locate(int(b.cur.N), t.N)
		if !found {
			return true
		}
		b.outCrd.Push(t)
		b.outRef.Push(r)
		b.outLoc.Push(token.C(loc))
		return true
	case token.Stop:
		if !b.haveCur {
			fs, ok := b.inFiber.Peek()
			if !ok {
				return false
			}
			if fs.IsVal() || fs.IsEmpty() {
				// Empty driver fiber: its fiber-select token is consumed
				// with zero lookups.
				b.inFiber.Pop()
				b.haveCur = true
				return true
			}
			if !fs.IsStop() || t.StopLevel() == 0 {
				return b.fail("fiber-select stream misaligned at empty fiber: got %v", fs)
			}
			// Structural empty group: the stop-pairing below consumes the
			// matching fiber-select stop.
		}
		if t.StopLevel() >= 1 {
			fs, ok := b.inFiber.Peek()
			if !ok {
				return false
			}
			if !fs.IsStop() || fs.StopLevel() != t.StopLevel()-1 {
				return b.fail("fiber-select stream misaligned: crd %v vs %v", t, fs)
			}
			b.inFiber.Pop()
		}
		b.haveCur = false
		b.inCrd.Pop()
		rs, ok := b.inRef.Pop()
		if !ok || !rs.IsStop() || rs.StopLevel() != t.StopLevel() {
			return b.fail("reference stream misaligned at stop %v", t)
		}
		b.outCrd.Push(t)
		b.outRef.Push(t)
		b.outLoc.Push(t)
		return true
	case token.Done:
		fd, ok := b.inFiber.Peek()
		if !ok {
			return false
		}
		if !fd.IsDone() {
			return b.fail("fiber-select stream misaligned at done: %v", fd)
		}
		b.inFiber.Pop()
		b.inCrd.Pop()
		rd, ok := b.inRef.Pop()
		if !ok || !rd.IsDone() {
			return b.fail("reference stream misaligned at done")
		}
		b.outCrd.Push(token.D())
		b.outRef.Push(token.D())
		b.outLoc.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("unexpected token %v on coordinate input", t)
}

// InQueues implements Block.
func (b *Locator) InQueues() []*Queue { return []*Queue{b.inCrd, b.inRef, b.inFiber} }

// OutPorts implements Block.
func (b *Locator) OutPorts() []*Out { return []*Out{b.outCrd, b.outRef, b.outLoc} }
