package core

import (
	"sam/internal/fiber"
	"sam/internal/token"
)

// Scanner is the SAM level scanner (paper Definition 3.1). It consumes a
// reference stream of depth k and produces one fibertree level as a
// coordinate stream and a reference stream of depth k+1: for every input
// reference it emits the fiber's coordinates with their child references,
// separates fibers with S0 tokens, and increments every input stop token by
// one level (which subsumes the final fiber's separator, as in Figure 2).
//
// The same state machine serves compressed, dense (uncompressed) and
// linked-list level formats — the scanner interface is format agnostic
// (paper Figure 3); bitvector levels use BVScanner.
type Scanner struct {
	basic
	lvl    fiber.Level
	cmp    *fiber.CompressedLevel // lvl when compressed, read directly
	in     *Queue
	outCrd *Out
	outRef *Out

	scanning   bool
	fib        int
	pos, end   int // the fiber's next and end positions: into Crd when compressed
	sepPending bool
}

// NewScanner builds a level scanner over one fibertree level.
func NewScanner(name string, lvl fiber.Level, in *Queue, outCrd, outRef *Out) *Scanner {
	cmp, _ := lvl.(*fiber.CompressedLevel)
	return &Scanner{basic: basic{name: name}, lvl: lvl, cmp: cmp, in: in, outCrd: outCrd, outRef: outRef}
}

// emit pushes the coordinate at pos with its child reference and advances;
// a compressed level's reference is the position in Crd itself.
func (b *Scanner) emit() {
	if b.cmp != nil {
		b.outCrd.Push(token.C(int64(b.cmp.Crd[b.pos])))
		b.outRef.Push(token.C(int64(b.pos)))
	} else {
		b.outCrd.Push(token.C(b.lvl.Coord(b.fib, b.pos)))
		b.outRef.Push(token.C(b.lvl.ChildRef(b.fib, b.pos)))
	}
	b.pos++
	if b.pos == b.end {
		b.scanning = false
		b.sepPending = true
	}
}

// Tick implements Block.
func (b *Scanner) Tick() bool {
	if b.done {
		return false
	}
	if !b.outCrd.CanPush() || !b.outRef.CanPush() {
		return false
	}
	if b.scanning {
		b.emit()
		return true
	}
	t, ok := b.in.Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val, token.Empty:
		if b.sepPending {
			// The previous fiber's boundary: emit the separator before
			// starting the next fiber.
			b.outCrd.Push(token.S(0))
			b.outRef.Push(token.S(0))
			b.sepPending = false
			return true
		}
		b.in.Pop()
		if t.IsEmpty() {
			// An absent operand (union N token) scans as an empty fiber.
			b.sepPending = true
			return true
		}
		b.fib = int(t.N)
		if b.cmp != nil {
			b.pos, b.end = int(b.cmp.Seg[b.fib]), int(b.cmp.Seg[b.fib+1])
		} else {
			b.pos, b.end = 0, b.lvl.FiberLen(b.fib)
		}
		if b.pos == b.end {
			b.sepPending = true
			return true
		}
		b.scanning = true
		b.emit()
		return true
	case token.Stop:
		// An input stop increments by one level and subsumes any pending
		// fiber separator.
		b.in.Pop()
		b.sepPending = false
		b.outCrd.Push(token.S(t.StopLevel() + 1))
		b.outRef.Push(token.S(t.StopLevel() + 1))
		return true
	case token.Done:
		if b.sepPending {
			b.outCrd.Push(token.S(0))
			b.outRef.Push(token.S(0))
			b.sepPending = false
			return true
		}
		b.in.Pop()
		b.outCrd.Push(token.D())
		b.outRef.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("unexpected token %v on reference input", t)
}

// InQueues implements Block.
func (b *Scanner) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *Scanner) OutPorts() []*Out { return []*Out{b.outCrd, b.outRef} }
