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
	fibers int                    // lvl's fiber count: a reference names one below it
	in     *Queue
	outCrd *Out
	outRef *Out
	// runs and refs, when the scanner is paired (see Merger.Pair), are the
	// queues behind outCrd and outRef: a run of a fiber goes onto runs as
	// one run slot, and refs, which only the merger would read, is counted
	// but holds no token.
	runs, refs *Queue

	scanning   bool
	fib        int
	pos, end   int // the fiber's next and end positions: into Crd when compressed
	sepPending bool
}

// NewScanner builds a level scanner over one fibertree level.
func NewScanner(name string, lvl fiber.Level, in *Queue, outCrd, outRef *Out) *Scanner {
	cmp, _ := lvl.(*fiber.CompressedLevel)
	return &Scanner{basic: basic{name: name}, lvl: lvl, cmp: cmp, fibers: lvl.NumFibers(), in: in, outCrd: outCrd, outRef: outRef}
}

// Tick implements Block: a span of one cycle.
func (b *Scanner) Tick() bool { return tick(b, b.in.clk) }

// span implements spanner. A fiber's coordinates and child references go
// out one pair per cycle until the fiber ends or the span does; a reference
// starts its fiber, and a separator goes out, in the span itself, and the
// rarer tokens take step.
func (b *Scanner) span(end uint32) (stop, prog uint32) {
	clk := b.in.clk
	now := clk.now
	if b.done {
		return now, 0
	}
	if !b.outCrd.CanPush() || !b.outRef.CanPush() {
		return end, 0
	}
	for now < end {
		if b.scanning {
			m := min(b.end-b.pos, int(end-now))
			last := now + uint32(m) // the cycle after the run
			// A fiber ending before end takes its separator along when the
			// next input token is visible by then and is not a stop, which
			// would subsume it.
			sep := b.cmp != nil && b.pos+m == b.end && last < end
			if sep {
				h := b.in.headSlot()
				sep = h != nil && h.at <= last && h.kind != uint8(token.Stop)
			}
			b.emit(now, m, sep)
			if now = last; sep {
				now++
			}
			prog = now
			continue
		}
		s := b.in.headSlot()
		if s == nil || s.at >= end {
			return end, prog
		}
		now = max(now, s.at)
		clk.now = now
		switch {
		case s.kind != uint8(token.Val):
			if !b.step() {
				return now, prog
			}
		case b.sepPending:
			// The previous fiber's boundary: the separator goes out before
			// the next fiber starts.
			b.push(token.S(0))
			b.sepPending = false
		default:
			// Read the reference before the pop, which may hand its chunk
			// back to the pool for another net to fill.
			f := int64(s.x)
			if !b.ref(token.C(f)) {
				return now, prog
			}
			b.in.PopPeeked()
			if !b.start(int(f)) {
				continue // its first coordinate goes out this cycle
			}
		}
		now++
		prog = now
		if b.done {
			break
		}
	}
	return now, prog
}

// ref reports whether data token t on the reference input names a fiber
// of the level, and fails the block when it does not, with the texts
// comp's scanner fails with (comp.fiberOf).
func (b *Scanner) ref(t token.Tok) bool {
	switch {
	case t.Marked():
		return b.fail("expected reference or empty token, got %v", t)
	case t.N < 0 || t.N >= int64(b.fibers):
		return b.fail("fiber reference %d outside level of %d fibers", t.N, b.fibers)
	}
	return true
}

// start begins the scan of fiber f, and reports whether the fiber is empty:
// then its separator is pending.
func (b *Scanner) start(f int) bool {
	b.fib = f
	if b.cmp != nil {
		b.pos, b.end = int(b.cmp.Seg[f]), int(b.cmp.Seg[f+1])
	} else {
		b.pos, b.end = 0, b.lvl.FiberLen(f)
	}
	b.scanning = b.pos < b.end
	b.sepPending = !b.scanning
	return b.sepPending
}

// emit pushes the next m coordinates of the fiber with their child
// references over cycles now … now+m-1, and with sep, which a compressed
// level's fiber ending there may set, the separator at cycle now+m. A run
// of a compressed level's coordinates goes straight from Crd into the
// output chunks, and its references are the positions in Crd themselves;
// a single pair, all a one-cycle span emits, costs less through Push. A
// paired scanner pushes the run as one run slot and only counts its
// references.
func (b *Scanner) emit(now uint32, m int, sep bool) {
	switch {
	case b.runs != nil:
		b.runs.pushRun(now, b.pos, b.pos+m, sep)
		b.refs.count[token.Val] += int64(m)
		if sep {
			b.refs.count[token.Stop]++
		}
	case b.cmp == nil:
		for j := range m {
			b.in.clk.now = now + uint32(j)
			b.outCrd.Push(token.C(b.lvl.Coord(b.fib, b.pos+j)))
			b.outRef.Push(token.C(b.lvl.ChildRef(b.fib, b.pos+j)))
		}
	case m == 1 && !sep:
		b.outCrd.Push(token.C(int64(b.cmp.Crd[b.pos])))
		b.outRef.Push(token.C(int64(b.pos)))
	default:
		b.outCrd.pushData(now, m, b.cmp.Crd[b.pos:b.pos+m], 0, sep)
		b.outRef.pushData(now, m, nil, int64(b.pos), sep)
	}
	b.pos += m
	if b.pos == b.end {
		b.scanning = false
		b.sepPending = !sep
	}
}

// step runs one cycle on which no fiber is being scanned: it consumes the
// next input token and reports whether the block made progress. A reference
// to a non-empty fiber leaves the block scanning, its first coordinate still
// to be emitted this cycle. The span takes a reference itself; step serves
// the other tokens.
func (b *Scanner) step() bool {
	if b.done {
		return false
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
			b.push(token.S(0))
			b.sepPending = false
			return true
		}
		if t.IsVal() && !b.ref(t) {
			return false
		}
		b.in.PopPeeked()
		if t.IsEmpty() {
			// An absent operand (union N token) scans as an empty fiber.
			b.sepPending = true
			return true
		}
		b.start(int(t.N))
		return true
	case token.Stop:
		// An input stop increments by one level and subsumes any pending
		// fiber separator.
		b.in.PopPeeked()
		b.sepPending = false
		b.push(token.S(t.StopLevel() + 1))
		return true
	case token.Done:
		if b.sepPending {
			b.push(token.S(0))
			b.sepPending = false
			return true
		}
		b.in.PopPeeked()
		b.push(token.D())
		b.done = true
		return true
	}
	return b.fail("unexpected token %v on reference input", t)
}

// push emits stop or done token t on both outputs; a paired scanner's
// reference queue only counts it.
func (b *Scanner) push(t token.Tok) {
	b.outCrd.Push(t)
	if b.refs != nil {
		b.refs.count[t.Kind]++
	} else {
		b.outRef.Push(t)
	}
}

// InQueues implements Block.
func (b *Scanner) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *Scanner) OutPorts() []*Out { return []*Out{b.outCrd, b.outRef} }
