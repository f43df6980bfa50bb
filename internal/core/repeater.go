package core

import "sam/internal/token"

// Repeater implements array broadcasting (paper Definition 3.4): each
// non-control token on the input reference stream is repeated once for every
// non-control token of the corresponding fiber of the input coordinate
// stream. One reference token pairs with exactly one coordinate fiber; the
// coordinate stream's stop tokens pass through to the output and the
// reference stream's (one level shallower) stop tokens are consumed in
// lockstep.
type Repeater struct {
	basic
	inCrd *Queue
	inRef *Queue
	out   *Out

	cur     token.Tok
	haveCur bool
}

// NewRepeater builds a repeater block.
func NewRepeater(name string, inCrd, inRef *Queue, out *Out) *Repeater {
	return &Repeater{basic: basic{name: name}, inCrd: inCrd, inRef: inRef, out: out}
}

// Tick implements Block: a span of one cycle, which is one step.
func (b *Repeater) Tick() bool { return b.step() }

// span implements spanner.
func (b *Repeater) span(end uint32) (uint32, uint32) {
	return steps(b, b.inCrd.clk, end, b.inCrd, []*Queue{b.inCrd, b.inRef})
}

// step runs one cycle and reports whether the block made progress.
func (b *Repeater) step() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	t, ok := b.inCrd.Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val:
		if !b.haveCur {
			r, ok := b.inRef.Pop()
			if !ok {
				return false
			}
			if !r.IsVal() && !r.IsEmpty() {
				return b.fail("expected reference or empty token, got %v", r)
			}
			b.cur = r
			b.haveCur = true
		}
		b.inCrd.PopPeeked()
		b.out.Push(b.cur)
		return true
	case token.Stop:
		if !b.haveCur {
			// Either an empty coordinate fiber that still pairs with one
			// reference token (repeated zero times), or a structural empty
			// group whose boundary pairs with a reference-stream stop. The
			// reference stream's next token disambiguates.
			r, ok := b.inRef.Peek()
			if !ok {
				return false
			}
			if r.IsVal() || r.IsEmpty() {
				b.inRef.Pop()
				b.haveCur = true
				return true
			}
			if !r.IsStop() {
				return b.fail("reference stream misaligned at empty fiber: got %v", r)
			}
			if t.StopLevel() == 0 {
				return b.fail("empty fiber stop S0 but reference stream holds %v", r)
			}
			// Fall through with haveCur=false: the stop-pairing logic below
			// consumes the matching reference stop.
		}
		if t.StopLevel() >= 1 {
			rs, ok := b.inRef.Peek()
			if !ok {
				return false
			}
			if !rs.IsStop() || rs.StopLevel() != t.StopLevel()-1 {
				return b.fail("reference stream misaligned: crd stop %v vs ref %v", t, rs)
			}
			b.inRef.Pop()
		}
		b.inCrd.Pop()
		b.haveCur = false
		b.out.Push(t)
		return true
	case token.Done:
		rd, ok := b.inRef.Peek()
		if !ok {
			return false
		}
		if !rd.IsDone() {
			return b.fail("reference stream misaligned at done: got %v", rd)
		}
		b.inRef.Pop()
		b.inCrd.Pop()
		b.out.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("unexpected token %v on coordinate input", t)
}

// InQueues implements Block.
func (b *Repeater) InQueues() []*Queue { return []*Queue{b.inCrd, b.inRef} }

// OutPorts implements Block.
func (b *Repeater) OutPorts() []*Out { return []*Out{b.out} }
