package core

import "sam/internal/token"

// Merger is the m-ary intersecter (paper Definition 3.2) or unioner
// (Definition 3.3): one two-finger merge generalized to m fiber-aligned
// (coordinate, reference) stream pairs, the two differing only when the heads
// disagree. Each cycle it peeks every coordinate head and applies the first
// rule that holds:
//   - all heads done: forward the done;
//   - some heads done: fail;
//   - all heads stopped at one level: forward the stop;
//   - a unioner, or an intersecter whose heads all hold the minimum
//     coordinate: emit the minimum, with the consumed reference of every input
//     holding it and N on the reference output of every input lacking it
//     (paper Figure 5);
//   - otherwise (intersecter only): consume every holder of the minimum, or,
//     once some head has stopped, every coordinate, since the stopped fibers
//     are exhausted and nothing left can match;
//
// and any other token on a coordinate input fails. comp's stepMerge follows
// the same rules.
type Merger struct {
	basic
	union  bool
	inCrd  []*Queue
	inRef  []*Queue
	outCrd *Out
	outRef []*Out

	heads []token.Tok // per-tick peek scratch
}

// NewMerger builds an m-ary intersecter, or unioner when union is set; the
// slices must have equal length m >= 2.
func NewMerger(name string, union bool, inCrd, inRef []*Queue, outCrd *Out, outRef []*Out) *Merger {
	return &Merger{basic: basic{name: name}, union: union, inCrd: inCrd, inRef: inRef, outCrd: outCrd, outRef: outRef}
}

// Tick implements Block.
func (b *Merger) Tick() bool {
	if b.done {
		return false
	}
	if !b.union && len(b.inCrd) == 2 {
		// The two-way intersecter's common case, both heads coordinates, is
		// the rule list's last two rules over two inputs.
		a, okA := b.inCrd[0].Peek()
		c, okC := b.inCrd[1].Peek()
		if !okA || !okC {
			return false
		}
		if a.Kind == token.Val && c.Kind == token.Val {
			if !b.outCrd.CanPush() || !b.outRef[0].CanPush() || !b.outRef[1].CanPush() {
				return false
			}
			switch {
			case a.N == c.N:
				b.inCrd[0].Pop()
				b.inCrd[1].Pop()
				ra, _ := b.inRef[0].Pop()
				rc, _ := b.inRef[1].Pop()
				b.outCrd.Push(token.C(a.N))
				b.outRef[0].Push(ra)
				b.outRef[1].Push(rc)
			case a.N < c.N:
				b.inCrd[0].Pop()
				b.inRef[0].Pop()
			default:
				b.inCrd[1].Pop()
				b.inRef[1].Pop()
			}
			return true
		}
	}
	m := len(b.inCrd)
	if b.heads == nil {
		b.heads = make([]token.Tok, m)
	}
	heads := b.heads
	for i, q := range b.inCrd {
		t, ok := q.Peek()
		if !ok {
			return false
		}
		heads[i] = t
	}
	if !b.outCrd.CanPush() {
		return false
	}
	for _, o := range b.outRef {
		if !o.CanPush() {
			return false
		}
	}

	nVal, nMin, nStop, nDone := 0, 0, 0, 0
	var minC int64
	stopLvl := -1
	for _, t := range heads {
		switch t.Kind {
		case token.Val:
			switch {
			case nVal == 0 || t.N < minC:
				minC, nMin = t.N, 1
			case t.N == minC:
				nMin++
			}
			nVal++
		case token.Stop:
			if stopLvl == -1 {
				stopLvl = t.StopLevel()
			} else if stopLvl != t.StopLevel() {
				return b.fail("misaligned stop levels S%d vs S%d", stopLvl, t.StopLevel())
			}
			nStop++
		case token.Done:
			nDone++
		default:
			return b.fail("unexpected token %v on coordinate input", t)
		}
	}
	switch {
	case nDone == m:
		for i := range b.inCrd {
			b.inCrd[i].Pop()
			b.inRef[i].Pop()
		}
		b.outCrd.Push(token.D())
		for _, o := range b.outRef {
			o.Push(token.D())
		}
		b.done = true
	case nDone > 0:
		return b.fail("done token while other inputs still streaming")
	case nStop == m:
		for i := range b.inCrd {
			b.inCrd[i].Pop()
			rs, _ := b.inRef[i].Pop()
			if !rs.IsStop() {
				return b.fail("reference stream misaligned at stop: got %v", rs)
			}
		}
		b.outCrd.Push(token.S(stopLvl))
		for _, o := range b.outRef {
			o.Push(token.S(stopLvl))
		}
	case b.union || nMin == m:
		b.outCrd.Push(token.C(minC))
		for i, t := range heads {
			if t.IsVal() && t.N == minC {
				b.inCrd[i].Pop()
				r, _ := b.inRef[i].Pop()
				b.outRef[i].Push(r)
			} else {
				b.outRef[i].Push(token.N())
			}
		}
	default:
		for i, t := range heads {
			if t.IsVal() && (nStop > 0 || t.N == minC) {
				b.inCrd[i].Pop()
				b.inRef[i].Pop()
			}
		}
	}
	return true
}

// InQueues implements Block.
func (b *Merger) InQueues() []*Queue { return append(append([]*Queue{}, b.inCrd...), b.inRef...) }

// OutPorts implements Block.
func (b *Merger) OutPorts() []*Out { return append([]*Out{b.outCrd}, b.outRef...) }
