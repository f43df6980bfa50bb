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

// Tick implements Block: a span of one cycle.
func (b *Merger) Tick() bool { return b.span(b.inCrd[0].clk.now+1) > 0 }

// span implements spanner.
func (b *Merger) span(end uint32) int {
	if b.done || !b.outCrd.CanPush() {
		return 0
	}
	for _, o := range b.outRef {
		if !o.CanPush() {
			return 0
		}
	}
	clk := b.inCrd[0].clk
	start, now := clk.now, clk.now
	for now < end {
		if !b.union && len(b.inCrd) == 2 {
			if now = b.intersect2(now, end); now == end {
				break
			}
		}
		clk.now = now
		if !b.step() {
			break
		}
		now++
	}
	return int(now - start)
}

// intersect2 runs the two-way intersecter from cycle now up to end while its
// heads are coordinates, or a coordinate and a stop: the rule list's last two
// rules over two inputs. It returns the first cycle it did not run.
func (b *Merger) intersect2(now, end uint32) uint32 {
	c0, c1, r0, r1 := b.inCrd[0], b.inCrd[1], b.inRef[0], b.inRef[1]
	clk := c0.clk
	for ; now < end; now++ {
		clk.now = now
		a, c := c0.front(), c1.front()
		if a == nil || c == nil {
			break
		}
		valA, valC := a.kind == uint8(token.Val), c.kind == uint8(token.Val)
		switch x, y := int64(a.x), int64(c.x); {
		case valA && valC && x == y:
			c0.PopPeeked()
			c1.PopPeeked()
			ra, _ := r0.Pop()
			rc, _ := r1.Pop()
			b.outCrd.Push(token.C(x))
			b.outRef[0].Push(ra)
			b.outRef[1].Push(rc)
		case valA && (valC && x < y || c.kind == uint8(token.Stop)):
			c0.PopPeeked()
			if r0.front() != nil { // Pop, in line and undecoded
				r0.PopPeeked()
			}
		case valC && (valA || a.kind == uint8(token.Stop)):
			c1.PopPeeked()
			if r1.front() != nil {
				r1.PopPeeked()
			}
		default:
			return now
		}
	}
	return now
}

// step applies the rule list for one cycle and reports whether the block
// made progress.
func (b *Merger) step() bool {
	if b.done {
		return false
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
