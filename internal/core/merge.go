package core

import (
	"math"

	"sam/internal/token"
)

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
	inputs []*Queue // inCrd, then inRef

	heads []token.Tok // per-tick peek scratch
}

// NewMerger builds an m-ary intersecter, or unioner when union is set; the
// slices must have equal length m >= 2.
func NewMerger(name string, union bool, inCrd, inRef []*Queue, outCrd *Out, outRef []*Out) *Merger {
	return &Merger{
		basic: basic{name: name}, union: union, inCrd: inCrd, inRef: inRef, outCrd: outCrd, outRef: outRef,
		inputs: append(append([]*Queue{}, inCrd...), inRef...), heads: make([]token.Tok, len(inCrd)),
	}
}

// Tick implements Block: a span of one cycle.
func (b *Merger) Tick() bool { return tick(b, b.inCrd[0].clk) }

// span implements spanner. The two-way intersecter runs its common rules in
// intersect2; every other cycle is one step.
func (b *Merger) span(end uint32) (stop, prog uint32) {
	clk := b.inCrd[0].clk
	now := clk.now
	if b.done {
		return now, 0
	}
	if !b.outCrd.CanPush() {
		return end, 0
	}
	for _, o := range b.outRef {
		if !o.CanPush() {
			return end, 0
		}
	}
	two := !b.union && len(b.inCrd) == 2
	for now < end {
		if two {
			if now, prog = b.intersect2(now, end, prog); now == end {
				break
			}
		}
		clk.now = now
		if b.step() {
			now++
			prog = now
			if b.done {
				break
			}
		} else if b.done {
			break
		} else {
			now = wake(now, end, b.inputs)
		}
	}
	return now, prog
}

// intersect2 runs the two-way intersecter from cycle now up to end while its
// heads are coordinates, a coordinate and a stop, or two stops of one level
// with stops on both reference inputs: the rule list's last three rules over
// two inputs. While a head is not visible it jumps to the cycle both are. It
// returns the first cycle it did not run, and prog advanced past the last
// one it made progress in.
func (b *Merger) intersect2(now, end, prog uint32) (uint32, uint32) {
	c0, c1, r0, r1 := b.inCrd[0], b.inCrd[1], b.inRef[0], b.inRef[1]
	clk := c0.clk
	for now < end {
		a, c := c0.headSlot(), c1.headSlot()
		if a == nil || c == nil || a.at >= end || c.at >= end {
			return end, prog
		}
		now = max(now, a.at, c.at)
		valA, valC := a.kind == uint8(token.Val), c.kind == uint8(token.Val)
		x, y := int64(a.x), int64(c.x)
		// q, r: the side whose coordinates below lim have no match.
		q, r, lim := c0, r0, int64(math.MaxInt64)
		switch {
		case valA && valC && x == y:
			clk.now = now
			c0.PopPeeked()
			c1.PopPeeked()
			ra, _ := r0.Pop()
			rc, _ := r1.Pop()
			b.outCrd.Push(token.C(x))
			b.outRef[0].Push(ra)
			b.outRef[1].Push(rc)
			now++
			prog = now
			continue
		case valA && valC && x < y:
			lim = y
		case valA && valC:
			q, r, lim = c1, r1, x
		case valA && c.kind == uint8(token.Stop):
		case valC && a.kind == uint8(token.Stop):
			q, r = c1, r1
		case a.kind == uint8(token.Stop) && c.kind == uint8(token.Stop) && x == y:
			// All stopped at one level: forward the stop, unless a reference
			// head is not the stop step fails on.
			clk.now = now
			ra, rc := r0.front(), r1.front()
			if ra == nil || rc == nil || ra.kind != uint8(token.Stop) || rc.kind != uint8(token.Stop) {
				return now, prog
			}
			c0.PopPeeked()
			c1.PopPeeked()
			r0.PopPeeked()
			r1.PopPeeked()
			s := token.S(int(x))
			b.outCrd.Push(s)
			b.outRef[0].Push(s)
			b.outRef[1].Push(s)
			now++
			prog = now
			continue
		default:
			return now, prog
		}
		// Pop q's coordinate, and its reference if visible, one a cycle
		// while the next is a visible coordinate below lim too.
		for {
			q.PopPeeked()
			if s := r.headSlot(); s != nil && s.at <= now {
				r.PopPeeked()
			}
			if now++; now == end {
				break
			}
			s := q.headSlot()
			if s == nil || s.at > now || s.kind != uint8(token.Val) || int64(s.x) >= lim {
				break
			}
		}
		prog = now
	}
	return now, prog
}

// step applies the rule list for one cycle and reports whether the block
// made progress.
func (b *Merger) step() bool {
	if b.done {
		return false
	}
	m := len(b.inCrd)
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
func (b *Merger) InQueues() []*Queue { return b.inputs }

// OutPorts implements Block.
func (b *Merger) OutPorts() []*Out { return append([]*Out{b.outCrd}, b.outRef...) }
