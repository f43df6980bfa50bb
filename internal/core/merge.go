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
// the same rules; testdata/merge_rules.txt, their conformance table, holds
// both engines to them row by row, with the same failure texts.
type Merger struct {
	basic
	union  bool
	inCrd  []*Queue
	inRef  []*Queue
	outCrd *Out
	outRef []*Out
	inputs []*Queue // inCrd, then inRef; inCrd alone when paired

	// crd, when the merger is paired (see Pair), is each input's scanned
	// level's Crd: the coordinates its run slots stand for.
	crd [][]int32

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

// Pair has the two-way intersecter b read its inputs straight from the
// compressed-level scanners a (input 0) and c (input 1), and reports whether
// it did. It does when each scanner's coordinate and reference ports drive
// only b's inputs on its side, through unbounded queues that hold nothing
// yet. A paired scanner pushes one run slot per run of a fiber onto its
// coordinate queue (see Queue.pushRun) and only counts its references, and
// the merger merges two runs over the levels' Crd arrays, one coordinate a
// cycle, a reference being the coordinate's position: cycles, outputs,
// errors and every stream's counts are those of the token path. The
// reference queues then carry no token, so they are not inputs of b's (see
// InQueues): nothing a run must wait for arrives on them.
func (b *Merger) Pair(a, c *Scanner) bool {
	if b.union || len(b.inCrd) != 2 || b.crd != nil {
		return false
	}
	sc := [2]*Scanner{a, c}
	for i, s := range sc {
		if s.cmp == nil || s.runs != nil || !feeds(s.outCrd, b.inCrd[i]) || !feeds(s.outRef, b.inRef[i]) {
			return false
		}
	}
	for i, s := range sc {
		s.runs, s.refs = b.inCrd[i], b.inRef[i]
	}
	b.crd = [][]int32{a.cmp.Crd, c.cmp.Crd}
	b.inputs = b.inCrd
	return true
}

// feeds reports whether port o drives q alone, q is unbounded and it holds
// nothing.
func feeds(o *Out, q *Queue) bool {
	return len(o.qs) == 1 && o.qs[0] == q && q.Cap == 0 && q.head == q.tail
}

// Tick implements Block: a span of one cycle.
func (b *Merger) Tick() bool { return tick(b, b.inCrd[0].clk) }

// span implements spanner. A paired merger runs its common rules in runs2;
// every other cycle is one step, and an unpaired merger of any arity runs
// step alone, jumping past the cycles without progress (see wake).
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
	for now < end {
		if b.crd != nil {
			if now, prog = b.runs2(now, end, prog); now == end {
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

// runs2 runs the paired intersecter (see Pair) from cycle now up to end
// while its coordinate heads, run slots, stops and the done, fall under the
// rule list's last three rules: while both heads are runs it merges them over
// the levels' Crd arrays; a run beside a stop is consumed whole, one
// coordinate a cycle, and two stops of one level go on. A run whose head is
// visible has every later coordinate visible by the cycle it is reached in,
// one a cycle, so only the heads' stamps are waited for. It returns the first
// cycle it did not run, and prog advanced past the last one it made progress
// in; step takes every other head.
func (b *Merger) runs2(now, end, prog uint32) (uint32, uint32) {
	c0, c1 := b.inCrd[0], b.inCrd[1]
	for now < end {
		a, c := c0.headSlot(), c1.headSlot()
		if a == nil || c == nil || a.at >= end || c.at >= end {
			return end, prog
		}
		now = max(now, a.at, c.at)
		switch ka, kc := a.kind&^runSep, c.kind&^runSep; {
		case ka == run && kc == run:
			now = b.mergeRuns(a, c, now, end)
		case ka == run && kc == uint8(token.Stop):
			k := min(a.runLen(), int(end-now))
			c0.advance(a, k)
			now += uint32(k)
		case kc == run && ka == uint8(token.Stop):
			k := min(c.runLen(), int(end-now))
			c1.advance(c, k)
			now += uint32(k)
		case ka == uint8(token.Stop) && kc == uint8(token.Stop) && a.x == c.x:
			// Read the level before the pops, which may hand the chunks
			// back to the pool.
			s := token.S(int(a.x))
			c0.clk.now = now
			c0.PopPeeked()
			c1.PopPeeked()
			b.outCrd.Push(s)
			b.outRef[0].Push(s)
			b.outRef[1].Push(s)
			now++
		default:
			return now, prog
		}
		prog = now
	}
	return now, prog
}

// mergeRuns intersects run slots a and c, the visible heads of inputs 0 and
// 1, from cycle now up to end or until one of them ends, one coordinate a
// cycle: a match goes out with both positions as its references, and the
// lesser coordinate is dropped, in a loop of its own while its side stays
// below the other's head. It returns the cycle after the last.
func (b *Merger) mergeRuns(a, c *slot, now, end uint32) uint32 {
	i, j := int(uint32(a.x)), int(uint32(c.x))
	ca, cc := b.crd[0][:a.x>>32], b.crd[1][:c.x>>32]
	i0, j0 := i, j
	clk := b.inCrd[0].clk
	for now < end && i < len(ca) && j < len(cc) {
		x, y := ca[i], cc[j]
		switch {
		case x == y:
			clk.now = now
			b.outCrd.Push(token.C(int64(x)))
			b.outRef[0].Push(token.C(int64(i)))
			b.outRef[1].Push(token.C(int64(j)))
			i, j, now = i+1, j+1, now+1
		case x < y:
			for i, now = i+1, now+1; i < len(ca) && ca[i] < y && now < end; i, now = i+1, now+1 {
			}
		default:
			for j, now = j+1, now+1; j < len(cc) && cc[j] < x && now < end; j, now = j+1, now+1 {
			}
		}
	}
	b.inCrd[0].advance(a, i-i0)
	b.inCrd[1].advance(c, j-j0)
	return now
}

// peek returns input i's coordinate head once it is visible. A paired
// input's run slot reads as its current coordinate.
func (b *Merger) peek(i int) (token.Tok, bool) {
	q := b.inCrd[i]
	if b.crd == nil {
		return q.Peek()
	}
	s := q.front()
	switch {
	case s == nil:
		return token.Tok{}, false
	case s.kind&run != 0:
		return token.C(int64(b.crd[i][uint32(s.x)])), true
	}
	return s.tok(), true
}

// pop consumes input i's coordinate head, which peek returned this cycle,
// and its reference, which it returns. A paired input's reference is its
// run's position, or the stop or done itself.
func (b *Merger) pop(i int) token.Tok {
	q := b.inCrd[i]
	if b.crd == nil {
		q.PopPeeked()
		r, _ := b.inRef[i].Pop()
		return r
	}
	s := q.front()
	if s.kind&run != 0 {
		r := token.C(int64(uint32(s.x)))
		q.advance(s, 1)
		return r
	}
	t := s.tok()
	q.PopPeeked()
	return t
}

// step applies the rule list for one cycle and reports whether the block
// made progress.
func (b *Merger) step() bool {
	if b.done {
		return false
	}
	m := len(b.inCrd)
	heads := b.heads
	for i := range b.inCrd {
		t, ok := b.peek(i)
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
			b.pop(i)
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
			if rs := b.pop(i); !rs.IsStop() {
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
				b.outRef[i].Push(b.pop(i))
			} else {
				b.outRef[i].Push(token.N())
			}
		}
	default:
		for i, t := range heads {
			if t.IsVal() && (nStop > 0 || t.N == minC) {
				b.pop(i)
			}
		}
	}
	return true
}

// InQueues implements Block.
func (b *Merger) InQueues() []*Queue { return b.inputs }

// OutPorts implements Block.
func (b *Merger) OutPorts() []*Out { return append([]*Out{b.outCrd}, b.outRef...) }
