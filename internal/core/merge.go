package core

import "sam/internal/token"

// Intersect is the m-ary intersecter (paper Definition 3.2). It consumes m
// fiber-aligned (coordinate, reference) stream pairs and emits a coordinate
// and all m references whenever every input holds the same coordinate. It
// advances streams with the classic two-finger merge generalized to m ways:
// each cycle it consumes the minimum coordinate from every stream holding it,
// emitting only on full agreement.
type Intersect struct {
	basic
	inCrd  []*Queue
	inRef  []*Queue
	outCrd *Out
	outRef []*Out

	heads []token.Tok // per-tick peek scratch
}

// NewIntersect builds an m-ary intersecter; the slices must have equal
// length m >= 2.
func NewIntersect(name string, inCrd, inRef []*Queue, outCrd *Out, outRef []*Out) *Intersect {
	return &Intersect{basic: basic{name: name}, inCrd: inCrd, inRef: inRef, outCrd: outCrd, outRef: outRef}
}

// Tick implements Block.
func (b *Intersect) Tick() bool {
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
	if !b.outCrd.CanPush() {
		return false
	}
	for _, o := range b.outRef {
		if !o.CanPush() {
			return false
		}
	}

	nVal, nStop, nDone := 0, 0, 0
	var minC int64
	stopLvl := -1
	for _, t := range heads {
		switch t.Kind {
		case token.Val:
			if nVal == 0 || t.N < minC {
				minC = t.N
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
		return true
	case nDone > 0:
		return b.fail("done token while other inputs still streaming")
	case nStop == m:
		// All fibers closed together: forward the stop.
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
		return true
	case nVal == m:
		all := true
		for _, t := range heads {
			if t.N != minC {
				all = false
			}
		}
		if all {
			b.outCrd.Push(token.C(minC))
			for i := range b.inCrd {
				b.inCrd[i].Pop()
				r, _ := b.inRef[i].Pop()
				b.outRef[i].Push(r)
			}
			return true
		}
		// Consume every holder of the minimum; no emission.
		for i, t := range heads {
			if t.IsVal() && t.N == minC {
				b.inCrd[i].Pop()
				b.inRef[i].Pop()
			}
		}
		return true
	default:
		// Mixed values and stops: the stopped fibers are exhausted, so the
		// remaining coordinates on value-holding streams cannot match; drain
		// them.
		for i, t := range heads {
			if t.IsVal() {
				b.inCrd[i].Pop()
				b.inRef[i].Pop()
			}
		}
		return true
	}
}

// Union is the m-ary unioner (paper Definition 3.3). It emits every
// coordinate present on at least one input; reference outputs of inputs
// missing the coordinate carry the empty token N so all emitted streams keep
// the same shape (paper Figure 5).
type Union struct {
	basic
	inCrd  []*Queue
	inRef  []*Queue
	outCrd *Out
	outRef []*Out

	heads []token.Tok // per-tick peek scratch
}

// NewUnion builds an m-ary unioner.
func NewUnion(name string, inCrd, inRef []*Queue, outCrd *Out, outRef []*Out) *Union {
	return &Union{basic: basic{name: name}, inCrd: inCrd, inRef: inRef, outCrd: outCrd, outRef: outRef}
}

// Tick implements Block.
func (b *Union) Tick() bool {
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
	if !b.outCrd.CanPush() {
		return false
	}
	for _, o := range b.outRef {
		if !o.CanPush() {
			return false
		}
	}

	nVal, nStop, nDone := 0, 0, 0
	var minC int64
	stopLvl := -1
	for _, t := range heads {
		switch t.Kind {
		case token.Val:
			if nVal == 0 || t.N < minC {
				minC = t.N
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
		return true
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
		return true
	default:
		// Emit the minimum coordinate; inputs not holding it emit N.
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
		return true
	}
}

// InQueues implements Block.
func (b *Intersect) InQueues() []*Queue { return append(append([]*Queue{}, b.inCrd...), b.inRef...) }

// OutPorts implements Block.
func (b *Intersect) OutPorts() []*Out { return append([]*Out{b.outCrd}, b.outRef...) }

// InQueues implements Block.
func (b *Union) InQueues() []*Queue { return append(append([]*Queue{}, b.inCrd...), b.inRef...) }

// OutPorts implements Block.
func (b *Union) OutPorts() []*Out { return append([]*Out{b.outCrd}, b.outRef...) }
