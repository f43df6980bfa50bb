package core

import (
	"fmt"

	"sam/internal/token"
)

// This file implements the lane-parallelism blocks of paper Section 4.4: the
// parallelizer that forks one stream across P lanes and the serializer that
// joins lane streams back into one ordered stream. The join only reorders
// tokens; a reduced outermost variable's lanes join before its one reducer,
// so no block adds across lanes.

// Parallelizer forks a sequential stream across P lanes (paper Section 4.4).
// level selects the fork granularity: each data token goes to the current
// lane, and the lane advances round-robin after every data token when
// level < 0 (element granularity, used to split the outermost loop level), or
// after every stop token of exactly level (fiber granularity). Stop tokens
// above the granularity level and the done token are replicated to every lane
// so each lane's stream stays well formed on its own.
type Parallelizer struct {
	basic
	level int
	in    *Queue
	outs  []*Out
	lane  int
}

// NewParallelizer builds a P-way parallelizer with the given granularity
// level (-1 = element granularity).
func NewParallelizer(name string, level int, in *Queue, outs []*Out) *Parallelizer {
	return &Parallelizer{basic: basic{name: name}, level: level, in: in, outs: outs}
}

// Tick implements Block: a span of one cycle, which is one step.
func (b *Parallelizer) Tick() bool { return b.step() }

// span implements spanner.
func (b *Parallelizer) span(end uint32) (uint32, uint32) {
	return steps(b, b.in.clk, end, b.in, []*Queue{b.in})
}

// step runs one cycle and reports whether the block made progress.
func (b *Parallelizer) step() bool {
	if b.done {
		return false
	}
	for _, o := range b.outs {
		if !o.CanPush() {
			return false
		}
	}
	t, ok := b.in.Pop()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val, token.Empty:
		b.outs[b.lane].Push(t)
		if b.level < 0 {
			b.lane = (b.lane + 1) % len(b.outs)
		}
		return true
	case token.Stop:
		if b.level >= 0 && t.StopLevel() < b.level {
			b.outs[b.lane].Push(t)
			return true
		}
		if b.level >= 0 && t.StopLevel() == b.level {
			b.outs[b.lane].Push(t)
			b.lane = (b.lane + 1) % len(b.outs)
			return true
		}
		for _, o := range b.outs {
			o.Push(t)
		}
		b.lane = 0
		return true
	case token.Done:
		for _, o := range b.outs {
			o.Push(t)
		}
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", t)
}

// Serializer joins P lane streams forked by a Parallelizer (after per-lane
// processing) back into one sequential stream, reading the lanes in the same
// round-robin order. It has two modes, selected by level:
//
//   - level < 0, element rotation: the lanes carry the forked stream's own
//     depth, one data token per turn, and every lane closes together.
//   - level >= 0, driver-rotated chunks: the lanes carry a deeper stream, one
//     chunk (a fiber closed by a stop of exactly level) per turn. A lane
//     stream alone cannot say how many chunks the lane owes — a lane whose
//     last chunk is empty ends exactly like a lane that received none, both
//     with a bare elevated stop — so drv[l], a copy of lane l's fork of the
//     outermost coordinate stream, counts them: one chunk of ins[l] per data
//     token of drv[l]. A lane's elevated closing stop subsumes its last
//     separator; the join puts S(level) back unless no lane owes a chunk any
//     more, and emits the closing stop once, after the drivers close.
//
// vals, when set, are per-lane value streams riding along on the innermost
// output level: each moves in lockstep with its coordinate stream, which
// alone keys the rotation. A lane that received no elements still emits one
// explicit zero from its scalar reducer (a structurally empty reduction
// group) with no coordinate attached; the join discards such an orphan — a
// value arriving while the coordinate lane holds a stop or done — one per
// cycle, so nothing downstream has to filter them.
type Serializer struct {
	basic
	level  int
	ins    []*Queue
	vals   []*Queue // nil unless a value stream rides along
	drv    []*Queue // per-lane chunk-count drivers; set exactly when level >= 0
	out    *Out
	outVal *Out // nil with vals
	lane   int

	inputs    []*Queue // ins, vals and drv, in that order
	draining  bool
	closeStep int // 0 rotating, 1 drivers closed, 2 closing stop emitted
}

// NewSerializer builds a P-way serializer with the given granularity level
// (-1 = element granularity). vals and outVal are both nil, or the per-lane
// value streams and their joined output. drv holds one driver per lane when
// level >= 0 and is empty otherwise; anything else is an error, because
// without its drivers a deep join could only guess where an exhausted lane's
// chunks end.
func NewSerializer(name string, level int, ins, vals, drv []*Queue, out, outVal *Out) (*Serializer, error) {
	want := 0
	if level >= 0 {
		want = len(ins)
	}
	if len(drv) != want {
		return nil, fmt.Errorf("%s: a %d-lane join at level %d takes %d drivers, got %d", name, len(ins), level, want, len(drv))
	}
	return &Serializer{
		basic: basic{name: name}, level: level,
		ins: ins, vals: vals, drv: drv, out: out, outVal: outVal,
		inputs: append(append(append([]*Queue{}, ins...), vals...), drv...),
	}, nil
}

func (b *Serializer) rotate() { b.lane = (b.lane + 1) % len(b.ins) }

// push emits a control token on every output.
func (b *Serializer) push(t token.Tok) {
	b.out.Push(t)
	if b.vals != nil {
		b.outVal.Push(t)
	}
}

// forward moves lane l's head token t to the output, together with the
// value stream's head when one rides along: a data token for a data token,
// the same stop for a stop. It reports false while the value head is not
// visible.
func (b *Serializer) forward(l int, t token.Tok) bool {
	if b.vals != nil {
		tv, ok := b.vals[l].Peek()
		if !ok {
			return false
		}
		if data := t.IsVal() || t.IsEmpty(); data != (tv.IsVal() || tv.IsEmpty()) || !data && tv != t {
			return b.fail("value stream misaligned: crd %v vs val %v", t, tv)
		}
		b.vals[l].Pop()
		b.outVal.Push(tv)
	}
	b.ins[l].Pop()
	b.out.Push(t)
	return true
}

// orphanAt discards a zero value of lane l whose coordinate stream holds a
// stop or done: +1 means one orphan was discarded, 0 means none pending, -1
// means the value head is not visible yet. A nonzero orphan is an error: it
// is a partial sum no coordinate owns.
func (b *Serializer) orphanAt(l int) (int, error) {
	hv, ok := b.vals[l].Peek()
	if !ok {
		return -1, nil
	}
	if !hv.IsVal() && !hv.IsEmpty() {
		return 0, nil
	}
	if hv.IsVal() && hv.V != 0 {
		return 0, fmt.Errorf("nonzero orphan value %v in lane %d", hv, l)
	}
	b.vals[l].Pop()
	return 1, nil
}

// allHold reports whether every queue's head is the control token t. It is
// false while some head is not visible, and fails the block on one that
// differs.
func (b *Serializer) allHold(qs []*Queue, t token.Tok) bool {
	for _, q := range qs {
		h, ok := q.Peek()
		if !ok {
			return false
		}
		if h != t {
			return b.fail("streams misaligned at %v: one holds %v", t, h)
		}
	}
	return true
}

func popAll(qs []*Queue) {
	for _, q := range qs {
		q.Pop()
	}
}

// Tick implements Block: a span of one cycle, which is one step.
func (b *Serializer) Tick() bool { return b.step() }

// span implements spanner.
func (b *Serializer) span(end uint32) (uint32, uint32) {
	return steps(b, b.ins[0].clk, end, nil, b.inputs)
}

// step runs one cycle and reports whether the block made progress.
func (b *Serializer) step() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() || b.vals != nil && !b.outVal.CanPush() {
		return false
	}
	if b.level >= 0 {
		return b.tickDriven()
	}
	t, ok := b.ins[b.lane].Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val, token.Empty:
		if !b.forward(b.lane, t) {
			return false
		}
		b.rotate()
		return true
	case token.Stop, token.Done:
		// Lanes exhaust in strict rotation, so every lane closes together.
		if !b.allHold(b.ins, t) {
			return false
		}
		// At most one orphan per cycle, from the first lane whose value head
		// is visible: one token per port.
		for l := range b.vals {
			if n, err := b.orphanAt(l); err != nil {
				return b.fail("%v", err)
			} else if n > 0 {
				return true
			}
		}
		if !b.allHold(b.vals, t) {
			return false
		}
		popAll(b.ins)
		popAll(b.vals)
		b.push(t)
		b.lane = 0
		b.done = t.IsDone()
		return true
	}
	return b.fail("unexpected token %v", t)
}

// noMoreElements reports whether every driver stream has run out of data
// tokens. The second result is false while some driver head is not yet
// visible.
func noMoreElements(drv []*Queue) (bool, bool) {
	for _, q := range drv {
		h, ok := q.Peek()
		if !ok {
			return false, false
		}
		if h.IsVal() || h.IsEmpty() {
			return false, true
		}
	}
	return true, true
}

// drainStep forwards one token of the current lane's chunk: data and
// interior stops pass through, a stop at the switch level closes the chunk,
// and the lane's elevated closing stop closes it with a re-materialized
// separator (subsumed when no element remains anywhere).
func (b *Serializer) drainStep() bool {
	t, ok := b.ins[b.lane].Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val, token.Empty:
		return b.forward(b.lane, t)
	case token.Stop:
		if b.vals != nil {
			if n, err := b.orphanAt(b.lane); err != nil {
				return b.fail("%v", err)
			} else if n != 0 {
				return n > 0
			}
		}
		if lvl := t.StopLevel(); lvl <= b.level {
			if !b.forward(b.lane, t) {
				return false
			}
			if lvl == b.level {
				b.draining = false
				b.rotate()
			}
			return true
		}
		last, ok := noMoreElements(b.drv)
		if !ok {
			return false
		}
		b.draining = false
		b.rotate()
		if !last {
			b.push(token.S(b.level))
		}
		return true
	case token.Done:
		return b.fail("lane stream ended mid-chunk")
	}
	return b.fail("unexpected token %v", t)
}

// tickDriven advances the driver-rotated serializer by one cycle.
func (b *Serializer) tickDriven() bool {
	switch b.closeStep {
	case 1:
		// Drivers closed: every lane's stream must now hold the same
		// elevated closing stop, behind its orphans; emit it once.
		var stop token.Tok
		for l, q := range b.ins {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsStop() || h.StopLevel() <= b.level {
				return b.fail("expected closing stop, lane holds %v", h)
			}
			if l == 0 {
				stop = h
			} else if h != stop {
				return b.fail("lanes disagree on closing stop: %v vs %v", stop, h)
			}
			if b.vals == nil {
				continue
			}
			if n, err := b.orphanAt(l); err != nil {
				return b.fail("%v", err)
			} else if n != 0 {
				return n > 0
			}
			if hv, _ := b.vals[l].Peek(); hv != h {
				return b.fail("value stream misaligned at closing stop: %v", hv)
			}
		}
		popAll(b.ins)
		popAll(b.vals)
		b.push(stop)
		b.closeStep = 2
		return true
	case 2:
		for _, qs := range [][]*Queue{b.drv, b.ins, b.vals} {
			if !b.allHold(qs, token.D()) {
				return false
			}
		}
		popAll(b.drv)
		popAll(b.ins)
		popAll(b.vals)
		b.push(token.D())
		b.done = true
		return true
	}
	if b.draining {
		return b.drainStep()
	}
	d, ok := b.drv[b.lane].Peek()
	if !ok {
		return false
	}
	switch d.Kind {
	case token.Val, token.Empty:
		b.drv[b.lane].Pop()
		b.draining = true
		// Start draining the chunk in the same cycle (one pop per port is
		// preserved: the driver and the lane stream are distinct ports), so
		// the driver rotation adds no per-element bubble.
		b.drainStep()
		return true
	case token.Stop:
		none, ok := noMoreElements(b.drv)
		if !ok {
			return false
		}
		if !none {
			// This lane is out of elements while others still hold some.
			b.rotate()
			return true
		}
		for _, q := range b.drv {
			if h, _ := q.Peek(); h != d {
				return b.fail("drivers disagree on closing stop: %v vs %v", d, h)
			}
		}
		popAll(b.drv)
		b.closeStep = 1
		return true
	case token.Done:
		return b.fail("driver stream ended before its closing stop")
	}
	return b.fail("unexpected driver token %v", d)
}

// InQueues implements Block.
func (b *Parallelizer) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *Parallelizer) OutPorts() []*Out { return b.outs }

// InQueues implements Block.
func (b *Serializer) InQueues() []*Queue { return b.inputs }

// OutPorts implements Block.
func (b *Serializer) OutPorts() []*Out {
	if b.vals == nil {
		return []*Out{b.out}
	}
	return []*Out{b.out, b.outVal}
}
