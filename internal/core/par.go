package core

import (
	"fmt"

	"sam/internal/token"
)

// This file implements the lane-parallelism blocks of paper Section 4.4: the
// parallelizer that forks one stream across P lanes, the serializers that
// join lane streams back into one ordered stream, and the cross-lane
// reduction combiner that adds lane partials produced by per-lane reducers.

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

// Tick implements Block.
func (b *Parallelizer) Tick() bool {
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

// Serializer joins P lane streams produced by a Parallelizer (possibly after
// per-lane processing) back into one sequential stream, reading lane chunks
// in the same round-robin order. level mirrors the fork granularity: the
// serializer emits the current lane's tokens and advances after each data
// token (level < 0) or after each stop of exactly level.
//
// Chunk accounting is ambiguous from a lane stream alone: a lane whose last
// chunk is empty ends exactly like a lane that received no chunk at all
// (both close with a bare elevated stop). Joins of streams deeper than the
// fork level therefore attach per-lane driver streams — copies of the forked
// outermost coordinate stream, whose data tokens count exactly the chunks
// each lane owes (NewDrivenSerializer). The driverless form remains for
// element-granularity joins (the fork stream drives itself) and for joining
// streams at the fork's own depth.
//
// In the driverless form, a stop above the switch level means the current
// lane is exhausted: its closing stop subsumed the last chunk separator. If
// every lane has reached its closing stop the serializer emits it once;
// otherwise it re-materializes the separator S(level) and moves on.
type Serializer struct {
	basic
	level int
	ins   []*Queue
	drv   []*Queue // per-lane chunk-count drivers; nil when self-driven
	out   *Out
	lane  int

	draining  bool
	closeStep int // 0 rotating, 1 drivers closed, 2 closing stop emitted
}

// NewSerializer builds a P-way self-driven serializer with the given
// granularity level (-1 = element granularity).
func NewSerializer(name string, level int, ins []*Queue, out *Out) *Serializer {
	return &Serializer{basic: basic{name: name}, level: level, ins: ins, out: out}
}

// NewDrivenSerializer builds a P-way serializer whose rotation is driven by
// per-lane copies of the forked outermost coordinate stream: one chunk of
// ins[l] is consumed per data token of drv[l], so empty chunks and chunkless
// lanes cannot be confused. level must be >= 0.
func NewDrivenSerializer(name string, level int, ins, drv []*Queue, out *Out) *Serializer {
	return &Serializer{basic: basic{name: name}, level: level, ins: ins, drv: drv, out: out}
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
		b.ins[b.lane].Pop()
		b.out.Push(t)
		return true
	case token.Stop:
		lvl := t.StopLevel()
		if lvl < b.level {
			b.ins[b.lane].Pop()
			b.out.Push(t)
			return true
		}
		if lvl == b.level {
			b.ins[b.lane].Pop()
			b.out.Push(t)
			b.draining = false
			b.lane = (b.lane + 1) % len(b.ins)
			return true
		}
		last, ok := noMoreElements(b.drv)
		if !ok {
			return false
		}
		b.draining = false
		b.lane = (b.lane + 1) % len(b.ins)
		if !last {
			b.out.Push(token.S(b.level))
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
		// Drivers closed: every lane's stream must now hold the elevated
		// closing stop; emit it once.
		lvl := -1
		for _, q := range b.ins {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsStop() || h.StopLevel() <= b.level {
				return b.fail("expected closing stop, lane holds %v", h)
			}
			if lvl == -1 {
				lvl = h.StopLevel()
			} else if lvl != h.StopLevel() {
				return b.fail("lanes disagree on closing stop: S%d vs %v", lvl, h)
			}
		}
		for _, q := range b.ins {
			q.Pop()
		}
		b.out.Push(token.S(lvl))
		b.closeStep = 2
		return true
	case 2:
		for _, q := range append(append([]*Queue{}, b.drv...), b.ins...) {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsDone() {
				return b.fail("lanes misaligned at done: %v", h)
			}
		}
		for _, q := range b.drv {
			q.Pop()
		}
		for _, q := range b.ins {
			q.Pop()
		}
		b.out.Push(token.D())
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
			b.lane = (b.lane + 1) % len(b.ins)
			return true
		}
		for _, q := range b.drv {
			h, _ := q.Peek()
			if h.StopLevel() != d.StopLevel() {
				return b.fail("drivers disagree on closing stop: %v vs %v", d, h)
			}
		}
		for _, q := range b.drv {
			q.Pop()
		}
		b.closeStep = 1
		return true
	case token.Done:
		return b.fail("driver stream ended before its closing stop")
	}
	return b.fail("unexpected driver token %v", d)
}

// Tick implements Block.
func (b *Serializer) Tick() bool {
	if b.done {
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	if b.drv != nil {
		return b.tickDriven()
	}
	t, ok := b.ins[b.lane].Peek()
	if !ok {
		return false
	}
	switch t.Kind {
	case token.Val, token.Empty:
		b.ins[b.lane].Pop()
		b.out.Push(t)
		if b.level < 0 {
			b.lane = (b.lane + 1) % len(b.ins)
		}
		return true
	case token.Stop:
		lvl := t.StopLevel()
		if b.level >= 0 && lvl < b.level {
			b.ins[b.lane].Pop()
			b.out.Push(t)
			return true
		}
		if b.level >= 0 && lvl == b.level {
			b.ins[b.lane].Pop()
			b.out.Push(t)
			b.lane = (b.lane + 1) % len(b.ins)
			return true
		}
		if b.level < 0 {
			// Element granularity: lanes exhaust in strict rotation, so every
			// lane must close together.
			for _, q := range b.ins {
				h, ok := q.Peek()
				if !ok {
					return false
				}
				if !h.IsStop() || h.StopLevel() != lvl {
					return b.fail("lanes misaligned at stop %v vs %v", t, h)
				}
			}
			for _, q := range b.ins {
				q.Pop()
			}
			b.out.Push(t)
			b.lane = 0
			return true
		}
		closed := true
		for _, q := range b.ins {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsStop() || h.StopLevel() <= b.level {
				closed = false
				break
			}
		}
		if closed {
			for _, q := range b.ins {
				h, _ := q.Peek()
				if h.StopLevel() != lvl {
					return b.fail("lanes disagree on closing stop: %v vs %v", t, h)
				}
				q.Pop()
			}
			b.out.Push(t)
			b.lane = 0
			return true
		}
		// The current lane ran out of chunks while another lane still holds
		// one: re-materialize the separator its closing stop subsumed.
		b.out.Push(token.S(b.level))
		b.lane = (b.lane + 1) % len(b.ins)
		return true
	case token.Done:
		for _, q := range b.ins {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsDone() {
				return b.fail("lanes misaligned at done: %v", h)
			}
		}
		for _, q := range b.ins {
			q.Pop()
		}
		b.out.Push(t)
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", t)
}

// PairSerializer joins P (coordinate, value) lane stream pairs in round-robin
// order, keyed on the coordinate streams. The innermost output coordinate
// stream and the value stream must join together because a lane that
// received no elements still emits one explicit zero from its scalar reducer
// (a structurally empty reduction group) with no coordinate attached; keying
// the rotation on coordinates keeps such orphan values from desynchronizing
// the round robin. Orphan values (a value arriving while the coordinate lane
// holds a stop) are passed through on the value output — the coordinate
// dropper downstream discards them, exactly as in the sequential pipeline.
type PairSerializer struct {
	basic
	level  int
	inCrd  []*Queue
	inVal  []*Queue
	drv    []*Queue // per-lane chunk-count drivers; nil when self-driven
	outCrd *Out
	outVal *Out
	lane   int

	draining  bool
	closeStep int
}

// NewPairSerializer builds a P-way self-driven paired serializer with the
// given granularity level (-1 = element granularity).
func NewPairSerializer(name string, level int, inCrd, inVal []*Queue, outCrd, outVal *Out) *PairSerializer {
	return &PairSerializer{
		basic: basic{name: name}, level: level,
		inCrd: inCrd, inVal: inVal, outCrd: outCrd, outVal: outVal,
	}
}

// NewDrivenPairSerializer builds a P-way paired serializer rotated by
// per-lane copies of the forked outermost coordinate stream (see
// NewDrivenSerializer). level must be >= 0.
func NewDrivenPairSerializer(name string, level int, inCrd, inVal, drv []*Queue, outCrd, outVal *Out) *PairSerializer {
	return &PairSerializer{
		basic: basic{name: name}, level: level,
		inCrd: inCrd, inVal: inVal, drv: drv, outCrd: outCrd, outVal: outVal,
	}
}

// orphanAt forwards a zero value whose coordinate lane holds t (a stop or
// done): +1 means one orphan was forwarded, 0 means none pending, -1 means
// the value head is not visible yet.
func (b *PairSerializer) orphanAt(l int) (int, error) {
	hv, ok := b.inVal[l].Peek()
	if !ok {
		return -1, nil
	}
	if !hv.IsVal() && !hv.IsEmpty() {
		return 0, nil
	}
	if hv.IsVal() && hv.V != 0 {
		return 0, fmt.Errorf("nonzero orphan value %v in lane %d", hv, l)
	}
	b.inVal[l].Pop()
	b.outVal.Push(hv)
	return 1, nil
}

// drainStep forwards one paired token of the current lane's chunk; see
// Serializer.drainStep.
func (b *PairSerializer) drainStep() bool {
	tc, ok := b.inCrd[b.lane].Peek()
	if !ok {
		return false
	}
	switch tc.Kind {
	case token.Val, token.Empty:
		tv, ok := b.inVal[b.lane].Peek()
		if !ok {
			return false
		}
		if !tv.IsVal() && !tv.IsEmpty() {
			return b.fail("value stream misaligned: crd %v vs val %v", tc, tv)
		}
		b.inCrd[b.lane].Pop()
		b.inVal[b.lane].Pop()
		b.outCrd.Push(tc)
		b.outVal.Push(tv)
		return true
	case token.Stop:
		switch n, err := b.orphanAt(b.lane); {
		case err != nil:
			return b.fail("%v", err)
		case n != 0:
			return n > 0
		}
		lvl := tc.StopLevel()
		if lvl <= b.level {
			tv, _ := b.inVal[b.lane].Peek()
			if !tv.IsStop() || tv.StopLevel() != lvl {
				return b.fail("misaligned stops %v vs %v", tc, tv)
			}
			b.inCrd[b.lane].Pop()
			b.inVal[b.lane].Pop()
			b.outCrd.Push(tc)
			b.outVal.Push(tv)
			if lvl == b.level {
				b.draining = false
				b.lane = (b.lane + 1) % len(b.inCrd)
			}
			return true
		}
		last, ok := noMoreElements(b.drv)
		if !ok {
			return false
		}
		b.draining = false
		b.lane = (b.lane + 1) % len(b.inCrd)
		if !last {
			b.outCrd.Push(token.S(b.level))
			b.outVal.Push(token.S(b.level))
		}
		return true
	case token.Done:
		return b.fail("lane stream ended mid-chunk")
	}
	return b.fail("unexpected token %v", tc)
}

// tickDriven advances the driver-rotated paired serializer by one cycle.
func (b *PairSerializer) tickDriven() bool {
	switch b.closeStep {
	case 1:
		lvl := -1
		for l, q := range b.inCrd {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsStop() || h.StopLevel() <= b.level {
				return b.fail("expected closing stop, lane holds %v", h)
			}
			if lvl == -1 {
				lvl = h.StopLevel()
			} else if lvl != h.StopLevel() {
				return b.fail("lanes disagree on closing stop: S%d vs %v", lvl, h)
			}
			switch n, err := b.orphanAt(l); {
			case err != nil:
				return b.fail("%v", err)
			case n != 0:
				return n > 0
			}
			hv, _ := b.inVal[l].Peek()
			if !hv.IsStop() || hv.StopLevel() != h.StopLevel() {
				return b.fail("value stream misaligned at closing stop: %v", hv)
			}
		}
		for l := range b.inCrd {
			b.inCrd[l].Pop()
			b.inVal[l].Pop()
		}
		b.outCrd.Push(token.S(lvl))
		b.outVal.Push(token.S(lvl))
		b.closeStep = 2
		return true
	case 2:
		for _, qs := range [][]*Queue{b.drv, b.inCrd, b.inVal} {
			for _, q := range qs {
				h, ok := q.Peek()
				if !ok {
					return false
				}
				if !h.IsDone() {
					return b.fail("lanes misaligned at done: %v", h)
				}
			}
		}
		for l := range b.inCrd {
			b.drv[l].Pop()
			b.inCrd[l].Pop()
			b.inVal[l].Pop()
		}
		b.outCrd.Push(token.D())
		b.outVal.Push(token.D())
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
		b.drainStep()
		return true
	case token.Stop:
		none, ok := noMoreElements(b.drv)
		if !ok {
			return false
		}
		if !none {
			b.lane = (b.lane + 1) % len(b.inCrd)
			return true
		}
		for _, q := range b.drv {
			h, _ := q.Peek()
			if h.StopLevel() != d.StopLevel() {
				return b.fail("drivers disagree on closing stop: %v vs %v", d, h)
			}
		}
		for _, q := range b.drv {
			q.Pop()
		}
		b.closeStep = 1
		return true
	case token.Done:
		return b.fail("driver stream ended before its closing stop")
	}
	return b.fail("unexpected driver token %v", d)
}

// drainOrphans forwards at most one orphan zero per cycle (a value whose
// coordinate lane already holds a stop), respecting the one-token-per-port
// cost model on the value output. It reports whether an orphan was forwarded
// (the caller retries the stop next cycle).
func (b *PairSerializer) drainOrphans() (bool, error) {
	for l := range b.inCrd {
		hc, ok := b.inCrd[l].Peek()
		if !ok || !hc.IsStop() && !hc.IsDone() {
			continue
		}
		hv, ok := b.inVal[l].Peek()
		if !ok {
			continue
		}
		if hv.IsVal() || hv.IsEmpty() {
			if hv.IsVal() && hv.V != 0 {
				return false, fmt.Errorf("nonzero orphan value %v in lane %d", hv, l)
			}
			b.inVal[l].Pop()
			b.outVal.Push(hv)
			return true, nil
		}
	}
	return false, nil
}

// Tick implements Block.
func (b *PairSerializer) Tick() bool {
	if b.done {
		return false
	}
	if !b.outCrd.CanPush() || !b.outVal.CanPush() {
		return false
	}
	if b.drv != nil {
		return b.tickDriven()
	}
	tc, ok := b.inCrd[b.lane].Peek()
	if !ok {
		return false
	}
	switch tc.Kind {
	case token.Val, token.Empty:
		tv, ok := b.inVal[b.lane].Peek()
		if !ok {
			return false
		}
		if !tv.IsVal() && !tv.IsEmpty() {
			return b.fail("value stream misaligned: crd %v vs val %v", tc, tv)
		}
		b.inCrd[b.lane].Pop()
		b.inVal[b.lane].Pop()
		b.outCrd.Push(tc)
		b.outVal.Push(tv)
		if b.level < 0 {
			b.lane = (b.lane + 1) % len(b.inCrd)
		}
		return true
	case token.Stop:
		lvl := tc.StopLevel()
		if b.level >= 0 && lvl <= b.level {
			tv, ok := b.inVal[b.lane].Peek()
			if !ok {
				return false
			}
			if tv.IsVal() || tv.IsEmpty() {
				// An orphan zero inside the current lane's chunk.
				if tv.IsVal() && tv.V != 0 {
					return b.fail("nonzero orphan value %v at stop %v", tv, tc)
				}
				b.inVal[b.lane].Pop()
				b.outVal.Push(tv)
				return true
			}
			if !tv.IsStop() || tv.StopLevel() != lvl {
				return b.fail("misaligned stops %v vs %v", tc, tv)
			}
			b.inCrd[b.lane].Pop()
			b.inVal[b.lane].Pop()
			b.outCrd.Push(tc)
			b.outVal.Push(tv)
			if lvl == b.level {
				b.lane = (b.lane + 1) % len(b.inCrd)
			}
			return true
		}
		// Closing stop (or any stop at element granularity).
		closed := true
		for _, q := range b.inCrd {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsStop() || (b.level >= 0 && h.StopLevel() <= b.level) {
				closed = false
				break
			}
		}
		if !closed {
			if b.level < 0 {
				h, _ := b.inCrd[b.lane].Peek()
				return b.fail("lanes misaligned at stop %v (head %v)", tc, h)
			}
			b.outCrd.Push(token.S(b.level))
			b.outVal.Push(token.S(b.level))
			b.lane = (b.lane + 1) % len(b.inCrd)
			return true
		}
		drained, err := b.drainOrphans()
		if err != nil {
			return b.fail("%v", err)
		}
		if drained {
			return true
		}
		for l := range b.inCrd {
			hc, _ := b.inCrd[l].Peek()
			if hc.StopLevel() != lvl {
				return b.fail("lanes disagree on closing stop: %v vs %v", tc, hc)
			}
			hv, ok := b.inVal[l].Peek()
			if !ok {
				return false
			}
			if !hv.IsStop() || hv.StopLevel() != lvl {
				return b.fail("value stream misaligned at closing stop: %v vs %v", tc, hv)
			}
		}
		for l := range b.inCrd {
			b.inCrd[l].Pop()
			b.inVal[l].Pop()
		}
		b.outCrd.Push(tc)
		b.outVal.Push(tc)
		b.lane = 0
		return true
	case token.Done:
		for _, q := range b.inCrd {
			h, ok := q.Peek()
			if !ok {
				return false
			}
			if !h.IsDone() {
				return b.fail("lanes misaligned at done: %v", h)
			}
		}
		drained, err := b.drainOrphans()
		if err != nil {
			return b.fail("%v", err)
		}
		if drained {
			return true
		}
		for l := range b.inVal {
			hv, ok := b.inVal[l].Peek()
			if !ok {
				return false
			}
			if !hv.IsDone() {
				return b.fail("value stream misaligned at done: %v", hv)
			}
		}
		for l := range b.inCrd {
			b.inCrd[l].Pop()
			b.inVal[l].Pop()
		}
		b.outCrd.Push(tc)
		b.outVal.Push(tc)
		b.done = true
		return true
	}
	return b.fail("unexpected token %v", tc)
}

// LaneCombine is the cross-lane reduction join (paper Section 4.4): it merges
// two lanes' output-tensor stream bundles (m coordinate streams plus a value
// stream per lane, as emitted by per-lane reducers) by adding values at
// matching coordinate points — a streaming union-with-addition. Combiners
// compose into a binary reduction tree over P lanes.
//
// The block ingests both sides at one token per stream per cycle, decodes
// the two sparse partials, merges them, and replays the merged partial as
// sorted streams at one token per stream per cycle.
type LaneCombine struct {
	basic
	m      int
	inCrd  [2][]*Queue
	inVal  [2]*Queue
	outCrd []*Out
	outVal *Out

	crdRec  [2][]token.Stream
	valRec  [2]token.Stream
	crdOpen [2][]bool
	valOpen [2]bool

	emit    []token.Stream // m coordinate streams, then the value stream
	emitPos []int
}

// NewLaneCombine builds a 2-way cross-lane combiner over order-m output
// streams.
func NewLaneCombine(name string, m int, inCrd [2][]*Queue, inVal [2]*Queue, outCrd []*Out, outVal *Out) *LaneCombine {
	b := &LaneCombine{
		basic: basic{name: name}, m: m,
		inCrd: inCrd, inVal: inVal, outCrd: outCrd, outVal: outVal,
	}
	for s := 0; s < 2; s++ {
		b.crdRec[s] = make([]token.Stream, m)
		b.crdOpen[s] = make([]bool, m)
		for q := 0; q < m; q++ {
			b.crdOpen[s][q] = true
		}
		b.valOpen[s] = true
	}
	return b
}

// Tick implements Block.
func (b *LaneCombine) Tick() bool {
	if b.done {
		return false
	}
	if b.emit == nil {
		progress := false
		open := false
		for s := 0; s < 2; s++ {
			for q := 0; q < b.m; q++ {
				if !b.crdOpen[s][q] {
					continue
				}
				if t, ok := b.inCrd[s][q].Pop(); ok {
					b.crdRec[s][q] = append(b.crdRec[s][q], t)
					if t.IsDone() {
						b.crdOpen[s][q] = false
					}
					progress = true
				}
				open = open || b.crdOpen[s][q]
			}
			if b.valOpen[s] {
				if t, ok := b.inVal[s].Pop(); ok {
					b.valRec[s] = append(b.valRec[s], t)
					if t.IsDone() {
						b.valOpen[s] = false
					}
					progress = true
				}
				open = open || b.valOpen[s]
			}
		}
		if open {
			return progress
		}
		merged, err := MergeLaneStreams(b.m,
			b.crdRec[0], b.valRec[0], b.crdRec[1], b.valRec[1])
		if err != nil {
			return b.fail("%v", err)
		}
		b.emit = merged
		b.emitPos = make([]int, len(merged))
		return true
	}
	progress := false
	remaining := false
	for i, s := range b.emit {
		if b.emitPos[i] >= len(s) {
			continue
		}
		var o *Out
		if i < b.m {
			o = b.outCrd[i]
		} else {
			o = b.outVal
		}
		if !o.CanPush() {
			remaining = true
			continue
		}
		o.Push(s[b.emitPos[i]])
		b.emitPos[i]++
		progress = true
		if b.emitPos[i] < len(s) {
			remaining = true
		}
	}
	if !remaining {
		b.done = true
	}
	return progress
}

// lanePoint is one decoded sparse point of a lane partial.
type lanePoint struct {
	crd []int64
	val float64
}

// MergeLaneStreams merges two recorded lane output bundles (m coordinate
// streams plus one value stream each, in the shape per-lane reducers emit)
// into the bundle a single reducer over both lanes' data would have emitted:
// the coordinate union with values added point-wise. It is shared by the
// cycle-engine LaneCombine block and the compiled engine (internal/comp).
func MergeLaneStreams(m int, crdA []token.Stream, valA token.Stream, crdB []token.Stream, valB token.Stream) ([]token.Stream, error) {
	pa, err := decodeLanePoints(m, crdA, valA)
	if err != nil {
		return nil, fmt.Errorf("lane 0: %w", err)
	}
	pb, err := decodeLanePoints(m, crdB, valB)
	if err != nil {
		return nil, fmt.Errorf("lane 1: %w", err)
	}
	merged, err := mergeLanePoints(pa, pb)
	if err != nil {
		return nil, err
	}
	return encodeLaneStreams(m, merged), nil
}

// decodeLanePoints reconstructs the sparse points of one lane partial from
// its recorded streams, in stream (lexicographic) order.
func decodeLanePoints(m int, crds []token.Stream, vals token.Stream) ([]lanePoint, error) {
	var vs []float64
	for _, t := range vals {
		switch t.Kind {
		case token.Val:
			vs = append(vs, t.V)
		case token.Empty:
			vs = append(vs, 0)
		case token.Stop:
		case token.Done:
		}
	}
	if m == 0 {
		switch len(vs) {
		case 0:
			return nil, nil
		case 1:
			return []lanePoint{{val: vs[0]}}, nil
		}
		return nil, fmt.Errorf("lanecombine: scalar lane carries %d values", len(vs))
	}
	seg := make([][]int32, m)
	crd := make([][]int64, m)
	for q := 0; q < m; q++ {
		seg[q] = []int32{0}
		for _, t := range crds[q] {
			switch t.Kind {
			case token.Val:
				crd[q] = append(crd[q], t.N)
			case token.Stop:
				seg[q] = append(seg[q], int32(len(crd[q])))
			case token.Empty:
				return nil, fmt.Errorf("lanecombine: empty token on coordinate stream %d", q)
			case token.Done:
			}
		}
	}
	if len(vs) != len(crd[m-1]) {
		return nil, fmt.Errorf("lanecombine: %d values for %d innermost coordinates", len(vs), len(crd[m-1]))
	}
	var pts []lanePoint
	prefix := make([]int64, 0, m)
	var walk func(q, f int) error
	walk = func(q, f int) error {
		if f+1 >= len(seg[q]) {
			return fmt.Errorf("lanecombine: missing fiber %d at level %d", f, q)
		}
		for p := int(seg[q][f]); p < int(seg[q][f+1]); p++ {
			if p >= len(crd[q]) {
				return fmt.Errorf("lanecombine: fiber %d at level %d overruns coordinates", f, q)
			}
			prefix = append(prefix, crd[q][p])
			if q == m-1 {
				pts = append(pts, lanePoint{crd: append([]int64(nil), prefix...), val: vs[p]})
			} else if err := walk(q+1, p); err != nil {
				return err
			}
			prefix = prefix[:len(prefix)-1]
		}
		return nil
	}
	if err := walk(0, 0); err != nil {
		return nil, err
	}
	return pts, nil
}

// mergeLanePoints unions two sorted point lists, adding values at matching
// coordinates.
func mergeLanePoints(a, b []lanePoint) ([]lanePoint, error) {
	for _, side := range [][]lanePoint{a, b} {
		for i := 1; i < len(side); i++ {
			if cmpCrd(side[i-1].crd, side[i].crd) >= 0 {
				return nil, fmt.Errorf("lanecombine: lane points out of order at %v", side[i].crd)
			}
		}
	}
	out := make([]lanePoint, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpCrd(a[i].crd, b[j].crd); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, lanePoint{crd: a[i].crd, val: a[i].val + b[j].val})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}

func cmpCrd(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// encodeLaneStreams replays merged points as m coordinate streams plus a
// value stream, with the stop structure a reducer flush emits: between two
// points first differing at level d, stream q > d carries S(q-d-1); the final
// closure puts S(q) on stream q and S(m-1) on the value stream.
func encodeLaneStreams(m int, pts []lanePoint) []token.Stream {
	out := make([]token.Stream, m+1)
	if m == 0 {
		if len(pts) > 0 {
			out[0] = append(out[0], token.V(pts[0].val))
		}
		out[0] = append(out[0], token.D())
		return out
	}
	for i, p := range pts {
		d := 0
		if i > 0 {
			for d < m-1 && pts[i-1].crd[d] == p.crd[d] {
				d++
			}
			for q := d + 1; q < m; q++ {
				out[q] = append(out[q], token.S(q-d-1))
			}
			if d <= m-2 {
				out[m] = append(out[m], token.S(m-d-2))
			}
		}
		for q := d; q < m; q++ {
			out[q] = append(out[q], token.C(p.crd[q]))
		}
		out[m] = append(out[m], token.V(p.val))
	}
	for q := 0; q < m; q++ {
		out[q] = append(out[q], token.S(q), token.D())
	}
	out[m] = append(out[m], token.S(m-1), token.D())
	return out
}

// InQueues implements Ported.
func (b *Parallelizer) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Ported.
func (b *Parallelizer) OutPorts() []*Out { return b.outs }

// InQueues implements Ported.
func (b *Serializer) InQueues() []*Queue {
	return append(append([]*Queue{}, b.ins...), b.drv...)
}

// OutPorts implements Ported.
func (b *Serializer) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Ported.
func (b *PairSerializer) InQueues() []*Queue {
	qs := append(append([]*Queue{}, b.inCrd...), b.inVal...)
	return append(qs, b.drv...)
}

// OutPorts implements Ported.
func (b *PairSerializer) OutPorts() []*Out { return []*Out{b.outCrd, b.outVal} }

// InQueues implements Ported.
func (b *LaneCombine) InQueues() []*Queue {
	qs := append(append([]*Queue{}, b.inCrd[0]...), b.inCrd[1]...)
	return append(qs, b.inVal[0], b.inVal[1])
}

// OutPorts implements Ported.
func (b *LaneCombine) OutPorts() []*Out { return append(append([]*Out{}, b.outCrd...), b.outVal) }
