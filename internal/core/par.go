package core

import (
	"fmt"

	"sam/internal/token"
)

// This file implements the lane-parallelism blocks of paper Section 4.4: the
// parallelizer that forks one stream across P lanes, the serializer that
// joins lane streams back into one ordered stream, and the cross-lane
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
// group) with no coordinate attached; such an orphan — a value arriving
// while the coordinate lane holds a stop or done — passes through on the
// value output only, one per cycle, and the coordinate dropper downstream
// discards it exactly as in the sequential pipeline.
type Serializer struct {
	basic
	level  int
	ins    []*Queue
	vals   []*Queue // nil unless a value stream rides along
	drv    []*Queue // per-lane chunk-count drivers; set exactly when level >= 0
	out    *Out
	outVal *Out // nil with vals
	lane   int

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

// orphanAt forwards a zero value of lane l whose coordinate stream holds a
// stop or done: +1 means one orphan was forwarded, 0 means none pending, -1
// means the value head is not visible yet.
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
	b.outVal.Push(hv)
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

// Tick implements Block.
func (b *Serializer) Tick() bool {
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
	return append(append(append([]*Queue{}, b.ins...), b.vals...), b.drv...)
}

// OutPorts implements Ported.
func (b *Serializer) OutPorts() []*Out {
	if b.vals == nil {
		return []*Out{b.out}
	}
	return []*Out{b.out, b.outVal}
}

// InQueues implements Ported.
func (b *LaneCombine) InQueues() []*Queue {
	qs := append(append([]*Queue{}, b.inCrd[0]...), b.inCrd[1]...)
	return append(qs, b.inVal[0], b.inVal[1])
}

// OutPorts implements Ported.
func (b *LaneCombine) OutPorts() []*Out { return append(append([]*Out{}, b.outCrd...), b.outVal) }
