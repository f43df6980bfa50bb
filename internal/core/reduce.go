package core

import (
	"cmp"
	"math/bits"
	"slices"

	"sam/internal/token"
)

// Reducer is the n-dimensional reducer of paper Definition 3.7 for n >= 1
// (ScalarReducer is n = 0): it accumulates an n-level sub-tensor — n
// coordinate streams, outermost first, plus a value stream — holding repeated
// coordinate points, and at each group close emits the group with unique,
// sorted coordinates and summed values. n = 1 is Figure 7's row reducer, n = 2
// the outer-product SpM*SpM reducer; a reduction ordered outside more kept
// variables is the same block with more streams.
//
// The innermost coordinate stream moves in lockstep with the values; outer
// stream j sits n-1-j levels above it. Innermost stops of level n-1 separate
// the reduction's iterations within a group, stops of level >= n close the
// group, and every emitted closing stop is one level lower. What a stop asks of
// the outer streams, and what a group sums to and emits, is GroupAcc's: the
// block only drives the queues, one pop and one push per port per cycle.
type Reducer struct {
	basic
	n      int
	inCrd  []*Queue // outermost first; inCrd[n-1] moves with inVal
	inVal  *Queue
	outCrd []*Out
	outVal *Out

	g    GroupAcc
	toks []token.Tok // one emission step: n coordinate tokens, then the value
}

// NewReducer builds an n-dimensional reducer (n >= 1).
func NewReducer(name string, n int, inCrd []*Queue, inVal *Queue, outCrd []*Out, outVal *Out) *Reducer {
	b := &Reducer{
		basic: basic{name: name}, n: n, inCrd: inCrd, inVal: inVal,
		outCrd: outCrd, outVal: outVal, toks: make([]token.Tok, n+1),
	}
	b.g.Reset(n)
	return b
}

// Tick implements Block.
func (b *Reducer) Tick() bool {
	if b.done {
		return false
	}
	for _, o := range b.outCrd {
		if !o.CanPush() {
			return false
		}
	}
	if !b.outVal.CanPush() {
		return false
	}
	if b.g.Emitting() {
		from := b.g.Next(b.toks)
		for j := from; j < b.n; j++ {
			b.outCrd[j].Push(b.toks[j])
		}
		b.outVal.Push(b.toks[b.n])
		return true
	}
	tc, ok := b.inCrd[b.n-1].Peek()
	if !ok {
		return false
	}
	tv, ok := b.inVal.Peek()
	if !ok {
		return false
	}
	switch {
	case tc.IsVal() && (tv.IsVal() || tv.IsEmpty()):
		return b.point(tc, tv)
	case tc.IsStop() && (tv.IsVal() || tv.IsEmpty()):
		// An orphan zero: a structurally empty inner reduction emitted an
		// explicit zero with no coordinate. Discard it (it adds nothing).
		if tv.IsVal() && tv.V != 0 {
			return b.fail("nonzero orphan value %v at stop %v", tv, tc)
		}
		b.inVal.Pop()
		return true
	case tc.IsStop() && tv.IsStop():
		if tc != tv {
			return b.fail("misaligned stops %v vs %v", tc, tv)
		}
		return b.stop(tc)
	case tc.IsDone() && tv.IsDone():
		for _, q := range b.inCrd[:b.n-1] {
			to, ok := q.Peek()
			if !ok {
				return false
			}
			if !to.IsDone() {
				return b.fail("outer stream misaligned at done: %v", to)
			}
		}
		for _, q := range b.inCrd {
			q.Pop()
		}
		b.inVal.Pop()
		for _, o := range b.outCrd {
			o.Push(token.D())
		}
		b.outVal.Push(token.D())
		b.done = true
		return true
	}
	return b.fail("misaligned inputs %v vs %v", tc, tv)
}

// point reads one data point: the outer coordinates not yet loaded, then the
// innermost coordinate with its value.
func (b *Reducer) point(tc, tv token.Tok) bool {
	outer := b.inCrd[:b.n-1]
	for j, q := range outer {
		if b.g.Loaded(j) {
			continue
		}
		to, ok := q.Peek()
		if !ok {
			return false
		}
		if !to.IsVal() {
			return b.fail("expected outer coordinate on stream %d, got %v", j, to)
		}
	}
	for j, q := range outer {
		if !b.g.Loaded(j) {
			to, _ := q.Pop()
			b.g.Load(j, to.N)
		}
	}
	b.inCrd[b.n-1].Pop()
	b.inVal.Pop()
	b.g.Add(tc.N, tv)
	return true
}

// stop passes one innermost stop, taking from each outer stream what
// GroupAcc.AtStop says it holds. Every head is checked before anything pops,
// so a tick that cannot finish leaves the queues as it found them. An outer
// stream that owes a trailing empty subtree's coordinate and its own stop pops
// the coordinate this cycle and the stop the next, as every port pops once a
// cycle.
func (b *Reducer) stop(tc token.Tok) bool {
	m := tc.StopLevel()
	outer := b.inCrd[:b.n-1]
	wait := false
	for j, q := range outer {
		crd, stop, lvl := b.g.AtStop(j, m)
		if !crd && !stop {
			continue
		}
		to, ok := q.Peek()
		if !ok {
			return false
		}
		switch {
		case crd && to.IsVal():
			wait = wait || stop
		case stop && to == token.S(lvl):
		default:
			return b.fail("outer stream %d misaligned: %v at inner %v", j, to, tc)
		}
	}
	for j, q := range outer {
		crd, stop, _ := b.g.AtStop(j, m)
		if to, _ := q.Peek(); crd && to.IsVal() {
			q.Pop()
			b.g.Load(j, to.N)
		} else if stop && !wait {
			q.Pop()
		}
	}
	if wait {
		return true
	}
	b.inCrd[b.n-1].Pop()
	b.inVal.Pop()
	b.g.Stop(m)
	return true
}

// InQueues implements Ported.
func (b *Reducer) InQueues() []*Queue { return append(append([]*Queue{}, b.inCrd...), b.inVal) }

// OutPorts implements Ported.
func (b *Reducer) OutPorts() []*Out { return append(append([]*Out{}, b.outCrd...), b.outVal) }

// GroupAcc is the group accumulator of the n >= 1 reducer, shared by the
// cycle engines' Reducer and internal/comp's reduce step: the two drive their
// streams differently, one token per cycle and one stream at a time, but what
// a stop asks of the outer streams, what a group sums to and which token goes
// on which stream when it is emitted are defined here, once.
//
// A driver loads the outer coordinates of each data point (Load), adds the
// point (Add), and reports every innermost stop (Stop) after taking what
// AtStop says the outer streams hold. A stop of level >= n closes the group;
// Next then yields its emission one step at a time until Emitting is false.
// Points are summed from +0 in arrival order, as a map accumulating += would.
type GroupAcc struct {
	n    int
	cur  []int64 // the point being read, outermost coordinate first
	have []bool  // have[j]: cur[j] is loaded, for the outer streams j < n-1

	crd  []int64   // the group's points in arrival order, n coordinates each
	val  []float64 // their values; an empty token adds +0, a no-op on such a sum
	ord  []int32   // arrival indices sorted by coordinates, then by arrival
	keys []uint64  // sort scratch: coordinates and arrival index packed

	// Emission of a closed group: runs[u] is where unique point u starts in
	// ord and sums[u] its sum; next is the next unique point, sepOut whether
	// the separator before it is out, and closeLvl the closing input stop
	// (-1 while no group is emitting).
	runs     []int32
	sums     []float64
	next     int
	sepOut   bool
	closeLvl int
}

// Reset empties the accumulator for an n-dimensional reducer, keeping its
// storage.
func (g *GroupAcc) Reset(n int) {
	g.n = n
	g.cur = slices.Grow(g.cur[:0], n)[:n]
	g.have = slices.Grow(g.have[:0], n)[:n]
	clear(g.have)
	g.crd, g.val = g.crd[:0], g.val[:0]
	g.closeLvl = -1
}

// Loaded reports whether outer stream j's coordinate of the current point is
// loaded.
func (g *GroupAcc) Loaded(j int) bool { return g.have[j] }

// Load records outer stream j's coordinate of the current point.
func (g *GroupAcc) Load(j int, c int64) {
	g.cur[j] = c
	g.have[j] = true
}

// Add accumulates the current point at innermost coordinate c with value
// token t (a value, or the empty token, which registers the point at +0).
func (g *GroupAcc) Add(c int64, t token.Tok) {
	g.cur[g.n-1] = c
	g.crd = append(g.crd, g.cur...)
	v := 0.0
	if t.IsVal() {
		v = t.V
	}
	g.val = append(g.val, v)
}

// AtStop is the empty-sub-fiber rule: what innermost stop S(m) asks of outer
// stream j, whose coordinates sit off = n-1-j levels above the innermost.
//
// At m >= off-1 the stop closes the subtree of stream j's current coordinate.
// If that coordinate is not loaded, nothing of its subtree arrived: the
// subtree was empty and its coordinate still waits on stream j, so crd is set
// and the driver pops it. At m >= off the stop also closes stream j's fiber,
// so stop is set and stream j holds S(lvl), lvl = m-off — behind the fiber's
// trailing empty subtree's coordinate when crd is set and a coordinate heads
// the stream, at its head when the fiber had no coordinates at all.
func (g *GroupAcc) AtStop(j, m int) (crd, stop bool, lvl int) {
	off := g.n - 1 - j
	return m >= off-1 && !g.have[j], m >= off, m - off
}

// Stop passes innermost stop S(m): it retires every outer coordinate whose
// subtree the stop closes and, at m >= n, closes the group.
func (g *GroupAcc) Stop(m int) {
	for j := 0; j < g.n-1; j++ {
		if m >= g.n-2-j {
			g.have[j] = false
		}
	}
	if m >= g.n {
		g.close(m)
	}
}

// close sorts the group's points and sums each unique point's run.
func (g *GroupAcc) close(m int) {
	g.sortPoints()
	g.runs, g.sums = g.runs[:0], g.sums[:0]
	for k, i := range g.ord {
		if k == 0 || !slices.Equal(g.point(i), g.point(g.ord[k-1])) {
			g.runs = append(g.runs, int32(k))
			g.sums = append(g.sums, 0)
		}
		g.sums[len(g.sums)-1] += g.val[i]
	}
	g.next, g.sepOut, g.closeLvl = 0, false, m
}

// point returns arrival point i's coordinates.
func (g *GroupAcc) point(i int32) []int64 {
	p := int(i) * g.n
	return g.crd[p : p+g.n]
}

// sortPoints fills ord with the arrival indices ordered by coordinates, then
// by arrival. When a point's coordinates and its index fit side by side in
// one uint64 — the usual case — it sorts those keys; otherwise it compares
// the points themselves.
func (g *GroupAcc) sortPoints() {
	var or uint64
	for _, c := range g.crd {
		or |= uint64(c)
	}
	w, iw := bits.Len64(or), bits.Len(uint(len(g.val)))
	g.ord = g.ord[:0]
	if g.n*w+iw > 64 {
		for i := range g.val {
			g.ord = append(g.ord, int32(i))
		}
		slices.SortFunc(g.ord, g.compare)
		return
	}
	g.keys = g.keys[:0]
	for i := range g.val {
		k := uint64(0)
		for _, c := range g.point(int32(i)) {
			k = k<<w | uint64(c)
		}
		g.keys = append(g.keys, k<<iw|uint64(i))
	}
	slices.Sort(g.keys)
	for _, k := range g.keys {
		g.ord = append(g.ord, int32(k&(1<<iw-1)))
	}
}

func (g *GroupAcc) compare(a, b int32) int {
	if c := slices.Compare(g.point(a), g.point(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// Emitting reports whether a closed group has emission steps left.
func (g *GroupAcc) Emitting() bool { return g.closeLvl >= 0 }

// Next writes the closed group's next emission step into toks (n coordinate
// tokens, then the value token) and returns from: the step puts toks[j] on
// coordinate stream j for j >= from, and toks[n] on the value stream. The
// steps are one per unique point, in order, its coordinates from the first
// level that differs from the previous point's; before a point whose prefix
// changes above the innermost level, a separator: stream j > d gets S(j-d-1)
// and the values S(n-d-2), d the level that differs; and last the closing
// stops, S(c-1) lowered to each stream's depth, for closing stop S(c).
func (g *GroupAcc) Next(toks []token.Tok) int {
	n := g.n
	if g.next == len(g.runs) {
		lift := g.closeLvl - n
		for j := 0; j < n; j++ {
			toks[j] = token.S(j + lift)
		}
		toks[n] = token.S(n - 1 + lift)
		g.crd, g.val = g.crd[:0], g.val[:0]
		g.closeLvl = -1
		return 0
	}
	pt := g.point(g.ord[g.runs[g.next]])
	d := 0
	if g.next > 0 {
		prev := g.point(g.ord[g.runs[g.next-1]])
		for pt[d] == prev[d] {
			d++
		}
		if d < n-1 && !g.sepOut {
			g.sepOut = true
			for j := d + 1; j < n; j++ {
				toks[j] = token.S(j - d - 1)
			}
			toks[n] = token.S(n - d - 2)
			return d + 1
		}
	}
	for j := d; j < n; j++ {
		toks[j] = token.C(pt[j])
	}
	toks[n] = token.V(g.sums[g.next])
	g.next++
	g.sepOut = false
	return d
}

// PackKey packs a coordinate tuple into a map key, for code that dedupes
// points by coordinates (the wire decoder, row tiling).
func PackKey(crd []int64) string {
	b := make([]byte, 0, len(crd)*8)
	for _, c := range crd {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(c>>uint(s)))
		}
	}
	return string(b)
}
