package core

import (
	"sort"

	"sam/internal/token"
)

// TensorReducer is the general n-dimensional reducer of paper
// Definition 3.7: it accumulates an n-level sub-tensor (n coordinate
// streams, outermost first, plus a value stream) with repeated coordinate
// points, and on group closure emits the accumulated tensor as streams with
// unique, sorted coordinates and summed values. Scalar (n=0), vector (n=1)
// and matrix (n=2) reducers are the special cases; this block serves any n,
// e.g. reductions ordered outside three or more kept output variables.
//
// Stream pairing: the innermost coordinate stream moves in lockstep with the
// values; outer stream j (0-based from outermost) is shallower by
// offset = n-1-j levels, so an innermost stop Sm consumes stream j's stop
// S(m-offset) when m >= offset. Groups close at innermost stops of level
// >= n; emitted streams lower every group-closing stop by one level.
type TensorReducer struct {
	basic
	n      int
	inCrd  []*Queue // outermost first; inCrd[n-1] is the innermost
	inVal  *Queue
	outCrd []*Out
	outVal *Out

	acc  map[string]float64 // key: packed coordinates
	keys map[string][]int64
	cur  []int64 // current outer coordinates
	have []bool

	flushSteps []flushStep
	flushPos   int
}

// NewTensorReducer builds an n-dimensional reducer (n >= 1).
func NewTensorReducer(name string, n int, inCrd []*Queue, inVal *Queue, outCrd []*Out, outVal *Out) *TensorReducer {
	return &TensorReducer{
		basic: basic{name: name}, n: n, inCrd: inCrd, inVal: inVal,
		outCrd: outCrd, outVal: outVal,
		acc: map[string]float64{}, keys: map[string][]int64{},
		cur: make([]int64, n), have: make([]bool, n),
	}
}

// PackKey packs a coordinate tuple into a map key; internal/comp's general
// reducer shares it.
func PackKey(crd []int64) string {
	b := make([]byte, 0, len(crd)*8)
	for _, c := range crd {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(c>>uint(s)))
		}
	}
	return string(b)
}

// Tick implements Block.
func (b *TensorReducer) Tick() bool {
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
	if b.flushSteps != nil {
		return b.stepFlush()
	}
	inner := b.inCrd[b.n-1]
	tc, ok := inner.Peek()
	if !ok {
		return false
	}
	tv, ok := b.inVal.Peek()
	if !ok {
		return false
	}
	switch {
	case tc.IsVal() && (tv.IsVal() || tv.IsEmpty()):
		// Load any missing outer coordinates first (one pop per port per
		// cycle is respected: each outer stream pops at most once here).
		for j := 0; j < b.n-1; j++ {
			if b.have[j] {
				continue
			}
			to, ok := b.inCrd[j].Peek()
			if !ok {
				return false
			}
			if !to.IsVal() {
				return b.fail("expected outer coordinate on stream %d, got %v", j, to)
			}
			b.inCrd[j].Pop()
			b.cur[j] = to.N
			b.have[j] = true
		}
		inner.Pop()
		b.inVal.Pop()
		b.cur[b.n-1] = tc.N
		k := PackKey(b.cur)
		if _, seen := b.acc[k]; !seen {
			b.keys[k] = append([]int64(nil), b.cur...)
			b.acc[k] = 0
		}
		if tv.IsVal() {
			b.acc[k] += tv.V
		}
		return true
	case tc.IsStop() && (tv.IsVal() || tv.IsEmpty()):
		// Orphan zero from a structurally empty inner reduction: discard.
		if tv.IsVal() && tv.V != 0 {
			return b.fail("nonzero orphan value %v at stop %v", tv, tc)
		}
		b.inVal.Pop()
		return true
	case tc.IsStop() && tv.IsStop():
		if tc.StopLevel() != tv.StopLevel() {
			return b.fail("misaligned stops S%d vs S%d", tc.StopLevel(), tv.StopLevel())
		}
		m := tc.StopLevel()
		// Consume paired stops on outer streams (discarding at most one
		// pending coordinate from an empty trailing fiber per stream).
		for j := 0; j < b.n-1; j++ {
			offset := b.n - 1 - j
			if m < offset {
				continue
			}
			to, ok := b.inCrd[j].Peek()
			if !ok {
				return false
			}
			if to.IsVal() {
				// An empty sub-fiber's coordinate: discard and re-peek.
				b.inCrd[j].Pop()
				to, ok = b.inCrd[j].Peek()
				if !ok {
					return false
				}
			}
			if !to.IsStop() || to.StopLevel() != m-offset {
				return b.fail("outer stream %d misaligned: %v vs inner %v", j, to, tc)
			}
			b.inCrd[j].Pop()
		}
		inner.Pop()
		b.inVal.Pop()
		// A stream's current coordinate spans a subtree of offset levels
		// below it; it retires only when the stop closes that subtree.
		for j := range b.have {
			offset := b.n - 1 - j
			if m >= offset-1 {
				b.have[j] = false
			}
		}
		if m >= b.n {
			b.startFlush(m)
		}
		return true
	case tc.IsDone() && tv.IsDone():
		for j := 0; j < b.n-1; j++ {
			to, ok := b.inCrd[j].Peek()
			if !ok {
				return false
			}
			if !to.IsDone() {
				return b.fail("outer stream %d misaligned at done: %v", j, to)
			}
		}
		for j := 0; j < b.n-1; j++ {
			b.inCrd[j].Pop()
		}
		inner.Pop()
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

// flushStep is one cycle of group emission: optional tokens per coordinate
// stream plus an optional value token.
type flushStep struct {
	crd []*token.Tok // nil entries push nothing on that stream
	val *token.Tok
}

// startFlush sorts the accumulated points and precomputes the emission
// schedule: one step per coordinate point, separator steps where coordinate
// prefixes change, and the lowered group-closing stops at the end.
func (b *TensorReducer) startFlush(closeLvl int) {
	points := make([][]int64, 0, len(b.keys))
	for _, crd := range b.keys {
		points = append(points, crd)
	}
	sort.Slice(points, func(i, j int) bool {
		a, c := points[i], points[j]
		for x := range a {
			if a[x] != c[x] {
				return a[x] < c[x]
			}
		}
		return false
	})
	tok := func(t token.Tok) *token.Tok { return &t }
	var steps []flushStep
	for i, crd := range points {
		change := 0
		if i > 0 {
			prev := points[i-1]
			for change < b.n && prev[change] == crd[change] {
				change++
			}
			if change < b.n-1 {
				// Separator step: stream j closes j-change-1 nesting levels.
				sep := flushStep{crd: make([]*token.Tok, b.n), val: tok(token.S(b.n - change - 2))}
				for j := change + 1; j < b.n; j++ {
					sep.crd[j] = tok(token.S(j - change - 1))
				}
				steps = append(steps, sep)
			}
		}
		st := flushStep{crd: make([]*token.Tok, b.n), val: tok(token.V(b.acc[PackKey(crd)]))}
		for j := change; j < b.n; j++ {
			st.crd[j] = tok(token.C(crd[j]))
		}
		steps = append(steps, st)
	}
	// Group-closing stops, lowered by one level on every stream.
	closing := flushStep{crd: make([]*token.Tok, b.n), val: tok(token.S(closeLvl - 1))}
	for j := 0; j < b.n; j++ {
		offset := b.n - 1 - j
		closing.crd[j] = tok(token.S(closeLvl - 1 - offset))
	}
	steps = append(steps, closing)
	b.flushSteps = steps
	b.flushPos = 0
	b.acc = map[string]float64{}
	b.keys = map[string][]int64{}
}

// stepFlush plays one schedule step per cycle.
func (b *TensorReducer) stepFlush() bool {
	st := b.flushSteps[b.flushPos]
	for j, t := range st.crd {
		if t != nil {
			b.outCrd[j].Push(*t)
		}
	}
	if st.val != nil {
		b.outVal.Push(*st.val)
	}
	b.flushPos++
	if b.flushPos == len(b.flushSteps) {
		b.flushSteps = nil
	}
	return true
}

// InQueues implements Ported.
func (b *TensorReducer) InQueues() []*Queue { return append(append([]*Queue{}, b.inCrd...), b.inVal) }

// OutPorts implements Ported.
func (b *TensorReducer) OutPorts() []*Out { return append(append([]*Out{}, b.outCrd...), b.outVal) }
