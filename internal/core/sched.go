package core

import (
	"math"
	"math/bits"
)

// window is W, the tokens a producer runs ahead of its consumers: a block
// pauses once one of its output queues holds W, so a run holds about W
// tokens per stream.
const window = 512

// stampSpan is how many cycles past its stamp base a net's frontier runs
// before the net rebases (see Net.rebase). No block runs 2*stampSpan - 1
// cycles past the base, so a 32-bit stamp never wraps, whatever the cycle
// limit.
const stampSpan = 1 << 31

// never is the clock of a block that will not tick again.
const never = math.MaxInt

// runner is Net.Run's scheduler for a net whose queues are all unbounded and
// whose blocks form no cycle; any other net runs RunNaive's loop (see
// Net.Run). Each block keeps its own clock, the next cycle it ticks at, and
// the run proceeds in passes: a pass visits every block once, in topological
// order, and ticks it from its clock up to its horizon. A block that made
// progress ticks again the next cycle; after a tick with no progress it jumps
// to the earliest cycle at which a token already queued on one of its inputs
// turns visible, or else to its horizon. The skip is exact: a tick with no
// progress and no new input is a no-op (see Block).
//
// A block reads only its inputs' head tokens, and a queued head is final: it
// was pushed, stamped with the cycle it turns visible. An unbounded queue
// never pushes back, so nothing a consumer does changes its producer's
// cycles. A block may therefore tick cycle c once each input either still
// holds a token at c or has a producer that has run through cycle c-1, and
// since it pops at most one token per input per cycle, its horizon is the
// least, over its inputs, of max(producer clock + 1, own clock + queued
// tokens). Producers lag their consumers in simulated time: a block also
// pauses once its fullest output queue holds window tokens, so a run holds a
// window of tokens per stream, not the backlog the simulated machine has in
// flight. A pass in which no block advances (reconvergent paths of unequal
// rate, one waiting on a token its sibling's full queue holds back) runs the
// next with that bound off.
//
// The frontier is the lowest clock of an unfinished block: every cycle below
// it has been ticked by every block. After each pass the runner settles, in
// cycle order, the events below the frontier at which the naive loop would
// stop: a failing tick (lowest cycle, then lowest block index), every block
// done, or a cycle in which no block made progress (a deadlock). Cycle
// counts, outputs and errors are those of RunNaive, and so are stream
// statistics, unless a block fails: blocks that ran past the failing cycle
// keep what they pushed there.
type runner struct {
	n      *Net
	blocks []Block
	spans  []spanner // blocks[i] as a spanner, or nil: it runs Tick by Tick
	order  []int32   // visit order within a pass

	ins    []*Queue // each block's input queues, block by block
	prod   []int32  // the block producing ins[k] (len(blocks): none)
	inOff  []int32  // block i's inputs are ins[inOff[i]:inOff[i+1]]
	outs   []*Queue // each block's output queues that some block consumes
	outOff []int32  // block i's are outs[outOff[i]:outOff[i+1]]
	queues []*Queue // every queue the net registers, reads or writes

	clk []int // the cycle each block next ticks at (never: done or failed); one more, never, for prod's none
	end int   // no block ticks at or past this cycle

	act   []uint64 // ring of progress bits: cycle c's is bit c&63 of act[c>>6&(len-1)]
	abase int      // act covers cycles [abase, abase+64*len(act)); a multiple of 64

	nDone    int // blocks finished without error
	lastDone int // the latest cycle one of them finished at (-1: before the first)
	failT    int // the earliest failing tick's cycle (never: none)
	failI    int // and its block
}

// newRunner resolves the net's wiring for a run: every block's input queues
// and their producers, each block's consumed output queues, each queue's
// consuming block and the visit order. Every queue the blocks read or write
// is put on the net's clock, registered with the net or not, and every
// output port learns whether it is free (see Out.CanPush). It reports
// whether the lagging loop runs the net: its queues are all unbounded and
// its blocks form no cycle.
func newRunner(n *Net) (*runner, bool) {
	nb := len(n.Blocks)
	r := &runner{
		n: n, blocks: n.Blocks,
		spans: make([]spanner, nb),
		inOff: make([]int32, nb+1), outOff: make([]int32, nb+1), clk: make([]int, nb+1),
		lastDone: -1, failT: never,
	}
	r.clk[nb] = never
	var ports []*Out
	portOff := make([]int32, nb+1)
	for i, b := range n.Blocks {
		r.spans[i], _ = b.(spanner)
		for _, q := range b.InQueues() {
			if q != nil {
				r.ins = append(r.ins, q)
			}
		}
		r.inOff[i+1] = int32(len(r.ins))
		for _, o := range b.OutPorts() {
			if o != nil {
				ports = append(ports, o)
			}
		}
		portOff[i+1] = int32(len(ports))
	}
	// Collect each queue once, marking the unvisited by a nil clock, and
	// count the storage chunks they already hold.
	for _, q := range n.Queues {
		q.clk = nil
	}
	for _, q := range r.ins {
		q.clk = nil
	}
	for _, o := range ports {
		for _, q := range o.qs {
			q.clk = nil
		}
	}
	clk := n.clock()
	clk.chunks = 0
	add := func(q *Queue) {
		if q.clk == nil {
			q.clk, q.cons = clk, 0
			r.queues = append(r.queues, q)
			for c := q.first; c != nil; c = c.next {
				clk.chunks++
			}
		}
	}
	for _, q := range n.Queues {
		add(q)
	}
	r.prod = make([]int32, len(r.ins))
	for i := range nb {
		for k, q := range r.ins[r.inOff[i]:r.inOff[i+1]] {
			add(q)
			q.cons = int32(i + 1)
			r.prod[int(r.inOff[i])+k] = int32(nb)
		}
	}
	unbounded := true
	indeg := make([]int32, nb)
	for i := range nb {
		for _, o := range ports[portOff[i]:portOff[i+1]] {
			// Resolve backpressure once per run: a port none of whose
			// destinations is bounded can always push (see Out.CanPush).
			o.free = true
			for _, q := range o.qs {
				add(q)
				if q.Cap > 0 {
					o.free, unbounded = false, false
				}
				c := q.cons - 1
				if c < 0 {
					continue
				}
				indeg[c]++
				r.outs = append(r.outs, q)
				for k := r.inOff[c]; k < r.inOff[c+1]; k++ {
					if r.ins[k] == q {
						r.prod[k] = int32(i)
					}
				}
			}
		}
		r.outOff[i+1] = int32(len(r.outs))
	}
	clk.peak = clk.chunks
	// Kahn's topological order over producer-to-consumer edges; blocks left
	// over sit on a cycle.
	r.order = make([]int32, 0, nb)
	for i, d := range indeg {
		if d == 0 {
			r.order = append(r.order, int32(i))
		}
	}
	for k := 0; k < len(r.order); k++ {
		i := r.order[k]
		for _, q := range r.outs[r.outOff[i]:r.outOff[i+1]] {
			if c := q.cons - 1; c >= 0 {
				if indeg[c]--; indeg[c] == 0 {
					r.order = append(r.order, c)
				}
			}
		}
	}
	return r, unbounded && len(r.order) == nb
}

// run executes the net to completion. See Net.Run for the contract.
func (r *runner) run(limit int) (int, error) {
	if r.act = freeRings.get(); r.act == nil {
		r.act = make([]uint64, window/64)
	}
	bounded := true
	for f, settled := 0, 0; f < limit; settled = f {
		if f-r.n.base >= r.n.stampSpan() {
			r.n.rebase(f, r.queues)
		}
		r.end = min(limit, r.n.base+2*r.n.stampSpan()-1)
		if r.failT != never {
			r.end = min(r.end, r.failT+1)
		}
		// A pass that advances no block is a net whose producers wait on
		// full queues that reconverge downstream: lift the bound for one
		// pass.
		bounded = r.pass(bounded)
		f = r.frontier()
		if cycles, err, ok := r.settle(settled, f); ok {
			r.finish(cycles)
			return cycles, err
		}
		r.forget(f)
	}
	r.finish(limit)
	return limit, errLimit(limit, r.n)
}

// freeRings recycles progress rings, cleared, from run to run: a run whose
// consumers lead their producers by many cycles grows a large one.
var freeRings = newFreeList[[]uint64](1)

// spanner is a block that runs a span of cycles per call rather than one:
// span ticks it at its queues' clock's cycle and each next one while it makes
// progress, up to end, and returns how many cycles made progress. It may move
// the clock to any cycle it ran. The lagging loop, span's only caller, runs
// only nets whose queues are all unbounded, so the block's output ports are
// free and it checks their room once per call. The block's Tick, which
// RunNaive calls on bounded nets too, is its span of one cycle.
type spanner interface {
	span(end uint32) int
}

// pass ticks every block from its clock up to its horizon, with the window
// bound on its output queues or not, and reports whether any block advanced.
func (r *runner) pass(bounded bool) bool {
	clk, base := r.n.clk, r.n.base
	advanced := false
	for _, i32 := range r.order {
		i := int(i32)
		t := r.clk[i]
		if t >= r.end { // done, failed, or at the run's end
			continue
		}
		h := r.horizon(i, t, bounded)
		if t >= h {
			continue
		}
		advanced = true
		b, sp := r.blocks[i], r.spans[i]
		for t < h {
			from := t
			clk.now = uint32(t - base)
			if sp != nil {
				t += sp.span(uint32(h - base))
			} else {
				for ; b.Tick(); clk.now++ {
					if t++; t == h {
						break
					}
				}
			}
			r.progressed(from, t)
			if t < h {
				if b.Err() != nil {
					// fail always reports no progress, so the error check
					// is needed only on failed ticks.
					if t < r.failT || t == r.failT && i < r.failI {
						r.failT, r.failI = t, i
						r.end = min(r.end, t+1)
					}
					t = never
					break
				}
				if b.Done() {
					break
				}
				t = r.wake(i, t, h)
			}
			if t == h {
				h = r.horizon(i, t, bounded)
			}
		}
		if t != never && b.Done() {
			// A block finishes on a tick that makes progress, and the visit
			// stops at the next tick, which makes none, or at the horizon:
			// either way it finished on the tick at t-1.
			r.nDone++
			r.lastDone = max(r.lastDone, t-1)
			t = never
		}
		r.clk[i] = t
	}
	return advanced
}

// horizon returns the cycle block i, at clock t, may tick up to (not
// including): over its inputs, the least of max(producer clock + 1, t +
// queued tokens), and, bounded, t plus the room left under window in its
// fullest output queue; never past r.end.
func (r *runner) horizon(i, t int, bounded bool) int {
	h := r.end
	for k := r.inOff[i]; k < r.inOff[i+1]; k++ {
		if p := r.clk[r.prod[k]]; p != never {
			q := r.ins[k]
			h = min(h, max(p+1, t+q.tail-q.head))
		}
	}
	if bounded {
		full := 0
		for _, q := range r.outs[r.outOff[i]:r.outOff[i+1]] {
			full = max(full, q.tail-q.head)
		}
		h = min(h, t+window-full)
	}
	return h
}

// wake returns the cycle block i next ticks at after a tick at t without
// progress: the earliest at which the head token of one of its inputs turns
// visible, or else h, its horizon. A head already visible changes nothing
// until the block pops it, and blocks read nothing behind it; a token a
// lagging producer has yet to push turns visible at h or later.
func (r *runner) wake(i, t, h int) int {
	next := h
	for _, q := range r.ins[r.inOff[i]:r.inOff[i+1]] {
		if q.head < q.tail {
			if at := r.n.base + int(q.first.toks[q.head&chunkMask].at); at > t && at < next {
				next = at
			}
		}
	}
	return next
}

// frontier returns the lowest clock of a block still running (never: none
// is). Every block has ticked every cycle below it.
func (r *runner) frontier() int {
	f := never
	for _, t := range r.clk[:len(r.blocks)] {
		f = min(f, t)
	}
	return f
}

// progressed marks cycles [from, to) as ones in which some block made
// progress.
func (r *runner) progressed(from, to int) {
	if to-r.abase > len(r.act)<<6 {
		r.grow(to)
	}
	m := len(r.act) - 1
	for from < to {
		k, lo := from>>6, from&63
		hi := min(to-from+lo, 64)
		r.act[k&m] |= (^uint64(0) >> (64 - (hi - lo))) << lo
		from += hi - lo
	}
}

// grow doubles the progress ring until it covers cycle to-1.
func (r *runner) grow(to int) {
	n := len(r.act)
	for to-r.abase > n<<6 {
		n *= 2
	}
	act := make([]uint64, n)
	for k := r.abase >> 6; k < r.abase>>6+len(r.act); k++ {
		act[k&(n-1)] = r.act[k&(len(r.act)-1)]
	}
	r.act = act
}

// forget drops the progress bits below cycle f, which settle has read.
func (r *runner) forget(f int) {
	m := len(r.act) - 1
	for k := range min((f-r.abase)>>6, len(r.act)) {
		r.act[(r.abase>>6+k)&m] = 0
	}
	r.abase = f &^ 63
}

// stall returns the first cycle in [from, to) in which no block made
// progress, or to if there is none.
func (r *runner) stall(from, to int) int {
	m, end := len(r.act)-1, r.abase+len(r.act)<<6
	for c := from; c < to; c = c | 63 + 1 {
		if c >= end {
			return c
		}
		if z := ^r.act[c>>6&m] >> (c & 63); z != 0 {
			return min(c+bits.TrailingZeros64(z), to)
		}
	}
	return to
}

// settle finds the first event below the frontier f, from cycle from on, at
// which the naive loop stops, in its order within a cycle — a failing tick,
// then every block done, then no progress — and returns the run's result.
func (r *runner) settle(from, f int) (int, error, bool) {
	stall := r.stall(from, f)
	switch {
	case r.nDone == len(r.blocks) && r.lastDone < stall:
		return max(r.lastDone+1, 1), nil, true
	case r.failT < f && r.failT <= stall:
		return r.failT, r.blocks[r.failI].Err(), true
	case stall < f:
		return stall + 1, errDeadlock(stall+1, r.n), true
	}
	return 0, nil, false
}

// finish ends the run: the net's clock stands past every stamp, so every
// token pushed is visible, and every queue records its idle cycles (counted
// over the run's cycles) and releases its storage (see Queue.endRun).
func (r *runner) finish(cycles int) {
	r.n.clk.now = math.MaxUint32
	for _, q := range r.queues {
		q.endRun(cycles)
	}
	r.n.PeakChunks = r.n.clk.peak
	clear(r.act)
	freeRings.put(r.act)
}
