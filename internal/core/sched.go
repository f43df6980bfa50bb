package core

import (
	"math"
	"math/bits"
)

// window is W, the cycles a block runs per visit on a net whose queues are
// all unbounded and whose blocks form no cycle. 256 to 4096 measure alike on
// the simulate-event shapes; 64 is slower.
const window = 512

// stampSpan is how many cycles past its stamp base a net runs before it
// rebases (see Net.rebase): stamps stay below 2^31 + window + 1, so a 32-bit
// stamp never wraps, whatever the cycle limit.
const stampSpan = 1 << 31

// never is the clock of a block that will not tick again.
const never = math.MaxInt

// runner is Net.Run's scheduler. Each block keeps its own clock, the next
// cycle it ticks at, and the run proceeds in windows of W cycles: a window
// visits every block once and ticks it from its clock up to the window's end.
// A block that made progress ticks again the next cycle; after a tick with no
// progress it jumps to the earliest cycle at which a token already queued on
// one of its inputs turns visible, or else to the window's end. The skip is
// exact: a tick with no progress and no new input is a no-op (see Block).
//
// On a net whose queues are all unbounded and whose blocks form no cycle, W
// is 512 and blocks are visited in topological order. A pushed token turns
// visible only the next cycle and an unbounded queue never pushes back, so
// nothing a consumer does changes its producer's cycles: by the time a block
// is visited, every token that reaches it before the window's end is already
// queued, stamped with the cycle it turns visible.
//
// A bounded queue's pop frees room its producer sees at once, and a cycle of
// blocks has no order to run ahead in. Such a net runs the same loop with W =
// 1 in block-index order, the naive loop's order. There a no-progress tick
// puts the block to sleep, a push re-arms the queue's consumer for the next
// cycle, and a pop on a bounded queue re-arms its producer for this cycle if
// its turn is still to come, else for the next — which is when the naive loop
// would first see the freed room.
//
// Either way a window ends by settling, in cycle order, the events the naive
// loop would stop at: a failing tick (lowest cycle, then lowest block index),
// every block done, or a cycle in which no block made progress (a deadlock).
// Cycle counts, outputs, stream statistics and errors are those of RunNaive.
type runner struct {
	n      *Net
	blocks []Block
	spans  []spanner // blocks[i] as a spanner, or nil: it runs Tick by Tick
	order  []int32   // visit order within a window
	w      int       // W

	ins    []*Queue // each block's input queues, block by block
	inOff  []int32  // block i's inputs are ins[inOff[i]:inOff[i+1]]
	queues []*Queue // every queue the net registers, reads or writes

	clk []int  // the cycle each block next ticks at
	fin []bool // the block is done or failed and ticks no more
	ws  int    // the window's first cycle: at W = 1, where hooks re-arm blocks, the one ticked
	cur int    // the block being ticked

	active   [window / 64]uint64 // bit c-ws: some block progressed at cycle c of the window
	nDone    int                 // blocks finished without error
	lastDone int                 // the latest cycle one of them finished at (-1: before the first)
	failT    int                 // the earliest failing tick's cycle (never: none)
	failI    int                 // and its block
}

// newRunner resolves the net's wiring for a run: every block's input queues,
// each queue's producing and consuming block, the visit order and W. Every
// queue the blocks read or write is put on the net's clock, registered with
// the net or not.
func newRunner(n *Net) *runner {
	nb := len(n.Blocks)
	r := &runner{
		n: n, blocks: n.Blocks, w: window,
		spans: make([]spanner, nb),
		inOff: make([]int32, nb+1), clk: make([]int, nb), fin: make([]bool, nb),
		lastDone: -1, failT: never,
	}
	var outs []*Out
	outOff := make([]int32, nb+1)
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
				outs = append(outs, o)
			}
		}
		outOff[i+1] = int32(len(outs))
	}
	// Collect each queue once, marking the unvisited by a nil clock.
	for _, q := range n.Queues {
		q.clk = nil
	}
	for _, q := range r.ins {
		q.clk = nil
	}
	for _, o := range outs {
		for _, q := range o.qs {
			q.clk = nil
		}
	}
	clk := n.clock()
	add := func(q *Queue) {
		if q.clk == nil {
			q.clk, q.run, q.cons, q.prod = clk, nil, 0, 0
			r.queues = append(r.queues, q)
		}
	}
	for _, q := range n.Queues {
		add(q)
	}
	for i := range nb {
		for _, q := range r.ins[r.inOff[i]:r.inOff[i+1]] {
			add(q)
			q.cons = int32(i + 1)
		}
	}
	indeg := make([]int32, nb)
	for i := range nb {
		for _, o := range outs[outOff[i]:outOff[i+1]] {
			// Resolve backpressure once per run: a port none of whose
			// destinations is bounded can always push (see Out.CanPush).
			o.free = true
			for _, q := range o.qs {
				add(q)
				q.prod = int32(i + 1)
				if q.Cap > 0 {
					o.free = false
					r.w = 1
				}
				if q.cons > 0 {
					indeg[q.cons-1]++
				}
			}
		}
	}
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
		for _, o := range outs[outOff[i]:outOff[i+1]] {
			for _, q := range o.qs {
				if c := q.cons - 1; c >= 0 {
					if indeg[c]--; indeg[c] == 0 {
						r.order = append(r.order, c)
					}
				}
			}
		}
	}
	if len(r.order) < nb {
		r.w = 1
	}
	if r.w == 1 {
		r.order = r.order[:nb]
		for i := range r.order {
			r.order[i] = int32(i)
		}
	}
	return r
}

// run executes the net to completion. See Net.Run for the contract.
func (r *runner) run(limit int) (int, error) {
	if r.w == 1 {
		for _, q := range r.queues {
			q.run = r
		}
	}
	we := 0
	for ws := 0; ws < limit; ws = we {
		if ws-r.n.base >= r.n.stampSpan() {
			r.n.rebase(ws, r.queues)
		}
		we = ws + min(r.w, limit-ws)
		r.window(ws, we)
		if cycles, err, ok := r.settle(ws, we); ok {
			r.finish(we, cycles)
			return cycles, err
		}
	}
	// A block that finished on the last cycle has not ticked since.
	if limit > 0 {
		for i, b := range r.blocks {
			if !r.fin[i] && b.Done() {
				r.fin[i] = true
				r.nDone++
				r.lastDone = limit - 1
			}
		}
		if r.nDone == len(r.blocks) {
			r.finish(we, limit)
			return limit, nil
		}
	}
	r.finish(we, limit)
	return limit, errLimit(limit, r.n)
}

// spanner is a block that runs a span of cycles per call rather than one:
// span ticks it at its queues' clock's cycle and each next one while it makes
// progress, up to end, and returns how many cycles made progress. It may move
// the clock to any cycle it ran. A span of more than one cycle is run only on
// a net whose queues are all unbounded (W > 1), so its output ports are free
// and it checks their room once; the block's Tick is its span of one cycle.
type spanner interface {
	span(end uint32) int
}

// window ticks every block from its clock up to we.
func (r *runner) window(ws, we int) {
	sleep := we
	if r.w == 1 {
		sleep = never
	}
	clear(r.active[:(we-ws+63)>>6])
	r.ws = ws
	clk, base := r.n.clk, r.n.base
	for _, i32 := range r.order {
		i := int(i32)
		t := r.clk[i]
		if t >= we {
			continue
		}
		b, sp := r.blocks[i], r.spans[i]
		r.cur = i
		for t < we {
			from := t
			clk.now = uint32(t - base)
			if sp != nil {
				t += sp.span(uint32(we - base))
			} else {
				for ; b.Tick(); clk.now++ {
					if t++; t == we {
						break
					}
				}
			}
			r.progressed(from-ws, t-ws)
			if t == we {
				break
			}
			if b.Err() != nil {
				// fail always reports no progress, so the error check is
				// needed only on failed ticks.
				if t < r.failT || t == r.failT && i < r.failI {
					r.failT, r.failI = t, i
				}
				r.fin[i], t = true, never
				break
			}
			if b.Done() {
				// A block finishes on a tick that makes progress, and ticks
				// again the next cycle.
				r.nDone++
				r.lastDone = max(r.lastDone, t-1)
				r.fin[i], t = true, never
				break
			}
			t = r.wake(i, t, sleep)
		}
		r.clk[i] = t
	}
}

// progressed marks cycles [ws+from, ws+to) of the window as ones in which
// some block made progress.
func (r *runner) progressed(from, to int) {
	if to-from == 1 {
		r.active[from>>6] |= 1 << uint(from&63)
		return
	}
	for from < to {
		k, lo := from>>6, from&63
		hi := min(to-from+lo, 64)
		r.active[k] |= (^uint64(0) >> (64 - (hi - lo))) << lo
		from += hi - lo
	}
}

// wake returns the cycle block i next ticks at after a tick at t without
// progress: the earliest at which the head token of one of its inputs turns
// visible, or else sleep. A head already visible changes nothing until the
// block pops it, and blocks read nothing behind it.
func (r *runner) wake(i, t, sleep int) int {
	next := sleep
	for _, q := range r.ins[r.inOff[i]:r.inOff[i+1]] {
		if q.head < q.tail {
			if at := r.n.base + int(q.first.toks[q.head&chunkMask].at); at > t && at < next {
				next = at
			}
		}
	}
	return next
}

// settle finds the first event of the window [ws, we) at which the naive loop
// stops, in its order within a cycle — a failing tick, then every block done,
// then no progress — and returns the run's result.
func (r *runner) settle(ws, we int) (int, error, bool) {
	stall := we
	for k := 0; k<<6 < we-ws; k++ {
		if z := ^r.active[k]; z != 0 {
			stall = min(ws+k<<6+bits.TrailingZeros64(z), we)
			break
		}
	}
	switch {
	case r.nDone == len(r.blocks) && r.lastDone < stall:
		return max(r.lastDone+1, 1), nil, true
	case r.failT < we && r.failT <= stall:
		return r.failT, r.blocks[r.failI].Err(), true
	case stall < we:
		return stall + 1, errDeadlock(stall+1, r.n), true
	}
	return 0, nil, false
}

// pushed re-arms a queue's consumer for the cycle its new token turns visible.
func (r *runner) pushed(cons int32) {
	if i, due := int(cons)-1, r.ws+1; i >= 0 && !r.fin[i] && r.clk[i] > due {
		r.clk[i] = due
	}
}

// popped re-arms a bounded queue's producer: a pop frees room at once, so a
// producer blocked on it may emit this cycle if its turn is still to come.
func (r *runner) popped(prod int32) {
	i := int(prod) - 1
	if i < 0 || r.fin[i] {
		return
	}
	due := r.ws
	if i <= r.cur {
		due++
	}
	if r.clk[i] > due {
		r.clk[i] = due
	}
}

// finish ends the run: the net's clock stands at the last cycle run, so every
// token pushed is visible; hooks come off; every queue records its idle
// cycles and releases its storage (see Queue.endRun).
func (r *runner) finish(end, cycles int) {
	r.n.clk.now = uint32(end - r.n.base)
	for _, q := range r.queues {
		q.run = nil
		q.endRun(cycles)
	}
}
