package core

import "math"

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
// order, and runs its span (see spanner) from its clock up to its horizon.
// Within the span the block ticks each cycle it can make progress in and
// jumps over the rest, to the cycle a token already queued on one of its
// inputs turns visible, or else to the horizon. The jump is exact: a tick
// with no progress and no new input is a no-op (see Block).
//
// A block reads only its inputs' head tokens, and a queued head is final: it
// was pushed, stamped with the cycle it turns visible. An unbounded queue
// never pushes back, so nothing a consumer does changes its producer's
// cycles. A block may therefore tick cycle c once each input either still
// holds a token at c or has a producer that has run through cycle c-1, and
// since it pops at most one token per input per cycle, its horizon is the
// least, over its inputs, of max(producer clock + 1, own clock + queued
// tokens). Producers lag their consumers in simulated time: a block also
// pauses once its fullest output queue holds the pass's bound, window tokens,
// so a run holds a window of tokens per stream, not the backlog the simulated
// machine has in flight. A pass in which no block advances (reconvergent
// paths of unequal rate, one waiting on a token its sibling's full queue
// holds back) reruns with the bound raised by one window, until a pass
// advances and the bound returns to window.
//
// The frontier is the lowest clock of an unfinished block: every cycle below
// it has been ticked by every block. After each pass the runner settles the
// first event below the frontier at which the naive loop would stop: a
// failing tick (lowest cycle, then lowest block index), every block done, or
// a cycle in which no block made progress (a deadlock). A cycle without
// progress freezes the net, since nothing its ticks saw changes, so no block
// makes progress after it: the first such cycle is the one after the latest
// cycle any block made progress in, and the runner keeps only that. Cycle
// counts, outputs and errors are those of RunNaive, and so are stream
// statistics, unless a block fails: blocks that ran past the failing cycle
// keep what they pushed there.
type runner struct {
	n     *Net
	spans []spanner // each block's span: its own, or a ticker's
	order []int32   // visit order within a pass

	ins    []*Queue // each block's input queues, block by block
	prod   []int32  // the block producing ins[k] (len(spans): none)
	inOff  []int32  // block i's inputs are ins[inOff[i]:inOff[i+1]]
	outs   []*Queue // each block's output queues that some block consumes
	outOff []int32  // block i's are outs[outOff[i]:outOff[i+1]]
	queues []*Queue // every queue the net registers, reads or writes

	clk []int // the cycle each block next ticks at (never: done or failed); one more, never, for prod's none
	end int   // no block ticks at or past this cycle

	last     int // the latest cycle some block made progress in (-1: none yet)
	nDone    int // blocks finished without error
	lastDone int // the latest cycle one of them finished at (-1: before the first)
	failT    int // the earliest failing tick's cycle (never: none)
	failI    int // and its block
}

// newRunner resolves the net's wiring for a run: every block's input queues
// and their producers, each block's consumed output queues, each queue's
// consuming block and the visit order. Every queue the blocks read or write
// is put on the net's clock, registered with the net or not, every output
// port learns whether it is free (see Out.CanPush) and the clock, and every
// block gets its span (see spanner). It reports
// whether the lagging loop runs the net: its queues are all unbounded and
// its blocks form no cycle.
func newRunner(n *Net) (*runner, bool) {
	nb := len(n.Blocks)
	r := &runner{
		n: n, spans: make([]spanner, nb),
		inOff: make([]int32, nb+1), outOff: make([]int32, nb+1), clk: make([]int, nb+1),
		last: -1, lastDone: -1, failT: never,
	}
	r.clk[nb] = never
	var ports []*Out
	portOff := make([]int32, nb+1)
	for i, b := range n.Blocks {
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
			o.free, o.clk = true, clk
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
	for i, b := range n.Blocks {
		if sp, ok := b.(spanner); ok {
			r.spans[i] = sp
		} else {
			r.spans[i] = &ticker{Block: b, clk: clk, ins: r.ins[r.inOff[i]:r.inOff[i+1]]}
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
	for f, bound := 0, window; f < limit; {
		if f-r.n.base >= r.n.stampSpan() {
			r.n.rebase(f, r.queues)
		}
		r.end = min(limit, r.n.base+2*r.n.stampSpan()-1)
		if r.failT != never {
			r.end = min(r.end, r.failT+1)
		}
		// A pass that advances no block is a net whose producers wait on
		// full queues that reconverge downstream: raise the bound by a
		// window until one does.
		if r.pass(bound) {
			bound = window
		} else {
			bound += window
		}
		f = r.frontier()
		if cycles, err, ok := r.settle(f); ok {
			r.finish(cycles)
			return cycles, err
		}
	}
	r.finish(limit)
	return limit, errLimit(limit, r.n)
}

// pass runs every block's span from its clock up to its horizon, no output
// queue filling past bound tokens, and reports whether any block advanced.
func (r *runner) pass(bound int) bool {
	clk, base := r.n.clk, r.n.base
	advanced := false
	for _, i32 := range r.order {
		i := int(i32)
		t := r.clk[i]
		if t >= r.end { // done, failed, or at the run's end
			continue
		}
		h := r.horizon(i, t, bound)
		if t >= h {
			continue
		}
		advanced = true
		sp := r.spans[i]
		for {
			clk.now = uint32(t - base)
			stop, prog := sp.span(uint32(h - base))
			if prog != 0 {
				r.last = max(r.last, base+int(prog)-1)
			}
			// A span stops short of its horizon only when the block fails
			// or finishes; at the horizon, its consumption may extend it.
			if t = base + int(stop); t < h {
				break
			}
			if h = r.horizon(i, t, bound); t >= h {
				break
			}
		}
		if sp.Err() != nil {
			if t < r.failT || t == r.failT && i < r.failI {
				r.failT, r.failI = t, i
				r.end = min(r.end, t+1)
			}
			t = never
		} else if sp.Done() {
			// A block finishes on a tick that makes progress, and its span
			// stops at the next cycle: it finished on the tick at t-1.
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
// queued tokens), and t plus the room left under bound in its fullest output
// queue; never past r.end. A run slot counts as the tokens it stands for on
// the input side, whose pops it bounds, and as one slot on the output side,
// whose storage it bounds.
func (r *runner) horizon(i, t, bound int) int {
	h := r.end
	for k := r.inOff[i]; k < r.inOff[i+1]; k++ {
		if p := r.clk[r.prod[k]]; p != never {
			q := r.ins[k]
			h = min(h, max(p+1, t+q.queued()))
		}
	}
	full := 0
	for _, q := range r.outs[r.outOff[i]:r.outOff[i+1]] {
		full = max(full, q.tail-q.head)
	}
	return min(h, t+bound-full)
}

// frontier returns the lowest clock of a block still running (never: none
// is). Every block has ticked every cycle below it.
func (r *runner) frontier() int {
	f := never
	for _, t := range r.clk[:len(r.spans)] {
		f = min(f, t)
	}
	return f
}

// settle finds the first event below the frontier f at which the naive loop
// stops, in its order within a cycle — a failing tick, then every block
// done, then no progress — and returns the run's result. Blocks finish and
// fail only before the first cycle without progress, the one after r.last.
func (r *runner) settle(f int) (int, error, bool) {
	switch {
	case r.nDone == len(r.spans):
		return max(r.lastDone+1, 1), nil, true
	case r.failT < f:
		return r.failT, r.spans[r.failI].Err(), true
	case r.last+1 < f:
		return r.last + 2, errDeadlock(r.last+2, r.n), true
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
}
