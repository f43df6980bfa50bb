package core

import (
	"fmt"
	"runtime"
)

// Net is a wired set of blocks and queues — one executable SAM dataflow
// graph fragment. It owns the clock its queues stamp and read tokens by and
// the cycle loop; the higher-level sim package builds Nets from compiled
// graph IR, and tests build them by hand.
type Net struct {
	Blocks []Block
	Queues []*Queue

	// PeakChunks is the most storage chunks (4 KB each, see Queue) the
	// net's queues held at once during its last run, filled when the run
	// ends.
	PeakChunks int

	clk  *clock // the cycle of the block being ticked, from base
	base int    // the cycle stamps count from
	span int    // cycles past base before a rebase; 0 means stampSpan
}

// clock returns the net's clock. It is an object of its own, not a field,
// so a queue pointing at it does not point into the net: a queue a finalizer
// watches must not sit on a cycle back to itself.
func (n *Net) clock() *clock {
	if n.clk == nil {
		n.clk = new(clock)
	}
	return n.clk
}

// NewQueue creates and registers a queue.
func (n *Net) NewQueue(label string) *Queue {
	q := &Queue{Label: label, clk: n.clock()}
	n.Queues = append(n.Queues, q)
	return q
}

// NewBoundedQueue creates and registers a queue with finite capacity.
func (n *Net) NewBoundedQueue(label string, capacity int) *Queue {
	q := n.NewQueue(label)
	q.Cap = capacity
	return q
}

// Add registers blocks.
func (n *Net) Add(bs ...Block) {
	n.Blocks = append(n.Blocks, bs...)
}

// Run executes the net until all blocks are done and returns the number of
// simulated cycles: the cycle the last block finished in, plus one. A cycle
// in which no block makes progress is a deadlock; reaching limit aborts (both
// return errors naming the unfinished blocks); a block's failure aborts with
// its error. Any non-negative limit is honored.
//
// A net whose queues are all unbounded and whose blocks form no cycle runs
// lagging: each block runs its span (see spanner) on its own clock up to the
// cycle its inputs' queued tokens and producers' clocks let it see, and a
// producer pauses a window of tokens ahead of its consumers, so the run holds
// that window per stream rather than the simulated machine's backlog (see
// sched.go). Any other net runs RunNaive's loop: a bounded queue's pop frees
// room its producer sees at once, and a cycle of blocks has no order to run
// ahead in. Either way, cycle counts, outputs, stream statistics and errors
// are identical to RunNaive's (a failed run's statistics aside: see runner).
func (n *Net) Run(limit int) (int, error) {
	r, lagging := newRunner(n)
	if !lagging {
		return n.RunNaive(limit)
	}
	return r.run(limit)
}

// RunNaive is the reference tick-all loop: every block is ticked on every
// cycle, in block-index order, regardless of whether it can make progress. It
// runs the naive engine and Run's bounded and cyclic nets, and it is the
// reference Run is tested against.
func (n *Net) RunNaive(limit int) (int, error) {
	r, _ := newRunner(n)
	qs := r.queues
	cycles := 0
	finish := func() {
		n.clk.now = uint32(cycles - n.base)
		for _, q := range qs {
			q.endRun(cycles)
		}
		n.PeakChunks = n.clk.peak
	}
	for {
		if cycles >= limit {
			finish()
			return cycles, errLimit(limit, n)
		}
		if cycles-n.base >= n.stampSpan() {
			n.rebase(cycles, qs)
		}
		n.clk.now = uint32(cycles - n.base)
		progress := false
		allDone := true
		for _, b := range n.Blocks {
			progress = b.Tick() || progress
			if !b.Done() {
				allDone = false
			} else if err := b.Err(); err != nil {
				// fail finishes the block, so only a finished block can
				// have failed.
				finish()
				return cycles, err
			}
		}
		cycles++
		if allDone {
			finish()
			return cycles, nil
		}
		if !progress && !n.staged(qs) {
			finish()
			return cycles, errDeadlock(cycles, n)
		}
	}
}

// staged reports whether a queue holds a token that turns visible after the
// current cycle: a cycle without progress is a deadlock only if none does.
func (n *Net) staged(qs []*Queue) bool {
	for _, q := range qs {
		if q.tail > q.head && q.last.toks[(q.tail-1)&chunkMask].lastAt() > n.clk.now {
			return true
		}
	}
	return false
}

// stampSpan returns the cycles the net runs past its stamp base before it
// rebases.
func (n *Net) stampSpan() int {
	if n.span > 0 {
		return n.span
	}
	return stampSpan
}

// rebase moves the net's stamp base up to cycle to: every queued stamp drops
// by the difference (see Queue.rebase), so the clock and the stamps it is
// compared against keep to 32 bits however many cycles a run counts.
func (n *Net) rebase(to int, qs []*Queue) {
	delta := uint32(to - n.base)
	for _, q := range qs {
		q.rebase(delta)
	}
	n.base = to
}

func errLimit(limit int, n *Net) error {
	return fmt.Errorf("core: cycle limit %d exceeded; unfinished: %s", limit, n.unfinished())
}

func errDeadlock(cycles int, n *Net) error {
	return fmt.Errorf("core: deadlock after %d cycles; unfinished: %s", cycles, n.unfinished())
}

func (n *Net) unfinished() string {
	s := ""
	for _, b := range n.Blocks {
		if !b.Done() {
			if s != "" {
				s += ", "
			}
			s += b.Name()
		}
	}
	if s == "" {
		s = "(none)"
	}
	return s
}

// freeList parks buffers one run leaves for the next: up to n per CPU, since
// no more runs than CPUs go at once without waiting. Unlike a sync.Pool the
// collector never empties it, so a process whose runs hold little memory,
// and so collect often, still finds its buffers warm; each is the size of
// the largest run it served, a footprint the process already reached, held
// rather than raised.
type freeList[T any] chan T

func newFreeList[T any](n int) freeList[T] { return make(freeList[T], n*runtime.GOMAXPROCS(0)) }

// get returns a parked buffer, or T's zero value when none is parked.
func (f freeList[T]) get() T {
	select {
	case v := <-f:
		return v
	default:
		var zero T
		return zero
	}
}

// put parks v, unless the list is full.
func (f freeList[T]) put(v T) {
	select {
	case f <- v:
	default:
	}
}
