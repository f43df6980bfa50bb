package core

import "fmt"

// Net is a wired set of blocks and queues — one executable SAM dataflow
// graph fragment. It owns queue lifecycle (the two-phase visibility flip)
// and the cycle loop; the higher-level sim package builds Nets from compiled
// graph IR, and tests build them by hand.
type Net struct {
	Blocks []Block
	Queues []*Queue
}

// NewQueue creates and registers a queue.
func (n *Net) NewQueue(label string) *Queue {
	q := NewQueue(label)
	n.Queues = append(n.Queues, q)
	return q
}

// NewBoundedQueue creates and registers a queue with finite capacity.
func (n *Net) NewBoundedQueue(label string, capacity int) *Queue {
	q := NewQueue(label)
	q.Cap = capacity
	n.Queues = append(n.Queues, q)
	return q
}

// Add registers blocks.
func (n *Net) Add(bs ...Block) {
	n.Blocks = append(n.Blocks, bs...)
}

// Run executes the net until all blocks are done, flipping queue visibility
// between cycles, and returns the number of simulated cycles. A cycle with
// no progress and no staged tokens is a deadlock; exceeding limit aborts
// (both return errors naming the stuck blocks).
//
// Run uses the event-driven ready-set scheduler (see sched.go): per cycle it
// ticks only blocks made ready by the previous cycle's queue flips, by
// freed backpressure space, or by their own progress. Cycle counts, outputs
// and stream statistics are identical to RunNaive.
func (n *Net) Run(limit int) (int, error) {
	return newScheduler(n).run(limit)
}

// RunNaive is the reference tick-all loop: every block is ticked on every
// cycle regardless of whether it can make progress. It runs the naive
// engine, the reference the event-driven scheduler is tested against.
func (n *Net) RunNaive(limit int) (int, error) {
	for _, q := range n.Queues {
		// A previous event-engine run may have left hooks; the naive loop
		// must run without them.
		q.sched = nil
		q.flipPending = false
	}
	cycles := 0
	finish := func() {
		for _, q := range n.Queues {
			q.endRun(cycles)
		}
	}
	for {
		if cycles >= limit {
			finish()
			return cycles, errLimit(limit, n)
		}
		progress := false
		allDone := true
		for _, b := range n.Blocks {
			if b.Tick() {
				progress = true
			} else if err := b.Err(); err != nil {
				// fail always reports no progress, so the error check is
				// needed only on failed ticks.
				finish()
				return cycles, err
			}
			if !b.Done() {
				allDone = false
			}
		}
		staged := false
		for _, q := range n.Queues {
			if q.StagedLen() > 0 {
				staged = true
			}
		}
		for _, q := range n.Queues {
			q.EndCycle()
		}
		cycles++
		if allDone {
			finish()
			return cycles, nil
		}
		if !progress && !staged {
			finish()
			return cycles, errDeadlock(cycles, n)
		}
	}
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
