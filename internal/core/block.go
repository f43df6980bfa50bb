package core

import "fmt"

// Block is one SAM dataflow primitive in the cycle simulator. Tick advances
// the block by one cycle, consuming at most one token per input port and
// emitting at most one token per output port; it reports whether the block
// made progress. Done reports stream termination (the block has consumed and
// propagated the done token).
//
// A tick that pops, pushes or changes the block's state reports progress. A
// tick that reports none changes nothing, unless it fails (fail records the
// error and finishes the block), so a block that sees no new head token
// behaves identically on the next tick; and a block finishes (Done turns
// true) only on a tick that makes progress or fails. Blocks read an input's
// head token only (Peek, Pop, PopPeeked), and pop at most one token per input
// per cycle. Net.Run relies on all of this: a starved block skips straight to
// the cycle a new head token turns visible, a consumer runs ahead of its
// lagging producer while tokens stay queued, and a cycle in which no block
// makes progress freezes the net, a deadlock — all without perturbing
// simulated cycle counts.
//
// Every block declares its port wiring through InQueues and OutPorts. Net.Run
// uses the declaration to order blocks producer before consumer, to find the
// inputs whose head stamps bound a block's skip, and to find each input's
// producer and each output's fill. Nil entries (optional
// ports) are permitted.
type Block interface {
	Name() string
	Tick() bool
	Done() bool
	Err() error
	// InQueues lists the queues the block consumes from.
	InQueues() []*Queue
	// OutPorts lists the output ports the block pushes into.
	OutPorts() []*Out
}

// spanner is a block that runs a span of cycles per call: span ticks it from
// its queues' clock's cycle up to end, consuming the head tokens as they
// turn visible. After a cycle without progress it jumps straight to the
// cycle the next queued head token of one of its inputs turns visible, or to
// end when none is queued: a token not yet pushed turns visible at end or
// later (see runner). It returns only at end, at the cycle of a failing
// tick, or at the cycle after the one it finished on: that cycle is stop,
// and prog is one past the last cycle it made progress in (0: none). It may
// leave the clock at any cycle it ran.
//
// Net.Run's lagging loop runs only nets whose queues are all unbounded, so a
// span's output ports are free and it checks their room once per call. A
// spanner's Tick, which RunNaive calls on bounded nets too, is its span of
// one cycle (see tick): every block kind the compiler builds for the
// simulate-event shapes has one span and no second implementation, and the
// other kinds run through ticker.
type spanner interface {
	Block
	span(end uint32) (stop, prog uint32)
}

// tick is a spanner's Tick: its span of the clock's cycle alone. The span
// sets the clock to no cycle but that one, so it is where the next block
// ticked that cycle finds it.
func tick(s spanner, clk *clock) bool {
	_, prog := s.span(clk.now + 1)
	return prog != 0
}

// stepper is a block whose cycle is one call of step, the logic its span,
// steps, drives.
type stepper interface {
	step() bool
	Done() bool
}

// steps is the span of a stepper whose inputs are ins: one step a cycle
// while the block makes progress, and after a cycle without it the jump to
// the next cycle a head token of ins turns visible (see wake). A failing
// step finishes the block (see fail), so Done alone ends the span. lead,
// when set, is an input whose head every cycle with progress reads: the span
// waits for it before it steps.
func steps(s stepper, clk *clock, end uint32, lead *Queue, ins []*Queue) (stop, prog uint32) {
	now := clk.now
	for now < end {
		if lead != nil {
			if h := lead.headSlot(); h == nil || h.at > now {
				if s.Done() {
					break
				}
				if h == nil || h.at >= end {
					return end, prog
				}
				now = h.at
			}
		}
		clk.now = now
		if s.step() {
			now++
			prog = now
		} else if s.Done() {
			break
		} else {
			now = wake(now, end, ins)
		}
	}
	return now, prog
}

// wake returns the first cycle after now, and before end, at which the head
// token of one of qs turns visible, or else end. A head already visible
// changes nothing until the block pops it, and blocks read nothing behind
// it.
func wake(now, end uint32, qs []*Queue) uint32 {
	if now+1 == end {
		return end
	}
	for _, q := range qs {
		if s := q.headSlot(); s != nil && s.at > now && s.at < end {
			end = s.at
		}
	}
	return end
}

// ticker runs a block that has no span of its own — the bitvector blocks,
// GallopIntersect, Locator, which no simulate-event shape builds — one Tick
// a cycle, as steps runs a stepper.
type ticker struct {
	Block
	clk *clock
	ins []*Queue
}

func (t *ticker) step() bool { return t.Tick() }

func (t *ticker) span(end uint32) (uint32, uint32) { return steps(t, t.clk, end, nil, t.ins) }

// basic carries the bookkeeping shared by all block implementations.
type basic struct {
	name string
	done bool
	err  error
}

func (b *basic) Name() string { return b.name }
func (b *basic) Done() bool   { return b.done }
func (b *basic) Err() error   { return b.err }

// fail records a protocol violation (misaligned streams, unexpected token)
// and terminates the block; the engine surfaces the error.
func (b *basic) fail(format string, args ...any) bool {
	b.err = fmt.Errorf("%s: %s", b.name, fmt.Sprintf(format, args...))
	b.done = true
	return false
}
