package core

import "fmt"

// Block is one SAM dataflow primitive in the cycle simulator. Tick advances
// the block by one cycle, consuming at most one token per input port and
// emitting at most one token per output port; it reports whether the block
// made progress. Done reports stream termination (the block has consumed and
// propagated the done token).
//
// Tick must be a pure function of the block's state and its visible queue
// state whenever it reports no progress: a tick that returns false may
// record an error (fail) or consume alignment tokens, but a block that
// neither progressed nor saw any new input, freed output space, or internal
// state change must behave identically on the next tick. The event-driven
// scheduler relies on this to skip starved blocks without perturbing
// simulated cycle counts.
//
// Every block declares its port wiring through InQueues and OutPorts. The
// event-driven scheduler (Net.Run) uses the declaration to wake a block
// exactly when one of its input queues flips new tokens visible or a
// backpressured output queue frees space. Nil entries (optional ports) are
// permitted.
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
