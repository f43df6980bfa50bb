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
// state change must behave identically on the next tick. A tick that pushes
// a token reports progress, and a block finishes (Done turns true) only on a
// tick that makes progress or fails. Blocks read an input's head token only
// (Peek, Pop, PopPeeked). Net.Run relies on all of this to skip a starved
// block's ticks up to the cycle a new head token turns visible, without
// perturbing simulated cycle counts.
//
// Every block declares its port wiring through InQueues and OutPorts. Net.Run
// uses the declaration to order blocks producer before consumer and to find
// the inputs whose head stamps bound a block's skip. Nil entries (optional
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
