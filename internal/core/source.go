package core

import "sam/internal/token"

// RootSource emits the depth-0 root reference stream "0, D" that begins each
// tensor path (paper Figure 2). It is also usable as a generic stream source
// when preloaded with an arbitrary recorded stream.
type RootSource struct {
	basic
	out    *Out
	stream token.Stream
	pos    int
}

// NewRootSource builds the standard root source.
func NewRootSource(name string, out *Out) *RootSource {
	return &RootSource{basic: basic{name: name}, out: out, stream: token.Root()}
}

// Tick implements Block: a span of one cycle.
func (b *RootSource) Tick() bool { return tick(b, b.out.clk) }

// Done implements Block: the source is done once its stream is out, from the
// start for an empty one.
func (b *RootSource) Done() bool { return b.done || b.pos == len(b.stream) }

// span implements spanner: one token a cycle, without a pause.
func (b *RootSource) span(end uint32) (uint32, uint32) {
	clk := b.out.clk
	now := clk.now
	if b.Done() {
		return now, 0
	}
	if !b.out.CanPush() {
		return end, 0
	}
	// A recorded stream without a done token ends with its last token.
	for now < end && !b.Done() {
		clk.now = now
		t := b.stream[b.pos]
		b.out.Push(t)
		b.pos++
		b.done = t.IsDone()
		now++
	}
	return now, now
}

// InQueues implements Block.
func (b *RootSource) InQueues() []*Queue { return nil }

// OutPorts implements Block.
func (b *RootSource) OutPorts() []*Out { return []*Out{b.out} }
