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

// Tick implements Block.
func (b *RootSource) Tick() bool {
	if b.done || b.pos >= len(b.stream) {
		b.done = true
		return false
	}
	if !b.out.CanPush() {
		return false
	}
	t := b.stream[b.pos]
	b.out.Push(t)
	b.pos++
	if t.IsDone() {
		b.done = true
	}
	return true
}

// Sink consumes and records a stream; tests use it to capture block outputs
// and the engine uses it for unconnected diagnostic ports.
type Sink struct {
	basic
	in  *Queue
	Rec token.Stream
}

// NewSink builds a recording sink on the queue.
func NewSink(name string, in *Queue) *Sink {
	return &Sink{basic: basic{name: name}, in: in}
}

// Tick implements Block.
func (b *Sink) Tick() bool {
	if b.done {
		return false
	}
	t, ok := b.in.Pop()
	if !ok {
		return false
	}
	b.Rec = append(b.Rec, t)
	if t.IsDone() {
		b.done = true
	}
	return true
}

// InQueues implements Ported.
func (b *RootSource) InQueues() []*Queue { return nil }

// OutPorts implements Ported.
func (b *RootSource) OutPorts() []*Out { return []*Out{b.out} }

// InQueues implements Ported.
func (b *Sink) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Ported.
func (b *Sink) OutPorts() []*Out { return nil }
