package core

import "sam/internal/token"

// Test support: free-standing queues, preloaded and drained by hand, and a
// block that records a stream. The engines build their queues through
// Net.NewQueue and leave an unconnected output port on an empty Out, which
// drops what it is pushed.

// NewQueue returns an unbounded queue on a clock of its own, at cycle 0 until
// a net runs it.
func NewQueue(label string) *Queue { return &Queue{Label: label, clk: new(clock)} }

// Preload fills the queue with an entire recorded stream, visible from the
// first cycle on.
func (q *Queue) Preload(s token.Stream) {
	for _, t := range s {
		if q.tail&chunkMask == 0 {
			q.link()
		}
		q.last.toks[q.tail&chunkMask].put(t, 0)
		q.tail++
	}
}

// Drain consumes and returns every visible token.
func (q *Queue) Drain() token.Stream {
	out := make(token.Stream, 0, q.tail-q.head)
	for {
		t, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Len is the number of visible (ready) tokens: the run of tokens from the
// head whose stamps the clock has reached.
func (q *Queue) Len() int {
	n, c := 0, q.first
	for i := q.head; i < q.tail && c.toks[i&chunkMask].at <= q.clk.now; i++ {
		n++
		if i&chunkMask == chunkMask {
			c = c.next
		}
	}
	return n
}

// Sink consumes and records a stream, to capture a block's output.
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

// InQueues implements Block.
func (b *Sink) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *Sink) OutPorts() []*Out { return nil }
