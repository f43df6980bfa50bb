// Package core implements the Sparse Abstract Machine's dataflow blocks as
// cycle-stepped state machines — the paper's primary contribution (Section 3
// and Section 4).
//
// Every block obeys the paper's fully-pipelined cost model: per cycle it
// consumes at most one token from each input port and emits at most one token
// on each output port. Blocks communicate through Queues; queues are
// two-phase (tokens pushed during cycle t become visible at t+1) so that
// simulated cycle counts do not depend on the order blocks are ticked in.
package core

import (
	"sync"

	"sam/internal/token"
)

// Queue is a FIFO stream buffer between two blocks. A zero capacity means
// unbounded (the paper's infinite input queue assumption); a positive
// capacity models finite hardware buffering with backpressure.
//
// Storage is a linked list of fixed-size token chunks. head/vis/tail are
// monotone token counters: token i is slot i&chunkMask of chunk i/chunkLen,
// first holds head, last holds tail-1; [head, vis) is visible, [vis, tail)
// staged. Push links a chunk when tail crosses a boundary and Pop returns the
// head chunk the moment its last token is consumed, so growth never copies or
// zeroes and a queue holds memory for its tokens in flight, not its high
// water. EndCycle publishes staged tokens by advancing vis — O(1).
//
// Chunks come from one pool shared by every queue, net, program and worker:
// what a drained stream returns is what the next growing one takes, and an
// idle process gives it all back (a sync.Pool empties over two GC cycles).
// One pool and one size need no tuning and no per-block code; pooling nets
// per program would need a Reset on ~25 block types and pin each idle
// program's high-water storage, and size-classed rings still copy on growth
// and hold twice the live tokens at high water.
type Queue struct {
	Label string
	Cap   int

	first, last *chunk // head's and tail's chunks; nil while none is held
	head        int    // next pop position
	vis         int    // visibility watermark (two-phase flip)
	tail        int    // next push position

	// Event-engine wiring, installed by the ready-set scheduler before a
	// run (see sched.go). consumer/producer hold the registered block index
	// plus one (zero means unregistered) so that the scheduler can wake the
	// consumer when staged tokens flip visible and the producer when a pop
	// frees space in a bounded queue.
	sched       *scheduler
	consumer    int
	producer    int
	wired       int32
	flipPending bool

	// Statistics for the Figure 14 stream-breakdown study. Idle is filled
	// in by the engine when the run ends (cycles minus pushed tokens); the
	// other counters accumulate as tokens are pushed.
	Stats StreamStats
}

// chunkLen is the tokens per storage chunk, a power of two: 6 KB, so pool
// traffic is one Get and Put per 256 tokens and a near-empty queue holds little.
const (
	chunkLen  = 256
	chunkMask = chunkLen - 1
)

// chunk is one link of a queue's storage; next is first so the collector
// scans one word. Recycled chunks are not zeroed: no slot past tail is read.
type chunk struct {
	next *chunk
	toks [chunkLen]token.Tok
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// StreamStats counts, per stream, the token-type breakdown used in the
// paper's Figure 14: data tokens, stop tokens, the done token, empty tokens,
// and idle cycles (cycles in which the wire carried nothing).
type StreamStats struct {
	Data  int64
	Stop  int64
	Empty int64
	Done  int64
	Idle  int64
}

// Total returns the number of cycles accounted for by the stream.
func (s StreamStats) Total() int64 { return s.Data + s.Stop + s.Empty + s.Done + s.Idle }

// pushed is the number of cycles in which the wire carried a token (at most
// one token is pushed per queue per cycle under the paper's cost model).
func (s StreamStats) pushed() int64 { return s.Data + s.Stop + s.Empty + s.Done }

// NewQueue returns an unbounded queue.
func NewQueue(label string) *Queue { return &Queue{Label: label} }

// Len is the number of visible (ready) tokens.
func (q *Queue) Len() int { return q.vis - q.head }

// StagedLen is the number of tokens pushed this cycle, not yet visible.
func (q *Queue) StagedLen() int { return q.tail - q.vis }

// Full reports whether a push would exceed the queue capacity.
func (q *Queue) Full() bool {
	return q.Cap > 0 && q.tail-q.head >= q.Cap
}

// put stores a token at tail, linking a chunk first on a chunk boundary.
func (q *Queue) put(t token.Tok) {
	if q.tail&chunkMask == 0 {
		q.link()
	}
	q.last.toks[q.tail&chunkMask] = t
	q.tail++
}

// link appends a chunk from the pool to the queue's storage.
func (q *Queue) link() {
	c := chunkPool.Get().(*chunk)
	if q.last == nil {
		q.first = c
	} else {
		q.last.next = c
	}
	q.last = c
}

// unlink returns the fully consumed head chunk to the pool. When it was also
// the tail chunk the queue holds nothing, and the next put links a fresh one.
func (q *Queue) unlink() {
	c := q.first
	q.first = c.next
	if q.first == nil {
		q.last = nil
	}
	c.next = nil
	chunkPool.Put(c)
}

// endRun is what both engines do to every queue when a run ends: fill in Idle
// (cycles the wire carried nothing: at most one push per queue per cycle, so
// cycles minus pushed tokens) and, if the queue is drained, return its partly
// used chunk and rewind it to its zero state. A queue still holding tokens (a
// test's output, a failed run) keeps them.
func (q *Queue) endRun(cycles int) {
	q.Stats.Idle = max(int64(cycles)-q.Stats.pushed(), 0)
	if q.head == q.tail && q.first != nil {
		q.unlink()
		q.head, q.vis, q.tail = 0, 0, 0
	}
}

// Push stages a token for visibility next cycle. The caller must have
// checked Full (blocks check all output ports before emitting anything).
func (q *Queue) Push(t token.Tok) {
	q.put(t)
	if q.sched != nil && !q.flipPending {
		q.flipPending = true
		q.sched.stage(q.wired)
	}
	switch t.Kind {
	case token.Val:
		q.Stats.Data++
	case token.Stop:
		q.Stats.Stop++
	case token.Empty:
		q.Stats.Empty++
	case token.Done:
		q.Stats.Done++
	}
}

// Peek returns the head token without consuming it.
func (q *Queue) Peek() (token.Tok, bool) {
	if q.head >= q.vis {
		return token.Tok{}, false
	}
	return q.first.toks[q.head&chunkMask], true
}

// Pop consumes and returns the head token.
func (q *Queue) Pop() (token.Tok, bool) {
	if q.head >= q.vis {
		return token.Tok{}, false
	}
	i := q.head & chunkMask
	t := q.first.toks[i]
	q.head++
	if i == chunkMask {
		q.unlink()
	}
	if q.Cap > 0 && q.sched != nil && q.producer > 0 {
		// A pop frees buffer space immediately, so a producer blocked on
		// backpressure may be able to emit again.
		q.sched.wake(q.producer - 1)
	}
	return t, true
}

// EndCycle makes staged tokens visible. The engine calls it between cycles
// on every queue that staged tokens.
func (q *Queue) EndCycle() {
	q.vis = q.tail
}

// Preload fills the queue with an entire recorded stream, immediately
// visible; used by tests and by source-less graph fragments.
func (q *Queue) Preload(s token.Stream) {
	for _, t := range s {
		q.put(t)
	}
	q.vis = q.tail
}

// Drain consumes and returns every visible token; used by tests.
func (q *Queue) Drain() token.Stream {
	out := make(token.Stream, 0, q.Len())
	for {
		t, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Out is an output port. A port may fan out to several queues (a forked
// wire); a push delivers the token to every queue, and the port can push
// only when no destination is full.
type Out struct {
	qs []*Queue
	// free is set by the event scheduler for the length of a run when no
	// destination is bounded, so CanPush need not walk them every tick.
	free bool
}

// NewOut builds an output port over destination queues.
func NewOut(qs ...*Queue) *Out { return &Out{qs: qs} }

// Attach adds a destination queue to the port.
func (o *Out) Attach(q *Queue) { o.qs = append(o.qs, q) }

// CanPush reports whether every destination has room.
func (o *Out) CanPush() bool {
	if o.free {
		return true
	}
	for _, q := range o.qs {
		if q.Full() {
			return false
		}
	}
	return true
}

// Push delivers a token to every destination queue.
func (o *Out) Push(t token.Tok) {
	for _, q := range o.qs {
		q.Push(t)
	}
}

// Queues exposes the destinations (used by the engine for bookkeeping).
func (o *Out) Queues() []*Queue { return o.qs }
