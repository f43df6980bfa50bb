// Package core implements the Sparse Abstract Machine's dataflow blocks as
// cycle-stepped state machines — the paper's primary contribution (Section 3
// and Section 4).
//
// Every block obeys the paper's fully-pipelined cost model: per cycle it
// consumes at most one token from each input port and emits at most one token
// on each output port. Blocks communicate through Queues; every token carries
// the cycle it becomes visible (its push cycle + 1), and a read compares that
// stamp against the reading block's cycle, so simulated cycle counts do not
// depend on the order blocks are ticked in — nor on how far one block runs
// ahead of another (see sched.go).
package core

import (
	"sync"

	"sam/internal/token"
)

// Queue is a FIFO stream buffer between two blocks. A zero capacity means
// unbounded (the paper's infinite input queue assumption); a positive
// capacity models finite hardware buffering with backpressure.
//
// Every slot carries the cycle its token becomes visible, stamped by Push as
// the queue clock's cycle + 1; Peek and Pop see the head only once the clock
// has reached its stamp. The clock is the running net's (Net.Run and RunNaive
// set it to the cycle of the block being ticked) or, for a queue no net has
// run, the queue's own. Tokens leave in push order, so a head not yet visible
// hides everything behind it.
//
// Storage is a linked list of fixed-size slot chunks. head/tail are monotone
// token counters: token i is slot i&chunkMask of chunk i/chunkLen, first
// holds head, last holds tail-1. Push links a chunk when tail crosses a
// boundary and Pop returns the head chunk the moment its last token is
// consumed, so growth never copies or zeroes and a queue holds memory for its
// tokens in flight, not its high water.
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
	tail        int    // next push position
	clk         *clock // the cycle reads and writes happen at

	// Scheduler wiring, installed by Net.Run (see sched.go): the consuming
	// and producing block's index plus one (zero: none), and, only when the
	// net runs one cycle at a time, the run a push or a bounded pop re-arms.
	run        *runner
	cons, prod int32

	// Statistics for the Figure 14 stream-breakdown study. Idle is filled
	// in by the engine when the run ends (cycles minus pushed tokens); the
	// other counters accumulate as tokens are pushed.
	Stats StreamStats
}

// clock is the cycle a net's queues read and write at, counted from the
// net's stamp base (see Net.rebase), so stamps stay 32 bits however long the
// run.
type clock struct{ now uint32 }

// slot is one queued token and its visibility stamp. The stamp sits in the
// padding after the kind, so a slot is as large as a token.Tok (24 bytes).
type slot struct {
	kind token.Kind
	at   uint32 // cycle (from the net's stamp base) the token becomes visible
	n    int64
	v    float64
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
	toks [chunkLen]slot
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

// pushed is the number of cycles in which the wire carried a token (at most
// one token is pushed per queue per cycle under the paper's cost model).
func (s StreamStats) pushed() int64 { return s.Data + s.Stop + s.Empty + s.Done }

// Full reports whether a push would exceed the queue capacity.
func (q *Queue) Full() bool {
	return q.Cap > 0 && q.tail-q.head >= q.Cap
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

// rebase moves every queued stamp delta cycles earlier, flooring at 0 (a
// token visible from the new base on), for a net whose stamp base advances
// by delta (see Net.rebase).
func (q *Queue) rebase(delta uint32) {
	c := q.first
	for i := q.head; i < q.tail; i++ {
		s := &c.toks[i&chunkMask]
		s.at -= min(s.at, delta)
		if i&chunkMask == chunkMask {
			c = c.next
		}
	}
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
		q.head, q.tail = 0, 0
	}
}

// Push appends a token that becomes visible next cycle. The caller must have
// checked Full (blocks check all output ports before emitting anything).
func (q *Queue) Push(t token.Tok) {
	if q.tail&chunkMask == 0 {
		q.link()
	}
	q.last.toks[q.tail&chunkMask] = slot{kind: t.Kind, at: q.clk.now + 1, n: t.N, v: t.V}
	q.tail++
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
	if q.run != nil {
		q.run.pushed(q.cons)
	}
}

// Peek returns the head token without consuming it, once it is visible.
func (q *Queue) Peek() (token.Tok, bool) {
	if q.head == q.tail {
		return token.Tok{}, false
	}
	s := &q.first.toks[q.head&chunkMask]
	if s.at > q.clk.now {
		return token.Tok{}, false
	}
	return token.Tok{Kind: s.kind, N: s.n, V: s.v}, true
}

// Pop consumes and returns the head token, once it is visible.
func (q *Queue) Pop() (token.Tok, bool) {
	if q.head == q.tail {
		return token.Tok{}, false
	}
	i := q.head & chunkMask
	s := &q.first.toks[i]
	if s.at > q.clk.now {
		return token.Tok{}, false
	}
	t := token.Tok{Kind: s.kind, N: s.n, V: s.v}
	q.head++
	if i == chunkMask {
		q.unlink()
	}
	if q.run != nil && q.Cap > 0 {
		// A pop frees buffer space immediately, so a producer blocked on
		// backpressure may be able to emit again.
		q.run.popped(q.prod)
	}
	return t, true
}

// Out is an output port. A port may fan out to several queues (a forked
// wire); a push delivers the token to every queue, and the port can push
// only when no destination is full.
type Out struct {
	qs []*Queue
	// free is resolved when a run starts (see newRunner): set when no
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
