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
	"math"
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

	// cons is the consuming block's index plus one (zero: none); Net.Run's
	// producer-before-consumer order is built from it.
	cons int32

	count [4]int64 // tokens pushed, by token.Kind

	// more is the tokens the queued run slots stand for beyond one each
	// (see pushRun): the queue holds tail-head+more tokens.
	more int

	// Statistics for the Figure 14 stream-breakdown study, filled in by the
	// engine when the run ends: the tokens pushed by kind, and Idle, the
	// cycles minus the pushed tokens.
	Stats StreamStats
}

// clock is the cycle a net's queues read and write at, counted from the
// net's stamp base (see Net.rebase), so stamps stay 32 bits however long the
// run. It also counts the storage chunks the net's queues hold, and the most
// they have held at once (see Net.PeakChunks).
type clock struct {
	now          uint32
	chunks, peak int
}

// slot is one queued token and its visibility stamp in 16 bytes: the kind,
// the stamp, and one 64-bit payload. Every token comes from token's
// constructors, so it holds either an N or, when Marked (a value token), a V:
// the payload is N, or V's bits with the marked bit set in kind.
type slot struct {
	kind uint8  // token.Kind, or'd with marked
	at   uint32 // cycle (from the net's stamp base) the token becomes visible
	x    uint64
}

// marked is the slot.kind bit of a value token: x holds V's bits, and N is
// the value marker.
const marked = 4

// run is the slot.kind bit of a run slot, which stands for a run of a
// compressed level's coordinates on a paired scanner's coordinate queue (see
// Merger.Pair): x is pos | end<<32, the run's positions in the level's Crd,
// and at is the stamp of its first coordinate, the j-th turning visible j
// cycles later. With runSep set, the fiber's separator S0 follows the run,
// one cycle after its last coordinate. Only the paired merger reads a run
// slot; Peek, front and tok never see one.
const (
	run    = 8
	runSep = 16
)

// runLen is the coordinates left in run slot s.
func (s *slot) runLen() int { return int(s.x>>32) - int(uint32(s.x)) }

// lastAt is the stamp of the last token s stands for: a run slot's last
// coordinate, or its folded separator.
func (s *slot) lastAt() uint32 {
	if s.kind&run == 0 {
		return s.at
	}
	n := uint32(s.runLen() - 1)
	if s.kind&runSep != 0 {
		n++
	}
	return s.at + n
}

// put fills s with t, visible at cycle at.
func (s *slot) put(t token.Tok, at uint32) {
	k, x := uint8(t.Kind), uint64(t.N)
	if t.Marked() {
		k, x = k|marked, math.Float64bits(t.V)
	}
	*s = slot{kind: k, at: at, x: x}
}

// tok is the token s holds.
func (s *slot) tok() token.Tok {
	if s.kind&marked != 0 {
		return token.V(math.Float64frombits(s.x))
	}
	return token.Tok{Kind: token.Kind(s.kind), N: int64(s.x)}
}

// chunkLen is the tokens per storage chunk, a power of two: 4 KB, so pool
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

// stats is the queue's statistics so far, Idle aside.
func (q *Queue) stats() StreamStats {
	return StreamStats{
		Data: q.count[token.Val], Stop: q.count[token.Stop],
		Empty: q.count[token.Empty], Done: q.count[token.Done],
	}
}

// Full reports whether a push would exceed the queue capacity.
func (q *Queue) Full() bool {
	return q.Cap > 0 && q.tail-q.head >= q.Cap
}

// link appends a chunk from the pool to the queue's storage.
func (q *Queue) link() {
	c := chunkPool.Get().(*chunk)
	if q.clk.chunks++; q.clk.chunks > q.clk.peak {
		q.clk.peak = q.clk.chunks
	}
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
	q.clk.chunks--
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
	s := q.stats()
	s.Idle = max(int64(cycles)-(s.Data+s.Stop+s.Empty+s.Done), 0)
	q.Stats = s
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
	q.last.toks[q.tail&chunkMask].put(t, q.clk.now+1)
	q.tail++
	q.count[t.Kind&3]++ // the kinds are 0 to 3: &3 drops the bounds check
}

// pushData appends the data tokens C(from[j]), or C(base+j) when from is
// nil, for j in [0, m), and then, when sep is set, the separator S0: the
// tokens a block emits one per cycle over cycles now … now+m-1 (now+m for
// the separator), so the j-th turns visible at now+1+j. It writes straight
// into the tail chunks, as m Pushes would.
func (q *Queue) pushData(now uint32, m int, from []int32, base int64, sep bool) {
	q.count[token.Val] += int64(m)
	for m > 0 {
		i := q.tail & chunkMask
		if i == 0 {
			q.link()
		}
		s := q.last.toks[i:min(i+m, chunkLen)]
		if from != nil {
			for j, c := range from[:len(s)] {
				s[j] = slot{kind: uint8(token.Val), at: now + 1 + uint32(j), x: uint64(int64(c))}
			}
			from = from[len(s):]
		} else {
			for j := range s {
				s[j] = slot{kind: uint8(token.Val), at: now + 1 + uint32(j), x: uint64(base + int64(j))}
			}
			base += int64(len(s))
		}
		now += uint32(len(s))
		q.tail += len(s)
		m -= len(s)
	}
	if sep {
		if q.tail&chunkMask == 0 {
			q.link()
		}
		q.last.toks[q.tail&chunkMask] = slot{kind: uint8(token.Stop), at: now + 1}
		q.tail++
		q.count[token.Stop]++
	}
}

// pushRun appends one run slot for the coordinates at positions pos … end-1
// of a compressed level, which a paired scanner emits one per cycle over
// cycles now … now+(end-pos)-1, and, when sep is set, the separator S0 after
// them: the tokens pushData would write, counted the same, in one slot.
func (q *Queue) pushRun(now uint32, pos, end int, sep bool) {
	if q.tail&chunkMask == 0 {
		q.link()
	}
	k, m := uint8(token.Val|run), end-pos
	if sep {
		k |= runSep
		q.count[token.Stop]++
		q.more++
	}
	q.last.toks[q.tail&chunkMask] = slot{kind: k, at: now + 1, x: uint64(pos) | uint64(end)<<32}
	q.tail++
	q.count[token.Val] += int64(m)
	q.more += m - 1
}

// advance consumes the first k coordinates of run slot s, the queue's
// visible head. A run with coordinates left keeps them in place, its
// position and stamp moved on; an exhausted run becomes its folded
// separator, stamped one cycle after its last coordinate, or else leaves the
// queue. Every field is read before the pop, which may hand the chunk to
// another net. k = 0 changes nothing.
func (q *Queue) advance(s *slot, k int) {
	if k == 0 {
		return
	}
	pos, end := uint64(uint32(s.x))+uint64(k), s.x>>32
	switch {
	case pos < end:
		s.x = pos | end<<32
		s.at += uint32(k)
		q.more -= k
	case s.kind&runSep != 0:
		*s = slot{kind: uint8(token.Stop), at: s.at + uint32(k)}
		q.more -= k
	default:
		q.more -= k - 1
		q.PopPeeked()
	}
}

// queued is the tokens the queue holds, each run slot counted as the tokens
// it stands for.
func (q *Queue) queued() int { return q.tail - q.head + q.more }

// Peek returns the head token without consuming it, once it is visible. It
// spells out front's body: through a call to front it would not inline.
func (q *Queue) Peek() (token.Tok, bool) {
	if q.head == q.tail {
		return token.Tok{}, false
	}
	s := &q.first.toks[q.head&chunkMask]
	if s.at > q.clk.now {
		return token.Tok{}, false
	}
	return s.tok(), true
}

// front returns the head slot once it is visible, else nil: Peek without
// decoding the token.
func (q *Queue) front() *slot {
	if q.head == q.tail {
		return nil
	}
	s := &q.first.toks[q.head&chunkMask]
	if s.at > q.clk.now {
		return nil
	}
	return s
}

// headSlot returns the head slot, visible or not, else nil: a span reads its
// stamp to jump to the cycle it turns visible.
func (q *Queue) headSlot() *slot {
	if q.head == q.tail {
		return nil
	}
	return &q.first.toks[q.head&chunkMask]
}

// Pop consumes and returns the head token, once it is visible.
func (q *Queue) Pop() (token.Tok, bool) {
	s := q.front()
	if s == nil {
		return token.Tok{}, false
	}
	t := s.tok()
	q.head++
	if q.head&chunkMask == 0 {
		q.unlink()
	}
	return t, true
}

// PopPeeked consumes the head token, which a Peek on this cycle has returned:
// Pop without the visibility check or the decode.
func (q *Queue) PopPeeked() {
	q.head++
	if q.head&chunkMask == 0 {
		q.unlink()
	}
}

// Out is an output port. A port may fan out to several queues (a forked
// wire); a push delivers the token to every queue, and the port can push
// only when no destination is full.
type Out struct {
	qs []*Queue
	// free and clk are resolved when a run starts (see newRunner): free is
	// set when no destination is bounded, so CanPush need not walk them
	// every tick, and clk is the net's clock, which a block without inputs
	// reads its cycle from.
	free bool
	clk  *clock
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

// pushData delivers a run of data tokens, and a separator after it when sep
// is set, to every destination queue (see Queue.pushData).
func (o *Out) pushData(now uint32, m int, from []int32, base int64, sep bool) {
	for _, q := range o.qs {
		q.pushData(now, m, from, base, sep)
	}
}
