package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"sam/internal/token"
)

// modelQueue is the reference the chunked Queue is held to: one growing
// slice of tokens, each with the cycle it becomes visible, a head index, and
// the queue's clock. The visible tokens are the run from the head whose stamps
// the clock has reached.
type modelQueue struct {
	q      *Queue
	toks   []token.Tok
	stamps []uint32
	head   int
	stats  StreamStats
	seq    *int64 // shared across queues so every token in a test is distinct
}

// next builds the test's next token. Queues hold only tokens token's
// constructors build (see slot), so it cycles through those.
func (m *modelQueue) next() token.Tok {
	*m.seq++
	switch n := *m.seq; n % 5 {
	case 0:
		return token.C(n)
	case 1:
		return token.V(float64(n) / 2)
	case 2:
		return token.S(int(n))
	case 3:
		return token.N()
	default:
		return token.D()
	}
}

func (m *modelQueue) full() bool { return m.q.Cap > 0 && len(m.toks)-m.head >= m.q.Cap }

// vis is the model's visibility watermark: the end of the visible run.
func (m *modelQueue) vis() int {
	v := m.head
	for v < len(m.toks) && m.stamps[v] <= m.q.clk.now {
		v++
	}
	return v
}

func (m *modelQueue) push() {
	t := m.next()
	m.q.Push(t)
	m.toks = append(m.toks, t)
	m.stamps = append(m.stamps, m.q.clk.now+1)
	switch t.Kind {
	case token.Val:
		m.stats.Data++
	case token.Stop:
		m.stats.Stop++
	case token.Empty:
		m.stats.Empty++
	case token.Done:
		m.stats.Done++
	}
}

// pushData pushes a run of n data tokens the way a scanner's span does, one
// per cycle from the clock's cycle on, as listed coordinates or, with seq,
// as consecutive references; the clock then stands at the run's last cycle.
func (m *modelQueue) pushData(n int, seq bool) {
	crd := make([]int32, n)
	for j := range crd {
		*m.seq++
		crd[j] = int32(*m.seq)
	}
	now := m.q.clk.now
	if seq {
		m.q.pushData(now, n, nil, int64(crd[0]))
	} else {
		m.q.pushData(now, n, crd, 0)
	}
	for j, c := range crd {
		m.toks = append(m.toks, token.C(int64(c)))
		m.stamps = append(m.stamps, now+1+uint32(j))
	}
	m.stats.Data += int64(n)
	m.q.clk.now += uint32(n - 1)
}

func (m *modelQueue) preload(n int) {
	s := make(token.Stream, n)
	for i := range s {
		s[i] = m.next()
		m.stamps = append(m.stamps, 0)
	}
	m.q.Preload(s)
	m.toks = append(m.toks, s...)
}

// advance moves the queue's clock to the next cycle, publishing every token
// pushed before it.
func (m *modelQueue) advance() { m.q.clk.now++ }

// pop pops both sides and compares; it reports whether a token came out.
func (m *modelQueue) pop() (bool, error) {
	vis := m.vis()
	if pt, pok := m.q.Peek(); pok != (m.head < vis) || (pok && pt != m.toks[m.head]) {
		return false, fmt.Errorf("Peek = %v, %v; model head %d vis %d", pt, pok, m.head, vis)
	}
	t, ok := m.q.Pop()
	if ok != (m.head < vis) {
		return false, fmt.Errorf("Pop ok = %v with model head %d vis %d", ok, m.head, vis)
	}
	if !ok {
		return false, nil
	}
	if t != m.toks[m.head] {
		return false, fmt.Errorf("Pop = %v, model has %v at %d", t, m.toks[m.head], m.head)
	}
	m.head++
	return true, nil
}

func (m *modelQueue) drain() error {
	got := m.q.Drain()
	vis := m.vis()
	want := m.toks[m.head:vis]
	if len(got) != len(want) {
		return fmt.Errorf("Drain returned %d tokens, model has %d visible", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("Drain[%d] = %v, model has %v", i, got[i], want[i])
		}
	}
	m.head = vis
	return nil
}

// check compares every observer with the model.
func (m *modelQueue) check() error {
	vis := m.vis()
	if got, want := m.q.Len(), vis-m.head; got != want {
		return fmt.Errorf("Len = %d, model %d", got, want)
	}
	if got, want := m.q.tail-m.q.head-m.q.Len(), len(m.toks)-vis; got != want {
		return fmt.Errorf("%d tokens not yet visible, model %d", got, want)
	}
	if got, want := m.q.Full(), m.full(); got != want {
		return fmt.Errorf("Full = %v, model %v", got, want)
	}
	if got := m.q.stats(); got != m.stats {
		return fmt.Errorf("stats = %+v, model %+v", got, m.stats)
	}
	return nil
}

// driveQueues runs seeded random interleavings of every queue operation over
// two queues sharing one goroutine (so a chunk one returns is the next the
// other links), steering each queue's occupancy up to a target around the
// chunk size and back to empty. A bounded queue cannot hold that many, so it
// streams that many through instead: its counters cross the same boundaries
// at an occupancy of at most Cap, emptying exactly on some of them.
func driveQueues(seed int64, capacity int) error {
	rng := rand.New(rand.NewSource(seed))
	var seq int64
	ms := [2]*modelQueue{}
	clk := new(clock) // one clock, as the queues of one net share it
	for i := range ms {
		ms[i] = &modelQueue{q: NewQueue(fmt.Sprintf("q%d", i)), seq: &seq}
		ms[i].q.Cap = capacity
		ms[i].q.clk = clk
	}
	targets := []int{chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 1, 3}
	fail := func(m *modelQueue, step int, op string, err error) error {
		return fmt.Errorf("seed %d cap %d %s step %d after %s: %w", seed, capacity, m.q.Label, step, op, err)
	}
	step := 0
	for _, target := range targets {
		for _, filling := range []bool{true, false} {
			// Fill until both queues reach the target, then empty until both
			// are drained; the minority operation keeps the interleaving
			// from being monotone.
			base := [2]int{len(ms[0].toks), len(ms[1].toks)}
			for {
				reached := true
				for i, m := range ms {
					occ := len(m.toks) - m.head
					if capacity > 0 {
						occ = len(m.toks) - base[i]
					}
					if filling && occ < target || !filling && len(m.toks) > m.head {
						reached = false
					}
				}
				if reached {
					break
				}
				step++
				m := ms[rng.Intn(2)]
				op, r := "", rng.Intn(100)
				var err error
				switch {
				case r < 8:
					op = "Advance"
					m.advance()
				case r < 10 && filling && capacity == 0:
					op = "Preload"
					m.preload(1 + rng.Intn(chunkLen/2))
				case r < 12 && filling && capacity == 0:
					op = "PushData"
					m.pushData(1+rng.Intn(chunkLen+chunkLen/2), r < 11)
				case r < 11 && !filling:
					op = "Drain"
					err = m.drain()
				case (r < 70) == filling:
					op = "Push"
					if !m.full() {
						m.push()
					}
				default:
					op = "Pop"
					var ok bool
					if ok, err = m.pop(); err == nil && !ok && !filling {
						m.advance() // nothing visible: publish so emptying ends
					}
				}
				if err == nil {
					err = m.check()
				}
				if err != nil {
					return fail(m, step, op, err)
				}
			}
		}
	}
	return nil
}

// TestSlotIs16Bytes pins the slot layout: the kind, the visibility stamp in
// the padding after it, and one 64-bit payload, two thirds of a token.Tok.
func TestSlotIs16Bytes(t *testing.T) {
	if s := unsafe.Sizeof(slot{}); s != 16 {
		t.Fatalf("slot is %d bytes, want 16", s)
	}
}

// TestSlotRoundTripsTokens pushes a token of every constructor through a
// queue, the value tokens whose bits a float compare would blur among them,
// and the bitvector word sharing the value marker's pattern, and checks each
// comes back bit for bit, through Pop and through Preload's encoding alike.
func TestSlotRoundTripsTokens(t *testing.T) {
	toks := token.Stream{
		token.C(0), token.C(7), token.C(math.MaxInt64),
		token.V(0), token.V(math.Copysign(0, -1)), token.V(2.5), token.V(math.Inf(-1)),
		token.V(math.NaN()), token.V(math.Float64frombits(0x7ff0_0000_0000_0001)),
		token.BV(0), token.BV(^uint64(0)), token.BV(3 << 62),
		token.S(0), token.S(3), token.N(), token.D(),
	}
	same := func(a, b token.Tok) bool {
		return a.Kind == b.Kind && a.N == b.N && math.Float64bits(a.V) == math.Float64bits(b.V)
	}
	pushed, preloaded := NewQueue("pushed"), NewQueue("preloaded")
	for _, tk := range toks {
		pushed.Push(tk)
	}
	preloaded.Preload(toks)
	pushed.clk.now++
	for _, q := range []*Queue{pushed, preloaded} {
		for i, want := range toks {
			if got, ok := q.Pop(); !ok || !same(got, want) {
				t.Errorf("%s: token %d came back as %#v, %v; pushed %#v", q.Label, i, got, ok, want)
			}
		}
	}
}

// TestQueueMatchesSliceModel holds the chunked queue to the slice model,
// unbounded and at capacities 1 and 8, across chunk boundaries.
func TestQueueMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			if err := driveQueues(seed, capacity); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestQueueSharedPoolConcurrent drives independent queues from several
// goroutines at once: the only shared state is the chunk pool. Run under
// -race -count=10.
func TestQueueSharedPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := int64(0); seed < 3; seed++ {
				if err := driveQueues(100*int64(g)+seed, []int{0, 8}[g%2]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestQueueDrainedOnBoundaryIsPushedAgain is the recycling edge: a queue that
// empties exactly on a chunk boundary has returned its last chunk, so its
// next push must link a new one rather than write into the chunk it gave
// away — which by then belongs to another queue.
func TestQueueDrainedOnBoundaryIsPushedAgain(t *testing.T) {
	for _, boundary := range []int{chunkLen, 2 * chunkLen} {
		var seq int64
		a := &modelQueue{q: NewQueue("a"), seq: &seq}
		b := &modelQueue{q: NewQueue("b"), seq: &seq}
		for i := 0; i < boundary; i++ {
			a.push()
		}
		a.advance()
		if err := a.drain(); err != nil {
			t.Fatal(err)
		}
		if a.q.first != nil || a.q.last != nil {
			t.Fatalf("boundary %d: drained queue still holds a chunk", boundary)
		}
		// b links next and, on the same P, receives a chunk a returned.
		for i := 0; i < chunkLen/2; i++ {
			b.push()
		}
		for i := 0; i < chunkLen+1; i++ {
			a.push()
		}
		if a.q.first == b.q.first || a.q.last == b.q.last {
			t.Fatalf("boundary %d: two queues share a chunk", boundary)
		}
		a.advance()
		b.advance()
		for _, m := range []*modelQueue{a, b} {
			if err := m.check(); err != nil {
				t.Fatalf("boundary %d %s: %v", boundary, m.q.Label, err)
			}
			if err := m.drain(); err != nil {
				t.Fatalf("boundary %d %s: %v", boundary, m.q.Label, err)
			}
		}
	}
}

// TestQueueReleaseAfterRun checks the engines' end-of-run release: a drained
// queue gives its partly used chunk back and is reusable from its zero state;
// a queue still holding tokens keeps them.
func TestQueueReleaseAfterRun(t *testing.T) {
	for _, naive := range []bool{false, true} {
		n := &Net{}
		in, out := n.NewQueue("in"), n.NewQueue("out")
		in.Preload(token.Stream{token.C(1), token.C(2), token.S(0), token.D()})
		n.Add(NewArrayLoad("load", []float64{0, 10, 20}, in, NewOut(out)))
		var err error
		if naive {
			_, err = n.RunNaive(100)
		} else {
			_, err = n.Run(100)
		}
		if err != nil {
			t.Fatal(err)
		}
		if in.first != nil || in.Len() != 0 || in.tail != 0 {
			t.Errorf("naive=%v: drained input queue not released: first %p tail %d", naive, in.first, in.tail)
		}
		want := token.Stream{token.V(10), token.V(20), token.S(0), token.D()}
		if got := out.Drain(); got.String() != want.String() {
			t.Errorf("naive=%v: output stream %s across release, want %s", naive, got, want)
		}
		in.Push(token.C(7))
		n.clk.now++
		if tk, ok := in.Pop(); !ok || tk != token.C(7) {
			t.Errorf("naive=%v: released queue not reusable: %v %v", naive, tk, ok)
		}
	}
}
