package core

import (
	"fmt"
	"strings"
	"testing"

	"sam/internal/fiber"
	"sam/internal/token"
)

// recorded is a source block that emits a recorded stream, one token a cycle.
func recorded(name, stream string, out *Out) *RootSource {
	return &RootSource{basic: basic{name: name}, out: out, stream: token.MustParse(stream)}
}

// failingPair wires two intersecters that fail on their own at chosen
// cycles. Block 0, "A", sits downstream of a source, so it comes after block
// 1 in topological order: its coordinate input arrives one token a cycle from
// block 2 and meets a preloaded input whose token aFail (0-based) is N, which
// fails A at cycle aFail+1. Block 1, "B", merges two preloaded inputs that
// agree on bFail coordinates and then disagree on a stop level, which fails B
// at cycle bFail.
func failingPair(aFail, bFail int) func(*Net) {
	return func(n *Net) {
		crdA, refA := n.NewQueue("A crd0"), n.NewQueue("A ref0")
		crdA1, refA1 := n.NewQueue("A crd1"), n.NewQueue("A ref1")
		in1 := ""
		for i := 0; i < aFail; i++ {
			in1 += fmt.Sprintf("%d ", i)
		}
		crdA1.Preload(token.MustParse(in1 + "N S0 D"))
		refA1.Preload(token.MustParse(in1 + "0 S0 D"))
		refA.Preload(token.MustParse("0 1 2 3 4 5 6 S0 D"))
		a := NewMerger("A", false, []*Queue{crdA, crdA1}, []*Queue{refA, refA1}, NewOut(), []*Out{NewOut(), NewOut()})

		var crdB [2]string
		for i := 0; i < bFail; i++ {
			crdB[0] += fmt.Sprintf("%d ", i)
		}
		crdB[1] = crdB[0] + "S1 D"
		crdB[0] += "S0 D"
		var qs [4]*Queue
		for i := range qs {
			qs[i] = n.NewQueue(fmt.Sprintf("B in%d", i))
			qs[i].Preload(token.MustParse(crdB[i%2]))
		}
		b := NewMerger("B", false, qs[:2], qs[2:], NewOut(), []*Out{NewOut(), NewOut()})

		n.Add(a, b, recorded("src", "0 1 2 3 4 5 6 S0 D", NewOut(crdA)))
	}
}

// compressed builds a compressed level over dim from its fibers'
// coordinates.
func compressed(dim int, fibers ...[]int32) *fiber.CompressedLevel {
	l := &fiber.CompressedLevel{N: dim, Seg: []int32{0}}
	for _, f := range fibers {
		l.Crd = append(l.Crd, f...)
		l.Seg = append(l.Seg, int32(len(l.Crd)))
	}
	return l
}

// scanPair wires into n two scanners, over levels la and lc and fed the
// recorded reference streams refA and refC, and a two-way intersecter over
// them whose coordinates the sink it returns records; with pair set, the
// intersecter reads the scanners' runs (Merger.Pair). Every queue is bounded
// by capacity (0: unbounded), which a paired net must not be.
func scanPair(n *Net, refA, refC string, la, lc *fiber.CompressedLevel, capacity int, pair bool) *Sink {
	var crd, ref, in [2]*Queue
	for i, side := range []string{"a", "c"} {
		crd[i] = n.NewBoundedQueue(side+" crd", capacity)
		ref[i] = n.NewBoundedQueue(side+" ref", capacity)
		in[i] = n.NewBoundedQueue(side+" in", capacity)
	}
	sa := NewScanner("scan a", la, in[0], NewOut(crd[0]), NewOut(ref[0]))
	sc := NewScanner("scan c", lc, in[1], NewOut(crd[1]), NewOut(ref[1]))
	out := n.NewBoundedQueue("out", capacity)
	m := NewMerger("merge", false, crd[:], ref[:], NewOut(out), []*Out{NewOut(), NewOut()})
	if pair && !m.Pair(sa, sc) {
		panic("scanPair: the intersecter did not pair")
	}
	sink := NewSink("sink", out)
	n.Add(sink, m, sa, sc, recorded("a refs", refA, NewOut(in[0])), recorded("c refs", refC, NewOut(in[1])))
	return sink
}

// TestPairRefuses holds Merger.Pair to its rule: a two-way intersecter
// pairs with two compressed-level scanners whose ports drive its sides
// alone, over unbounded empty queues, and with nothing else.
func TestPairRefuses(t *testing.T) {
	type net struct {
		m      *Merger
		sa, sc *Scanner
	}
	build := func(union bool, lvl fiber.Level, capacity int) net {
		n := &Net{}
		var crd, ref [2]*Queue
		for i := range crd {
			crd[i], ref[i] = n.NewBoundedQueue("crd", capacity), n.NewBoundedQueue("ref", capacity)
		}
		return net{
			m:  NewMerger("m", union, crd[:], ref[:], NewOut(), []*Out{NewOut(), NewOut()}),
			sa: NewScanner("a", lvl, NewQueue("in"), NewOut(crd[0]), NewOut(ref[0])),
			sc: NewScanner("c", compressed(4, []int32{1}), NewQueue("in"), NewOut(crd[1]), NewOut(ref[1])),
		}
	}
	lvl := compressed(4, []int32{0, 2})
	for _, tc := range []struct {
		name  string
		net   net
		alter func(*net)
		want  bool
	}{
		{"compressed, unbounded", build(false, lvl, 0), nil, true},
		{"a unioner", build(true, lvl, 0), nil, false},
		{"a dense level", build(false, &fiber.DenseLevel{N: 4, Fibers: 1}, 0), nil, false},
		{"bounded queues", build(false, lvl, 2), nil, false},
		{"a forked coordinate stream", build(false, lvl, 0), func(x *net) { x.sa.outCrd.Attach(NewQueue("fork")) }, false},
		{"a queued token", build(false, lvl, 0), func(x *net) { x.m.inRef[1].Preload(token.MustParse("D")) }, false},
		{"sides swapped", build(false, lvl, 0), func(x *net) { x.sa, x.sc = x.sc, x.sa }, false},
	} {
		x := tc.net
		if tc.alter != nil {
			tc.alter(&x)
		}
		if got := x.m.Pair(x.sa, x.sc); got != tc.want {
			t.Errorf("%s: Pair = %v, want %v", tc.name, got, tc.want)
		}
		if !tc.want && (x.m.crd != nil || x.sa.runs != nil || x.sc.runs != nil) {
			t.Errorf("%s: a refused pairing changed the blocks", tc.name)
		}
	}
}

// scanErr is scanPair over two two-fiber levels, for a net that ends in an
// error.
func scanErr(refA, refC string, pair bool) func(*Net) {
	return func(n *Net) {
		la := compressed(10, []int32{1, 4, 7}, []int32{2, 3})
		lc := compressed(10, []int32{0, 4, 7, 9}, []int32{3})
		scanPair(n, refA, refC, la, lc, 0, pair)
	}
}

// TestRunMatchesNaiveErrors holds Run to RunNaive on unbounded nets that end
// in an error: the same cycle count and the same error text, pinned. A case
// with paired set also runs that net, its intersecter paired with its
// scanners, on both loops, to the same result.
func TestRunMatchesNaiveErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(*Net)
		paired func(*Net)
		limit  int
		cycles int
		err    string
	}{
		{
			name:  "paired scanner handed a reference outside its level",
			build: scanErr("0 1 2 S0 D", "0 1 1 S0 D", false), paired: scanErr("0 1 2 S0 D", "0 1 1 S0 D", true),
			limit: 1000, cycles: 8, err: "scan a: fiber reference 2 outside level of 2 fibers",
		},
		{
			// The a side closes its second fiber with S1 (its input's S0
			// raised a level), the c side with S0.
			name:  "paired intersecter on misaligned stop levels",
			build: scanErr("0 1 S0 D", "0 1 D", false), paired: scanErr("0 1 S0 D", "0 1 D", true),
			limit: 1000, cycles: 10, err: "merge: misaligned stop levels S1 vs S0",
		},
		{
			name:  "paired intersecter with one side done early",
			build: scanErr("0 D", "0 1 D", false), paired: scanErr("0 D", "0 1 D", true),
			limit: 1000, cycles: 8, err: "merge: done token while other inputs still streaming",
		},
		{
			// The second input's stream never ends: the intersecter waits on
			// it forever once the first has delivered its done token.
			name: "merger missing a done",
			build: func(n *Net) {
				c0, r0 := n.NewQueue("c0"), n.NewQueue("r0")
				c1, r1 := n.NewQueue("c1"), n.NewQueue("r1")
				c1.Preload(token.MustParse("1 S0"))
				r1.Preload(token.MustParse("0 S0"))
				out := n.NewQueue("out")
				n.Add(
					NewSink("sink", out),
					NewMerger("merge", false, []*Queue{c0, c1}, []*Queue{r0, r1}, NewOut(out), []*Out{NewOut(), NewOut()}),
					recorded("crd", "0 1 S0 D", NewOut(c0)),
					recorded("ref", "0 1 S0 D", NewOut(r0)),
				)
			},
			limit: 1000, cycles: 6,
			err: "core: deadlock after 6 cycles; unfinished: sink, merge",
		},
		{name: "downstream lower index fails first", build: failingPair(1, 4), limit: 1000, cycles: 2,
			err: "A: unexpected token N on coordinate input"},
		{name: "upstream fails first", build: failingPair(3, 1), limit: 1000, cycles: 1,
			err: "B: misaligned stop levels S0 vs S1"},
		{name: "same cycle, lower index wins", build: failingPair(2, 3), limit: 1000, cycles: 3,
			err: "A: unexpected token N on coordinate input"},
		{
			name: "cycle limit mid-run",
			build: func(n *Net) {
				q := n.NewQueue("q")
				n.Add(recorded("src", "0 1 2 3 4 5 6 7 S0 D", NewOut(q)), NewSink("sink", q))
			},
			limit: 5, cycles: 5,
			err: "core: cycle limit 5 exceeded; unfinished: src, sink",
		},
		{
			// The run would end at cycle 11: one cycle short of it is still
			// a limit error, though the source is done.
			name: "cycle limit one short",
			build: func(n *Net) {
				q := n.NewQueue("q")
				n.Add(recorded("src", "0 1 2 3 4 5 6 7 S0 D", NewOut(q)), NewSink("sink", q))
			},
			limit: 10, cycles: 10,
			err: "core: cycle limit 10 exceeded; unfinished: sink",
		},
		{
			name: "cycle limit exactly met",
			build: func(n *Net) {
				q := n.NewQueue("q")
				n.Add(recorded("src", "0 1 2 3 4 5 6 7 S0 D", NewOut(q)), NewSink("sink", q))
			},
			limit: 11, cycles: 11,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			builds := []func(*Net){tc.build}
			if tc.paired != nil {
				builds = append(builds, tc.paired)
			}
			for k, build := range builds {
				for _, naive := range []bool{true, false} {
					n := &Net{}
					build(n)
					run := n.Run
					if naive {
						run = n.RunNaive
					}
					cycles, err := run(tc.limit)
					got := ""
					if err != nil {
						got = err.Error()
					}
					if cycles != tc.cycles || got != tc.err {
						t.Errorf("paired=%v naive=%v: %d cycles, error %q; want %d, %q", k == 1, naive, cycles, got, tc.cycles, tc.err)
					}
				}
			}
		})
	}
}

// mergeNet wires an intersecter over two recorded coordinate streams — the
// multiples of 2 and of 3 below 3000 — into a sink, so the run stalls the
// intersecter often and lasts many passes. capacity bounds every queue
// (0: unbounded).
func mergeNet(capacity int) (*Net, *Sink) {
	n := &Net{}
	var qs [5]*Queue
	for i := range qs {
		qs[i] = n.NewBoundedQueue(fmt.Sprintf("q%d", i), capacity)
	}
	stream := func(step int) string {
		s := ""
		for c := 0; c < 3000; c += step {
			s += fmt.Sprintf("%d ", c)
		}
		return s + "S0 D"
	}
	sink := NewSink("sink", qs[4])
	n.Add(
		recorded("a crd", stream(2), NewOut(qs[0])),
		recorded("a ref", stream(2), NewOut(qs[1])),
		recorded("b crd", stream(3), NewOut(qs[2])),
		recorded("b ref", stream(3), NewOut(qs[3])),
		NewMerger("merge", false, []*Queue{qs[0], qs[2]}, []*Queue{qs[1], qs[3]}, NewOut(qs[4]), []*Out{NewOut(), NewOut()}),
		sink,
	)
	return n, sink
}

// scanNet is scanPair over the multiples of 2 and of 3 below 3000, three
// fibers a side, so that a paired net's runs, hundreds of coordinates long,
// straddle the rebases.
func scanNet(capacity int, pair bool) (*Net, *Sink) {
	mult := func(step int32) *fiber.CompressedLevel {
		var f [3][]int32
		for c := int32(0); c < 3000; c += step {
			f[c/1000] = append(f[c/1000], c)
		}
		return compressed(3000, f[0], f[1], f[2])
	}
	n := &Net{}
	sink := scanPair(n, "0 1 2 S0 D", "0 1 2 S0 D", mult(2), mult(3), capacity, pair)
	return n, sink
}

// TestStampRebase runs nets whose stamp base moves every few cycles — as
// every net's does past 2^31 cycles, so that a 32-bit stamp never wraps —
// and holds them to the run that never rebases: the same cycle count, output
// and statistics on both loops, unbounded and bounded. The nets are an
// intersecter over recorded streams and one over two scanners, paired with
// them when unbounded: a run slot's stamp floors at the new base like any
// other, and the stamps of the coordinates behind it, which derive from it,
// must still come out as the token path's.
func TestStampRebase(t *testing.T) {
	type outcome struct {
		cycles int
		out    string
		stats  []StreamStats
	}
	nets := []struct {
		name  string
		build func(capacity int, pair bool) (*Net, *Sink)
	}{
		{"recorded", func(capacity int, _ bool) (*Net, *Sink) { return mergeNet(capacity) }},
		{"scanned", scanNet},
	}
	for _, nt := range nets {
		run := func(capacity, span int, naive, pair bool) outcome {
			n, sink := nt.build(capacity, pair)
			n.span = span
			r := n.Run
			if naive {
				r = n.RunNaive
			}
			cycles, err := r(1_000_000)
			if err != nil {
				t.Fatalf("%s cap %d span %d naive=%v: %v", nt.name, capacity, span, naive, err)
			}
			if span > 0 && n.base == 0 {
				t.Fatalf("%s cap %d span %d naive=%v: the stamp base never moved", nt.name, capacity, span, naive)
			}
			o := outcome{cycles: cycles, out: sink.Rec.String()}
			for _, q := range n.Queues {
				o.stats = append(o.stats, q.Stats)
			}
			return o
		}
		for _, capacity := range []int{0, 2} {
			want := run(capacity, 0, true, false)
			for _, span := range []int{0, 1, 7, 100, 600} {
				for _, naive := range []bool{true, false} {
					got := run(capacity, span, naive, capacity == 0)
					if got.cycles != want.cycles || got.out != want.out || fmt.Sprint(got.stats) != fmt.Sprint(want.stats) {
						t.Errorf("%s cap %d span %d naive=%v: %d cycles, stats %v; want %d, %v", nt.name, capacity, span, naive, got.cycles, got.stats, want.cycles, want.stats)
					}
				}
			}
		}
	}
}

// relay is one block of a ring: it forwards each coordinate C(k) it reads as
// C(k+1), and once k+1 reaches limit it sends D instead and finishes, as it
// does after forwarding a D. A seeding relay first emits C(0).
type relay struct {
	basic
	in    *Queue
	out   *Out
	seed  bool
	limit int64
}

// Tick implements Block.
func (b *relay) Tick() bool {
	if b.done || !b.out.CanPush() {
		return false
	}
	if b.seed {
		b.seed = false
		b.out.Push(token.C(0))
		return true
	}
	t, ok := b.in.Peek()
	if !ok {
		return false
	}
	b.in.PopPeeked()
	if t.IsDone() || t.N+1 >= b.limit {
		b.out.Push(token.D())
		b.done = true
	} else {
		b.out.Push(token.C(t.N + 1))
	}
	return true
}

// InQueues implements Block.
func (b *relay) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *relay) OutPorts() []*Out { return []*Out{b.out} }

// TestCyclicNetMatchesNaive runs two relays wired in a ring, so the blocks
// form a cycle and have no producer-before-consumer order: unbounded and at
// capacities 1 and 3, to completion, into the cycle limit, and without a
// seed, where neither relay can start. Run must give RunNaive's cycle count,
// error text and every queue's statistics.
func TestCyclicNetMatchesNaive(t *testing.T) {
	ring := func(capacity int, seed bool) *Net {
		n := &Net{}
		ab, ba := n.NewBoundedQueue("a->b", capacity), n.NewBoundedQueue("b->a", capacity)
		n.Add(
			&relay{basic: basic{name: "a"}, in: ba, out: NewOut(ab), seed: seed, limit: 50},
			&relay{basic: basic{name: "b"}, in: ab, out: NewOut(ba), limit: 50},
		)
		return n
	}
	for _, tc := range []struct {
		name   string
		seed   bool
		limit  int
		cycles int
		err    string
	}{
		{name: "ring completes", seed: true, limit: 1000, cycles: 52},
		{name: "ring hits the cycle limit", seed: true, limit: 20, cycles: 20,
			err: "core: cycle limit 20 exceeded; unfinished: a, b"},
		{name: "ring without a seed", limit: 1000, cycles: 1,
			err: "core: deadlock after 1 cycles; unfinished: a, b"},
	} {
		for _, capacity := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/cap%d", tc.name, capacity), func(t *testing.T) {
				var want []StreamStats
				for _, naive := range []bool{true, false} {
					n := ring(capacity, tc.seed)
					run := n.Run
					if naive {
						run = n.RunNaive
					}
					cycles, err := run(tc.limit)
					got := ""
					if err != nil {
						got = err.Error()
					}
					if cycles != tc.cycles || got != tc.err {
						t.Errorf("naive=%v: %d cycles, error %q; want %d, %q", naive, cycles, got, tc.cycles, tc.err)
					}
					var stats []StreamStats
					for _, q := range n.Queues {
						stats = append(stats, q.Stats)
					}
					if naive {
						want = stats
					} else if fmt.Sprint(stats) != fmt.Sprint(want) {
						t.Errorf("stats %v; RunNaive's %v", stats, want)
					}
				}
			})
		}
	}
}

// pacer forwards its input one token every `every` cycles, resting in
// between: a data token only if its coordinate is a multiple of keep, and
// every stop and the done, after which it finishes. It fails on reading the
// coordinate poison (-1: none). With every > 1 it is slower than the block
// feeding it, so that block's queue fills and the block lags it.
type pacer struct {
	basic
	in     *Queue
	out    *Out
	every  int
	keep   int64
	poison int64
	rest   int
}

// Tick implements Block.
func (b *pacer) Tick() bool {
	if b.done {
		return false
	}
	if b.rest > 0 {
		b.rest--
		return true
	}
	t, ok := b.in.Peek()
	if !ok {
		return false
	}
	if t.IsVal() && t.N == b.poison {
		return b.fail("poison %d", t.N)
	}
	b.in.PopPeeked()
	b.rest = b.every - 1
	if !t.IsVal() || t.N%b.keep == 0 {
		b.out.Push(t)
	}
	b.done = t.IsDone()
	return true
}

// InQueues implements Block.
func (b *pacer) InQueues() []*Queue { return []*Queue{b.in} }

// OutPorts implements Block.
func (b *pacer) OutPorts() []*Out { return []*Out{b.out} }

func newPacer(name string, in *Queue, out *Out, every int, keep, poison int64) *pacer {
	return &pacer{basic: basic{name: name}, in: in, out: out, every: every, keep: keep, poison: poison}
}

// counting is the stream C(0) … C(n-1), then the given control tokens.
func counting(n int, tail ...token.Tok) token.Stream {
	s := make(token.Stream, 0, n+len(tail))
	for i := range n {
		s = append(s, token.C(int64(i)))
	}
	return append(s, tail...)
}

// lagChain wires a source of n coordinates, a half-rate pacer and a
// full-rate one into a chain, so the source fills its queue and lags the
// pacer behind it.
func lagChain(n *Net, count int) {
	q1, q2 := n.NewQueue("src->half"), n.NewQueue("half->sink")
	n.Add(
		&RootSource{basic: basic{name: "src"}, out: NewOut(q1), stream: counting(count, token.S(0), token.D())},
		newPacer("half", q1, NewOut(q2), 2, 1, -1),
		newPacer("sink", q2, NewOut(), 1, 1, -1),
	)
}

// TestLagMatchesNaive runs nets whose producers lag their consumers in
// simulated time — a queue fills to the window bound, its producer pauses,
// its consumer runs ahead on what is queued — and holds Run to RunNaive on
// cycles, error text and every queue's statistics. A failed run's statistics
// are not compared: RunNaive stops mid-cycle, while blocks that ran past the
// failing cycle keep what they pushed there.
func TestLagMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		build  func(*Net)
		span   int
		limit  int
		cycles int
		err    string
		// peak, when set, is a bound on Net.PeakChunks: the lagging run
		// must hold fewer chunks at once.
		peak int
	}{
		{
			// A source fans out to a filter that keeps every 1000th
			// coordinate and to an intersecter that meets the filter's
			// output. The intersecter waits on coordinate 1000 while the
			// source's window on its own queue is full, and the filter
			// reaches 1000 only once the source runs on: no block advances
			// until a pass raises the bound, and a run that never raised it
			// would not end. Raised one window per stalled pass, it holds
			// 16 chunks at its peak; a pass with the bound off let the
			// source push all 3,002 tokens, 37 chunks.
			name: "reconvergent fan-out of unequal rates",
			build: func(n *Net) {
				q1, c2, r2 := n.NewQueue("src->filter"), n.NewQueue("src->merge crd"), n.NewQueue("src->merge ref")
				c3, r3, out := n.NewQueue("filter->merge crd"), n.NewQueue("filter->merge ref"), n.NewQueue("merge->sink")
				n.Add(
					NewSink("sink", out),
					NewMerger("merge", false, []*Queue{c2, c3}, []*Queue{r2, r3}, NewOut(out), []*Out{NewOut(), NewOut()}),
					newPacer("filter", q1, NewOut(c3, r3), 1, 1000, -1),
					&RootSource{basic: basic{name: "src"}, out: NewOut(q1, c2, r2), stream: counting(3000, token.S(0), token.D())},
				)
			},
			limit: 100_000, cycles: 4004, peak: 37,
		},
		{
			// The producer reaches its poison at cycle 1201 a pass after its
			// half-rate consumer, running ahead on the queue, failed on
			// coordinate 600 at cycle 1201 too: the lower index wins.
			name: "producer fails after its consumer, same cycle, producer first",
			build: func(n *Net) {
				in, q := n.NewQueue("in"), n.NewQueue("prod->cons")
				in.Preload(counting(1500, token.S(0), token.D()))
				n.Add(newPacer("prod", in, NewOut(q), 1, 1, 1201), newPacer("cons", q, NewOut(), 2, 1, 600))
			},
			limit: 100_000, cycles: 1201, err: "prod: poison 1201",
		},
		{
			name: "producer fails after its consumer, same cycle, consumer first",
			build: func(n *Net) {
				in, q := n.NewQueue("in"), n.NewQueue("prod->cons")
				in.Preload(counting(1500, token.S(0), token.D()))
				n.Add(newPacer("cons", q, NewOut(), 2, 1, 600), newPacer("prod", in, NewOut(q), 1, 1, 1201))
			},
			limit: 100_000, cycles: 1201, err: "cons: poison 600",
		},
		{
			// The consumer fails at cycle 1301 before the producer, in
			// the run's order, fails at cycle 1201.
			name: "producer fails after its consumer, earlier cycle",
			build: func(n *Net) {
				in, q := n.NewQueue("in"), n.NewQueue("prod->cons")
				in.Preload(counting(1500, token.S(0), token.D()))
				n.Add(newPacer("cons", q, NewOut(), 2, 1, 650), newPacer("prod", in, NewOut(q), 1, 1, 1201))
			},
			limit: 100_000, cycles: 1201, err: "prod: poison 1201",
		},
		{
			// The intersecter's second input ends after coordinate 999
			// with no stop or done: it waits forever while the chain
			// feeding its first input runs on, lagging, to its end.
			name: "deadlock while producers lag",
			build: func(n *Net) {
				lagChain(n, 3000)
				c2, r2 := n.NewQueue("half->merge crd"), n.NewQueue("half->merge ref")
				n.Blocks[1].(*pacer).out.Attach(c2)
				n.Blocks[1].(*pacer).out.Attach(r2)
				c3, r3 := n.NewQueue("pre crd"), n.NewQueue("pre ref")
				c3.Preload(counting(1000))
				r3.Preload(counting(1000))
				n.Add(NewMerger("merge", false, []*Queue{c2, c3}, []*Queue{r2, r3}, NewOut(), []*Out{NewOut(), NewOut()}))
			},
			limit: 100_000, cycles: 6006,
			err: "core: deadlock after 6006 cycles; unfinished: merge",
		},
		{
			name: "cycle limit while producers lag", build: func(n *Net) { lagChain(n, 3000) },
			limit: 1500, cycles: 1500,
			err: "core: cycle limit 1500 exceeded; unfinished: src, half, sink",
		},
		{name: "completes while producers lag", build: func(n *Net) { lagChain(n, 3000) }, limit: 100_000, cycles: 6005},
		{name: "rebase every cycle under lag", build: func(n *Net) { lagChain(n, 3000) }, span: 1, limit: 100_000, cycles: 6005},
		{name: "rebase every 7 cycles under lag", build: func(n *Net) { lagChain(n, 3000) }, span: 7, limit: 100_000, cycles: 6005},
		{name: "rebase every 600 cycles under lag", build: func(n *Net) { lagChain(n, 3000) }, span: 600, limit: 100_000, cycles: 6005},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []StreamStats
			for _, naive := range []bool{true, false} {
				n := &Net{}
				tc.build(n)
				n.span = tc.span
				run := n.Run
				if naive {
					run = n.RunNaive
				}
				cycles, err := run(tc.limit)
				got := ""
				if err != nil {
					got = err.Error()
				}
				if cycles != tc.cycles || got != tc.err {
					t.Errorf("naive=%v: %d cycles, error %q; want %d, %q", naive, cycles, got, tc.cycles, tc.err)
				}
				if tc.span > 0 && n.base == 0 {
					t.Errorf("naive=%v: the stamp base never moved", naive)
				}
				if !naive && tc.peak > 0 && n.PeakChunks >= tc.peak {
					t.Errorf("peak %d chunks, want fewer than %d", n.PeakChunks, tc.peak)
				}
				var stats []StreamStats
				for _, q := range n.Queues {
					stats = append(stats, q.Stats)
				}
				if naive {
					want = stats
				} else if !strings.Contains(got, "poison") && fmt.Sprint(stats) != fmt.Sprint(want) {
					t.Errorf("stats %v; RunNaive's %v", stats, want)
				}
			}
		})
	}
}
