package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/token"
)

// Every block kind the compiler builds for the simulate-event shapes runs
// its own span; a kind that fell back to ticker would run Tick by Tick.
var (
	_ spanner = (*RootSource)(nil)
	_ spanner = (*Scanner)(nil)
	_ spanner = (*Repeater)(nil)
	_ spanner = (*Merger)(nil)
	_ spanner = (*ArrayLoad)(nil)
	_ spanner = (*ALU)(nil)
	_ spanner = (*ScalarReducer)(nil)
	_ spanner = (*Reducer)(nil)
	_ spanner = (*Dropper)(nil)
	_ spanner = (*CrdWriter)(nil)
	_ spanner = (*ValsWriter)(nil)
	_ spanner = (*Parallelizer)(nil)
	_ spanner = (*Serializer)(nil)
)

// rig is one block over queues of its own, on a clock of its own: its
// inputs preloaded with stamped streams, its outputs collecting what it
// pushes. state, when set, renders what the block keeps rather than pushes
// (a writer's arrays).
type rig struct {
	clk   *clock
	b     Block
	ins   []*Queue
	outs  []*Queue
	state func() string
}

// gen draws a rig's streams.
type gen struct {
	r   *rand.Rand
	clk *clock
	rig *rig
}

// stops draws the stop levels of a well-formed stream of the given depth
// (1 or more), one per innermost fiber: a fibertree level of that depth
// emits its fibers separated by S0, its groups of fibers by S1, and so on,
// and closes with S(depth-1).
func (g *gen) stops(depth int) []int {
	if depth == 1 {
		return []int{0}
	}
	var out []int
	for c := g.r.Intn(3) + 1; c > 0; c-- {
		child := g.stops(depth - 1)
		if c > 1 {
			child[len(child)-1] = depth - 2
		}
		out = append(out, child...)
	}
	out[len(out)-1] = depth - 1
	return out
}

// fill lays out a stream over stop levels: fiber i's data tokens from
// data(i), its stop, and a done.
func fill(stops []int, data func(i int) token.Stream) token.Stream {
	var s token.Stream
	for i, l := range stops {
		s = append(s, data(i)...)
		s = append(s, token.S(l))
	}
	return append(s, token.D())
}

// crds draws a fiber of up to four sorted coordinates below dim.
func (g *gen) crds(dim int) token.Stream {
	var cs []int64
	for range g.r.Intn(5) {
		cs = append(cs, g.r.Int63n(int64(dim)))
	}
	slices.Sort(cs)
	cs = slices.Compact(cs)
	s := make(token.Stream, len(cs))
	for i, c := range cs {
		s[i] = token.C(c)
	}
	return s
}

// vals draws n value tokens: small integers, zeros and empties.
func (g *gen) vals(n int) token.Stream {
	s := make(token.Stream, n)
	for i := range s {
		switch g.r.Intn(6) {
		case 0:
			s[i] = token.N()
		case 1:
			s[i] = token.V(0)
		default:
			s[i] = token.V(float64(g.r.Intn(9) + 1))
		}
	}
	return s
}

// junk is a token drawn from every kind, for malformed streams. It holds no
// value token: a reference input indexes storage by what it reads, and a
// value's payload is no index (a value stream holds values anyway).
func (g *gen) junk() token.Tok {
	switch g.r.Intn(5) {
	case 0:
		return token.N()
	case 1:
		return token.D()
	case 2:
		return token.S(g.r.Intn(3))
	}
	return token.C(g.r.Int63n(6))
}

// mutate malforms s a third of the time: a token replaced, dropped or
// inserted.
func (g *gen) mutate(s token.Stream) token.Stream {
	if g.r.Intn(3) != 0 {
		return s
	}
	s = slices.Clone(s)
	i := g.r.Intn(len(s) + 1)
	switch g.r.Intn(3) {
	case 0:
		if i < len(s) {
			s[i] = g.junk()
		}
	case 1:
		if i < len(s) {
			s = slices.Delete(s, i, i+1)
		}
	default:
		s = slices.Insert(s, i, g.junk())
	}
	return s
}

// in returns an input queue holding s, each token stamped a random 0 to 2
// cycles after the one before it.
func (g *gen) in(s token.Stream) *Queue {
	q := &Queue{Label: "in", clk: g.clk}
	at := uint32(g.r.Intn(3))
	for _, t := range s {
		if q.tail&chunkMask == 0 {
			q.link()
		}
		q.last.toks[q.tail&chunkMask].put(t, at)
		q.tail++
		at += uint32(g.r.Intn(3))
	}
	g.rig.ins = append(g.rig.ins, q)
	return q
}

// out returns an output port over a fresh queue.
func (g *gen) out() *Out {
	q := &Queue{Label: "out", clk: g.clk}
	g.rig.outs = append(g.rig.outs, q)
	return &Out{qs: []*Queue{q}, free: true, clk: g.clk}
}

func (g *gen) outs(n int) []*Out {
	os := make([]*Out, n)
	for i := range os {
		os[i] = g.out()
	}
	return os
}

// level draws a compressed level of fibers fibers over coordinates below
// dim.
func (g *gen) level(fibers, dim int) *fiber.CompressedLevel {
	l := &fiber.CompressedLevel{N: dim, Seg: []int32{0}}
	for range fibers {
		for _, t := range g.crds(dim) {
			l.Crd = append(l.Crd, int32(t.N))
		}
		l.Seg = append(l.Seg, int32(len(l.Crd)))
	}
	return l
}

// refs draws a stream of depth-d references below n, malformed or not.
func (g *gen) refs(depth, n int) token.Stream {
	return g.mutate(fill(g.stops(depth), func(int) token.Stream {
		s := make(token.Stream, g.r.Intn(4))
		for i := range s {
			s[i] = token.C(g.r.Int63n(int64(n)))
		}
		return s
	}))
}

// crdPair draws aligned coordinate and reference streams of one depth over
// the stop levels stops, each malformed or not.
func (g *gen) crdPair(stops []int, dim int) (crd, ref token.Stream) {
	var fibers []token.Stream
	crd = fill(stops, func(int) token.Stream {
		f := g.crds(dim)
		fibers = append(fibers, f)
		return f
	})
	ref = fill(stops, func(i int) token.Stream {
		s := make(token.Stream, len(fibers[i]))
		for j := range s {
			s[j] = token.C(g.r.Int63n(8))
		}
		return s
	})
	return g.mutate(crd), g.mutate(ref)
}

// forked runs a parallelizer over s to completion and returns its lane
// streams, for a join to read.
func forked(s token.Stream, lanes, level int) []token.Stream {
	n := &Net{}
	in := n.NewQueue("in")
	in.Preload(s)
	qs := make([]*Queue, lanes)
	outs := make([]*Out, lanes)
	for i := range qs {
		qs[i] = n.NewQueue("lane")
		outs[i] = NewOut(qs[i])
	}
	n.Add(NewParallelizer("par", level, in, outs))
	n.Run(10_000)
	out := make([]token.Stream, lanes)
	for i, q := range qs {
		out[i] = q.Drain()
	}
	return out
}

// spanned lists a rig maker for every kind that has a span of its own.
var spanned = map[string]func(g *gen) Block{
	"RootSource": func(g *gen) Block {
		s := g.mutate(g.refs(1, 4))
		return &RootSource{basic: basic{name: "b"}, out: g.out(), stream: s[:g.r.Intn(len(s)+1)]}
	},
	"Scanner": func(g *gen) Block {
		var lvl fiber.Level = g.level(6, 10)
		if g.r.Intn(3) == 0 {
			lvl = &fiber.DenseLevel{N: 3, Fibers: 6}
		}
		s := g.refs(g.r.Intn(2)+1, 4)
		if g.r.Intn(4) == 0 {
			s = slices.Insert(s, g.r.Intn(len(s)), token.N())
		}
		// A reference past the level's 6 fibers, or a value token, on the
		// reference input fails the block.
		if g.r.Intn(5) == 0 {
			s = slices.Insert(s, g.r.Intn(len(s)), token.C(6+g.r.Int63n(2)))
		}
		if g.r.Intn(5) == 0 {
			s = slices.Insert(s, g.r.Intn(len(s)), token.V(1.5))
		}
		return NewScanner("b", lvl, g.in(s), g.out(), g.out())
	},
	"Repeater": func(g *gen) Block {
		depth := g.r.Intn(2) + 1
		stops := g.stops(depth)
		crd := g.mutate(fill(stops, func(int) token.Stream { return g.crds(6) }))
		var ref token.Stream
		for _, l := range stops {
			ref = append(ref, token.C(g.r.Int63n(8)))
			if l > 0 {
				ref = append(ref, token.S(l-1))
			}
		}
		ref = g.mutate(append(ref, token.D()))
		return NewRepeater("b", g.in(crd), g.in(ref), g.out())
	},
	"Merger": func(g *gen) Block {
		m := g.r.Intn(2) + 2
		stops := g.stops(g.r.Intn(2) + 1)
		crds, refs := make([]*Queue, m), make([]*Queue, m)
		for i := range crds {
			c, r := g.crdPair(stops, 8)
			crds[i], refs[i] = g.in(c), g.in(r)
		}
		return NewMerger("b", g.r.Intn(2) == 0, crds, refs, g.out(), g.outs(m))
	},
	"ArrayLoad": func(g *gen) Block {
		s := g.refs(g.r.Intn(2)+1, 6)
		if g.r.Intn(3) == 0 {
			s = slices.Insert(s, g.r.Intn(len(s)), token.N())
		}
		return NewArrayLoad("b", []float64{1, 2, 3, 4, 5}, g.in(s), g.out())
	},
	"ALU": func(g *gen) Block {
		stops := g.stops(g.r.Intn(2) + 1)
		var a, b token.Stream
		a = fill(stops, func(int) token.Stream {
			n := g.r.Intn(4)
			b = append(b, g.vals(n)...)
			return g.vals(n)
		})
		// b's data went in first; lay its stops out as a's.
		var bs token.Stream
		k := 0
		for _, t := range a {
			if t.IsVal() || t.IsEmpty() {
				bs = append(bs, b[k])
				k++
			} else {
				bs = append(bs, t)
			}
		}
		return NewALU("b", ALUOp(g.r.Intn(5)), g.in(g.mutate(a)), g.in(g.mutate(bs)), g.out())
	},
	"ScalarReducer": func(g *gen) Block {
		s := g.mutate(fill(g.stops(g.r.Intn(3)+1), func(int) token.Stream { return g.vals(g.r.Intn(4)) }))
		return NewScalarReducer("b", g.in(s), g.out())
	},
	"Reducer": func(g *gen) Block {
		n := g.r.Intn(2) + 1
		stops := g.stops(n + g.r.Intn(2) + 1)
		var counts []int
		inner := fill(stops, func(int) token.Stream {
			f := g.crds(6)
			counts = append(counts, len(f))
			return f
		})
		val := fill(stops, func(i int) token.Stream { return g.vals(counts[i]) })
		crds := []*Queue{}
		if n == 2 {
			// The outer stream: a coordinate per group of inner fibers.
			var outer token.Stream
			for _, l := range stops {
				outer = append(outer, token.C(g.r.Int63n(4)))
				if l > 0 {
					outer = append(outer, token.S(l-1))
				}
			}
			crds = append(crds, g.in(g.mutate(append(outer, token.D()))))
		}
		crds = append(crds, g.in(g.mutate(inner)))
		return NewReducer("b", n, crds, g.in(g.mutate(val)), g.outs(n), g.out())
	},
	"Dropper": func(g *gen) Block {
		mode := []graph.DropMode{graph.DropCrd, graph.DropVal, graph.DropOrphan}[g.r.Intn(3)]
		stops := g.stops(g.r.Intn(2) + 1)
		var fibers []token.Stream
		outer := fill(stops, func(int) token.Stream {
			f := g.crds(6)
			fibers = append(fibers, f)
			return f
		})
		var inner token.Stream
		if mode == graph.DropCrd {
			for i, f := range fibers {
				for j := range f {
					inner = append(inner, g.crds(4)...)
					if j < len(f)-1 {
						inner = append(inner, token.S(0))
					}
				}
				inner = append(inner, token.S(stops[i]+1))
			}
			inner = append(inner, token.D())
		} else {
			inner = fill(stops, func(i int) token.Stream { return g.vals(len(fibers[i])) })
		}
		return NewDropper("b", mode, g.in(g.mutate(outer)), g.in(g.mutate(inner)), g.out(), g.out())
	},
	"CrdWriter": func(g *gen) Block {
		s := g.mutate(fill(g.stops(g.r.Intn(2)+1), func(int) token.Stream { return g.crds(6) }))
		w := NewCrdWriter("b", fiber.Compressed, 6, 1, g.in(s))
		g.rig.state = func() string { return fmt.Sprint(w.seg, w.crd) }
		return w
	},
	"ValsWriter": func(g *gen) Block {
		s := g.mutate(fill(g.stops(g.r.Intn(2)+1), func(int) token.Stream { return g.vals(g.r.Intn(4)) }))
		w := NewValsWriter("b", g.in(s))
		g.rig.state = func() string { return fmt.Sprint(w.vals) }
		return w
	},
	"Parallelizer": func(g *gen) Block {
		s := g.mutate(fill(g.stops(g.r.Intn(3)+1), func(int) token.Stream { return g.crds(6) }))
		return NewParallelizer("b", g.r.Intn(3)-1, g.in(s), g.outs(g.r.Intn(3)+2))
	},
	"Serializer": func(g *gen) Block {
		lanes, level := g.r.Intn(3)+2, g.r.Intn(2)-1
		depth := level + 2
		stops := g.stops(depth)
		var counts []int
		src := fill(stops, func(int) token.Stream {
			f := g.crds(6)
			counts = append(counts, len(f))
			return f
		})
		var ins, vals, drv []*Queue
		for _, s := range forked(src, lanes, level) {
			ins = append(ins, g.in(g.mutate(s)))
		}
		var outVal *Out
		if g.r.Intn(2) == 0 {
			val := fill(stops, func(i int) token.Stream { return g.vals(counts[i]) })
			for _, s := range forked(val, lanes, level) {
				vals = append(vals, g.in(g.mutate(s)))
			}
			outVal = g.out()
		}
		if level >= 0 {
			// One outer coordinate per fiber of the source's inner level.
			var outer token.Stream
			for _, l := range stops {
				outer = append(outer, token.C(g.r.Int63n(6)))
				if l > 0 {
					outer = append(outer, token.S(l-1))
				}
			}
			for _, s := range forked(append(outer, token.D()), lanes, -1) {
				drv = append(drv, g.in(g.mutate(s)))
			}
		}
		out := g.out()
		b, err := NewSerializer("b", level, ins, vals, drv, out, outVal)
		if err != nil {
			panic(err)
		}
		return b
	},
}

// newRig builds kind's rig from seed.
func newRig(build func(g *gen) Block, seed int64) *rig {
	g := &gen{r: rand.New(rand.NewSource(seed)), clk: new(clock), rig: &rig{}}
	g.rig.clk = g.clk
	g.rig.b = build(g)
	return g.rig
}

// outcome is what a run of a rig leaves: where it stopped, one past its
// last cycle of progress, every token pushed with its stamp, every input's
// head, the block's kept state, Done and the error text.
type outcome struct {
	stop, prog uint32
	pushed     [][]slot
	heads      []int
	state      string
	done       bool
	err        string
}

func (rg *rig) outcome(stop, prog uint32) outcome {
	o := outcome{stop: stop, prog: prog, done: rg.b.Done()}
	for _, q := range rg.outs {
		var s []slot
		for c, i := q.first, q.head; i < q.tail; i++ {
			s = append(s, c.toks[i&chunkMask])
			if i&chunkMask == chunkMask {
				c = c.next
			}
		}
		o.pushed = append(o.pushed, s)
	}
	for _, q := range rg.ins {
		o.heads = append(o.heads, q.head)
	}
	if rg.state != nil {
		o.state = rg.state()
	}
	if err := rg.b.Err(); err != nil {
		o.err = err.Error()
	}
	return o
}

// TestSpanMatchesTicks holds every spanned kind's span to its Tick: one
// span call from a random cycle up to a random end must leave what ticking
// the block one cycle at a time over the same cycles leaves — the same
// tokens pushed with the same stamps, the same input heads, Done, and the
// same error at the same cycle — on random streams, malformed ones
// included, whose tokens turn visible at random cycles.
func TestSpanMatchesTicks(t *testing.T) {
	for kind, build := range spanned {
		t.Run(kind, func(t *testing.T) {
			for seed := range int64(400) {
				r := rand.New(rand.NewSource(-seed))
				start := uint32(r.Intn(4))
				end := start + uint32(r.Intn(120)) + 1

				rg := newRig(build, seed)
				want := func() outcome {
					var prog uint32
					for c := start; c < end; c++ {
						rg.clk.now = c
						if rg.b.Tick() {
							prog = c + 1
							if rg.b.Done() {
								return rg.outcome(c+1, prog)
							}
						} else if rg.b.Done() {
							return rg.outcome(c, prog)
						}
					}
					return rg.outcome(end, prog)
				}()

				rg = newRig(build, seed)
				rg.clk.now = start
				got := rg.outcome(rg.b.(spanner).span(end))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, cycles [%d, %d):\nspan  %+v\nticks %+v", seed, start, end, got, want)
				}
			}
		})
	}
}

// ticked lists a rig maker for every kind without a span of its own.
var ticked = map[string]func(g *gen) Block{
	"BVScanner": func(g *gen) Block {
		lvl := fiber.NewBitvectorLevel(70, []uint64{0b1011, 1 << 3, 0, 1<<63 | 5, 7, 0, 1, 2, 0, 0, 9, 1})
		return NewBVScanner("b", lvl, g.in(g.refs(g.r.Intn(2)+1, 4)), g.out(), g.out())
	},
	"BVIntersect": func(g *gen) Block {
		return NewBVIntersect("b", g.in(g.refs(1, 16)), g.in(g.refs(1, 4)), g.in(g.refs(1, 16)), g.in(g.refs(1, 4)),
			g.out(), g.out(), g.out(), g.out(), g.out())
	},
	"VecLoad": func(g *gen) Block {
		return NewVecLoad("b", make([]float64, 128), &VecArena{}, g.in(g.refs(1, 16)), g.in(g.refs(1, 16)), g.in(g.refs(1, 8)), g.out())
	},
	"VecALU": func(g *gen) Block {
		a := &VecArena{}
		for range 8 {
			a.Alloc([fiber.WordBits]float64{1, 2})
		}
		return NewVecALU("b", OpMul, a, g.in(g.refs(1, 8)), g.in(g.refs(1, 8)), g.out())
	},
	"BVExpand": func(g *gen) Block {
		return NewBVExpand("b", g.in(g.refs(1, 16)), g.in(g.refs(1, 16)), g.in(g.refs(1, 8)), g.out())
	},
	"BVWriter": func(g *gen) Block { return NewBVWriter("b", 64, g.in(g.refs(2, 16))) },
	"VecValsWriter": func(g *gen) Block {
		a := &VecArena{}
		for range 8 {
			a.Alloc([fiber.WordBits]float64{1, 2})
		}
		return NewVecValsWriter("b", a, g.in(g.refs(1, 16)), g.in(g.refs(1, 8)))
	},
	"GallopIntersect": func(g *gen) Block {
		return NewGallopIntersect("b", g.level(6, 20), g.level(6, 20), g.in(g.refs(2, 6)), g.in(g.refs(2, 6)), g.out(), g.out(), g.out())
	},
	"Locator": func(g *gen) Block {
		c, r := g.crdPair(g.stops(g.r.Intn(2)+1), 8)
		return NewLocator("b", g.level(6, 8), g.in(c), g.in(r), g.in(g.refs(1, 6)), g.out(), g.out(), g.out())
	},
}

// TestTickWithoutProgressChangesNothing holds every block kind to Block's
// contract: a tick that reports no progress and no error pops nothing,
// pushes nothing and leaves the block's value as it was, so a net in which
// no block progresses is frozen. Each kind is ticked cycle by cycle over
// random streams, malformed ones included, until it finishes or fails.
func TestTickWithoutProgressChangesNothing(t *testing.T) {
	kinds := map[string]func(g *gen) Block{}
	for k, b := range spanned {
		kinds[k] = b
	}
	for k, b := range ticked {
		kinds[k] = b
	}
	for kind, build := range kinds {
		t.Run(kind, func(t *testing.T) {
			for seed := range int64(200) {
				rg := newRig(build, seed)
				v := reflect.ValueOf(rg.b).Elem()
				for c := uint32(0); c < 200 && !rg.b.Done(); c++ {
					rg.clk.now = c
					before := reflect.New(v.Type()).Elem()
					before.Set(v)
					was := rg.outcome(0, 0)
					if rg.b.Tick() || rg.b.Err() != nil {
						continue
					}
					if now := rg.outcome(0, 0); !reflect.DeepEqual(now, was) {
						t.Fatalf("seed %d, cycle %d: a tick without progress moved the queues or the state:\n%+v\nwas %+v", seed, c, now, was)
					}
					if !reflect.DeepEqual(v.Interface(), before.Interface()) {
						t.Fatalf("seed %d, cycle %d: a tick without progress changed the block:\n%+v\nwas %+v", seed, c, v.Interface(), before.Interface())
					}
				}
			}
		})
	}
}
