// Package sim executes SAM dataflow graphs on the cycle-approximate engine.
//
// It reproduces the paper's simulator model (Section 6): graphs are fully
// pipelined (every primitive produces at most one token per port per cycle),
// input queues are unbounded by default, memory reads take one cycle, and
// memories are pre-initialized. The engine binds input tensors to the
// graph's operands (permuting mode orders and building the per-level storage
// the formats request), runs the net to completion, gathers per-stream token
// statistics, and assembles the output tensor from the level writers.
//
// There are three engines: the default event engine, which ticks each block
// a window of cycles at a time on its own clock, the naive tick-all
// reference loop (bit-identical results, kept for
// differential testing), and the compiled co-iteration engine from
// internal/comp (bit-identical outputs, no cycle model; it rejects graphs it
// cannot lower). Select one with Options.Engine; run
// many graph+input bindings concurrently with RunBatch.
package sim

import (
	"fmt"

	"sam/internal/bind"
	"sam/internal/core"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/obs"
	"sam/internal/tensor"
)

// Options configures a simulation.
type Options struct {
	// MaxCycles aborts runaway simulations; 0 means a generous default
	// (2,000,000,000). Any non-negative limit is honored, past 2^31 - 1 too:
	// the cycle engines stamp each token with the cycle it becomes visible in
	// 32 bits, counted from a base the net moves up every 2^31 cycles, so no
	// stamp wraps.
	MaxCycles int
	// QueueCap bounds every inter-block queue, modeling finite buffering
	// with backpressure; 0 means unbounded (the paper's default). A negative
	// capacity fails the run.
	QueueCap int
	// Engine selects the executor; the zero value is the event-driven
	// cycle-accurate engine (EngineEvent).
	Engine EngineKind
	// Workers bounds RunBatch's worker pool; 0 means GOMAXPROCS.
	Workers int
	// Trace, when non-nil, records phase spans (bind, run, assemble, …)
	// into the given recorder; the engine's spans come back in
	// Result.Phases. Nil (the default) disables tracing at zero cost: every
	// instrumentation hook on a nil trace is an allocation-free no-op.
	Trace *obs.Trace
	// BindCache, when non-nil, memoizes built operand storage across runs
	// (see bind.Cache). Serving supplies its named tensor store here so warm
	// stored-tensor references skip fibertree construction entirely; the
	// cache decides which sources it manages, so inline operands pass
	// through unmemoized.
	BindCache bind.Cache
}

// Result carries the outcome of a simulation.
type Result struct {
	// Cycles is the simulated execution time.
	Cycles int
	// Output is the computed tensor in the left-hand-side mode order.
	Output *tensor.COO
	// Streams holds per-stream statistics keyed by "node/port" labels, for
	// the Figure 14 token-breakdown study.
	Streams map[string]*core.StreamStats
	// Phases holds the engine's phase spans for this run when
	// Options.Trace was set: operand binding, net wiring or compiled-step
	// setup, the run itself (with one child per executed step on the
	// compiled engine), and output assembly. Nil when tracing was off.
	// Parent indices are local to this slice.
	Phases []obs.SpanData
}

// Run compiles nothing — it executes an already-compiled graph against the
// given inputs (COO tensors keyed by source tensor name; order-0 tensors are
// scalars) on the engine Options.Engine selects.
func Run(g *graph.Graph, inputs map[string]*tensor.COO, opt Options) (*Result, error) {
	p, err := NewProgram(g)
	if err != nil {
		return nil, err
	}
	return p.Run(inputs, opt)
}

// builder is the run-time half of a simulation: it materializes one net —
// queues, fan-outs, block instances, writers — for one input binding of a
// Program. All graph traversal and validation happened at Program build
// time; the builder only allocates and wires.
type builder struct {
	p      *Program
	opt    Options
	net    *core.Net
	arena  *core.VecArena
	bound  map[string]*fiber.Tensor // operand name -> storage
	dims   []int                    // output level dims
	queues []*core.Queue            // one per graph edge, program order
	outs   []*core.Out              // one per fan-out group, program order
	crdWr  map[int]*core.CrdWriter  // output level -> writer
	valsWr *core.ValsWriter
	bvWr   map[int]*core.BVWriter
	vecWr  *core.VecValsWriter
}

func newBuilder(p *Program, inputs map[string]*tensor.COO, opt Options) (*builder, error) {
	b := &builder{
		p: p, opt: opt, net: &core.Net{}, arena: &core.VecArena{},
		crdWr: map[int]*core.CrdWriter{}, bvWr: map[int]*core.BVWriter{},
	}
	var err error
	if b.bound, err = p.plan.BindTraced(inputs, opt.BindCache, opt.Trace); err != nil {
		return nil, err
	}
	wire := opt.Trace.Start("wire")
	defer wire.End()
	if b.dims, err = p.plan.OutputDims(inputs); err != nil {
		return nil, err
	}
	// One queue per edge, one Out per fan-out group, as the program planned.
	b.queues = make([]*core.Queue, len(p.g.Edges))
	for i := range p.g.Edges {
		if opt.QueueCap > 0 {
			b.queues[i] = b.net.NewBoundedQueue(p.labels[i], opt.QueueCap)
		} else {
			b.queues[i] = b.net.NewQueue(p.labels[i])
		}
	}
	b.outs = make([]*core.Out, len(p.groups))
	for gi, members := range p.groups {
		o := core.NewOut()
		for _, ei := range members {
			o.Attach(b.queues[ei])
		}
		b.outs[gi] = o
	}
	for _, n := range p.g.Nodes {
		blk, err := b.instantiate(n)
		if err != nil {
			return nil, err
		}
		if blk != nil {
			b.net.Add(blk)
		}
	}
	return b, nil
}

// in returns the queue feeding an input port.
func (b *builder) in(n *graph.Node, port string) (*core.Queue, error) {
	k := b.p.ports.In(n.ID, port)
	if k < 0 {
		return nil, fmt.Errorf("sim: node %q input port %q unconnected", n.Label, port)
	}
	return b.queues[b.p.inEdge[k]], nil
}

// out returns the output port (empty, token-discarding, if unconnected).
func (b *builder) out(n *graph.Node, port string) *core.Out {
	if k := b.p.ports.Out(n.ID, port); k >= 0 && b.p.groupOf[k] >= 0 {
		return b.outs[b.p.groupOf[k]]
	}
	return core.NewOut()
}

// streams records each monitored stream's statistics into a Result: the
// first queue of every fan-out group, keyed by its producer label. The
// statistics are copied out, so a kept Result does not hold the net's queues.
func (b *builder) streams(res *Result) {
	stats := make([]core.StreamStats, len(b.p.groups))
	for gi, members := range b.p.groups {
		ei := members[0]
		stats[gi] = b.queues[ei].Stats
		res.Streams[b.p.labels[ei]] = &stats[gi]
	}
}

// laneIns fetches one per-lane input family of a lane join: the queues
// feeding ports family0 … family(Ways-1).
func (b *builder) laneIns(n *graph.Node, family string) ([]*core.Queue, error) {
	qs := make([]*core.Queue, n.Ways)
	for i := range qs {
		var err error
		if qs[i], err = b.in(n, graph.PortName(family, i)); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// level fetches a bound operand's storage level.
func (b *builder) level(n *graph.Node, operand string, lvl int) (fiber.Level, error) {
	t, ok := b.bound[operand]
	if !ok {
		return nil, fmt.Errorf("sim: node %q references unbound operand %q", n.Label, operand)
	}
	if lvl >= len(t.Levels) {
		return nil, fmt.Errorf("sim: node %q references level %d of order-%d operand %q", n.Label, lvl, len(t.Levels), operand)
	}
	return t.Levels[lvl], nil
}

func aluOp(op lang.Op) core.ALUOp {
	switch op {
	case lang.Mul:
		return core.OpMul
	case lang.Add:
		return core.OpAdd
	default:
		return core.OpSub
	}
}

func (b *builder) instantiate(n *graph.Node) (core.Block, error) {
	switch n.Kind {
	case graph.Root:
		return core.NewRootSource(n.Label, b.out(n, "ref")), nil
	case graph.Scanner:
		lvl, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		in, err := b.in(n, "ref")
		if err != nil {
			return nil, err
		}
		return core.NewScanner(n.Label, lvl, in, b.out(n, "crd"), b.out(n, "ref")), nil
	case graph.BVScanner:
		lvl, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		bv, ok := lvl.(*fiber.BitvectorLevel)
		if !ok {
			return nil, fmt.Errorf("sim: node %q scans %v level as bitvector", n.Label, lvl.Kind())
		}
		in, err := b.in(n, "ref")
		if err != nil {
			return nil, err
		}
		return core.NewBVScanner(n.Label, bv, in, b.out(n, "bv"), b.out(n, "ref")), nil
	case graph.Repeat:
		crd, err := b.in(n, "crd")
		if err != nil {
			return nil, err
		}
		ref, err := b.in(n, "ref")
		if err != nil {
			return nil, err
		}
		return core.NewRepeater(n.Label, crd, ref, b.out(n, "ref")), nil
	case graph.Intersect, graph.Union:
		// One merger block for both kinds: they differ only when the heads
		// disagree (core.Merger).
		crds := make([]*core.Queue, n.Ways)
		refs := make([]*core.Queue, n.Ways)
		refOuts := make([]*core.Out, n.Ways)
		for i := 0; i < n.Ways; i++ {
			var err error
			if crds[i], err = b.in(n, graph.PortName("crd", i)); err != nil {
				return nil, err
			}
			if refs[i], err = b.in(n, graph.PortName("ref", i)); err != nil {
				return nil, err
			}
			refOuts[i] = b.out(n, graph.PortName("ref", i))
		}
		return core.NewMerger(n.Label, n.Kind == graph.Union, crds, refs, b.out(n, "crd"), refOuts), nil
	case graph.GallopIntersect:
		la, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		lb, err := b.level(n, n.TensorB, n.LevelB)
		if err != nil {
			return nil, err
		}
		ra, err := b.in(n, "ref0")
		if err != nil {
			return nil, err
		}
		rb, err := b.in(n, "ref1")
		if err != nil {
			return nil, err
		}
		return core.NewGallopIntersect(n.Label, la, lb, ra, rb, b.out(n, "crd"), b.out(n, "ref0"), b.out(n, "ref1")), nil
	case graph.Locate:
		lvl, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		crd, err := b.in(n, "crd")
		if err != nil {
			return nil, err
		}
		ref, err := b.in(n, "ref")
		if err != nil {
			return nil, err
		}
		fib, err := b.in(n, "fiber")
		if err != nil {
			return nil, err
		}
		return core.NewLocator(n.Label, lvl, crd, ref, fib, b.out(n, "crd"), b.out(n, "ref"), b.out(n, "loc")), nil
	case graph.Array:
		t, ok := b.bound[n.Tensor]
		if !ok {
			return nil, fmt.Errorf("sim: node %q references unbound operand %q", n.Label, n.Tensor)
		}
		in, err := b.in(n, "ref")
		if err != nil {
			return nil, err
		}
		return core.NewArrayLoad(n.Label, t.Vals, in, b.out(n, "val")), nil
	case graph.ALU:
		a, err := b.in(n, "a")
		if err != nil {
			return nil, err
		}
		bb, err := b.in(n, "b")
		if err != nil {
			return nil, err
		}
		return core.NewALU(n.Label, aluOp(n.Op), a, bb, b.out(n, "val")), nil
	case graph.Reduce:
		if n.RedN == 0 {
			in, err := b.in(n, "val")
			if err != nil {
				return nil, err
			}
			return core.NewScalarReducer(n.Label, in, b.out(n, "val")), nil
		}
		// Ports: RedN coordinate streams, outermost first, then the values.
		ins := make([]*core.Queue, 0, n.RedN+1)
		for _, p := range graph.InPorts(n) {
			q, err := b.in(n, p)
			if err != nil {
				return nil, err
			}
			ins = append(ins, q)
		}
		outs := make([]*core.Out, 0, n.RedN+1)
		for _, p := range graph.OutPorts(n) {
			outs = append(outs, b.out(n, p))
		}
		return core.NewReducer(n.Label, n.RedN, ins[:n.RedN], ins[n.RedN], outs[:n.RedN], outs[n.RedN]), nil
	case graph.CrdDrop:
		// Ports: the outer coordinate stream, then the inner stream — one
		// level deeper, or values in value mode (core.Dropper).
		ins, outs := graph.InPorts(n), graph.OutPorts(n)
		outer, err := b.in(n, ins[0])
		if err != nil {
			return nil, err
		}
		inner, err := b.in(n, ins[1])
		if err != nil {
			return nil, err
		}
		return core.NewDropper(n.Label, n.Drop, outer, inner, b.out(n, outs[0]), b.out(n, outs[1])), nil
	case graph.CrdWriter:
		in, err := b.in(n, "crd")
		if err != nil {
			return nil, err
		}
		w := core.NewCrdWriter(n.Label, n.Format, b.dims[n.OutLevel], n.OutLevel, in)
		b.crdWr[n.OutLevel] = w
		return w, nil
	case graph.ValsWriter:
		in, err := b.in(n, "val")
		if err != nil {
			return nil, err
		}
		w := core.NewValsWriter(n.Label, in)
		b.valsWr = w
		return w, nil
	case graph.BVIntersect:
		qs := map[string]*core.Queue{}
		for _, p := range []string{"bv0", "ref0", "bv1", "ref1"} {
			q, err := b.in(n, p)
			if err != nil {
				return nil, err
			}
			qs[p] = q
		}
		return core.NewBVIntersect(n.Label, qs["bv0"], qs["ref0"], qs["bv1"], qs["ref1"],
			b.out(n, "bv"), b.out(n, "mask0"), b.out(n, "base0"), b.out(n, "mask1"), b.out(n, "base1")), nil
	case graph.VecLoad:
		t, ok := b.bound[n.Tensor]
		if !ok {
			return nil, fmt.Errorf("sim: node %q references unbound operand %q", n.Label, n.Tensor)
		}
		bv, err := b.in(n, "bv")
		if err != nil {
			return nil, err
		}
		mask, err := b.in(n, "mask")
		if err != nil {
			return nil, err
		}
		base, err := b.in(n, "base")
		if err != nil {
			return nil, err
		}
		return core.NewVecLoad(n.Label, t.Vals, b.arena, bv, mask, base, b.out(n, "val")), nil
	case graph.VecALU:
		a, err := b.in(n, "a")
		if err != nil {
			return nil, err
		}
		bb, err := b.in(n, "b")
		if err != nil {
			return nil, err
		}
		return core.NewVecALU(n.Label, aluOp(n.Op), b.arena, a, bb, b.out(n, "val")), nil
	case graph.BVExpand:
		bv, err := b.in(n, "bv")
		if err != nil {
			return nil, err
		}
		mask, err := b.in(n, "mask")
		if err != nil {
			return nil, err
		}
		base, err := b.in(n, "base")
		if err != nil {
			return nil, err
		}
		return core.NewBVExpand(n.Label, bv, mask, base, b.out(n, "ref")), nil
	case graph.BVWriter:
		in, err := b.in(n, "bv")
		if err != nil {
			return nil, err
		}
		w := core.NewBVWriter(n.Label, b.dims[n.OutLevel], in)
		b.bvWr[n.OutLevel] = w
		return w, nil
	case graph.Parallelize:
		in, err := b.in(n, "in")
		if err != nil {
			return nil, err
		}
		outs := make([]*core.Out, n.Ways)
		for i := range outs {
			outs[i] = b.out(n, graph.PortName("out", i))
		}
		return core.NewParallelizer(n.Label, n.Level, in, outs), nil
	case graph.Serialize, graph.SerializePair:
		// The pair join is the same block with the value lanes riding along;
		// a join below the fork's depth (Level >= 0) takes its drivers.
		crd, out := "in", "out"
		var vals, drv []*core.Queue
		var outVal *core.Out
		var err error
		if n.Kind == graph.SerializePair {
			crd, out = "crd", "crd"
			if vals, err = b.laneIns(n, "val"); err != nil {
				return nil, err
			}
			outVal = b.out(n, "val")
		}
		ins, err := b.laneIns(n, crd)
		if err != nil {
			return nil, err
		}
		if n.Level >= 0 {
			if drv, err = b.laneIns(n, "drv"); err != nil {
				return nil, err
			}
		}
		ser, err := core.NewSerializer(n.Label, n.Level, ins, vals, drv, b.out(n, out), outVal)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return ser, nil
	case graph.VecValsWriter:
		bv, err := b.in(n, "bv")
		if err != nil {
			return nil, err
		}
		val, err := b.in(n, "val")
		if err != nil {
			return nil, err
		}
		w := core.NewVecValsWriter(n.Label, b.arena, bv, val)
		b.vecWr = w
		return w, nil
	}
	return nil, fmt.Errorf("sim: block kind %v not instantiable", n.Kind)
}

// assemble builds the output tensor from the writers, in the loop order the
// graph produced it, then permutes to the user's left-hand-side order.
func (b *builder) assemble() (*tensor.COO, error) {
	g := b.p.g
	order := len(g.OutputVars)
	ft := &fiber.Tensor{Name: g.OutputTensor, Dims: b.dims}
	if b.valsWr != nil {
		ft.Vals = b.valsWr.Vals()
	} else if b.vecWr != nil {
		ft.Vals = b.vecWr.Vals()
	} else {
		return nil, fmt.Errorf("sim: graph %q has no value writer", g.Name)
	}
	for lvl := 0; lvl < order; lvl++ {
		if w, ok := b.crdWr[lvl]; ok {
			ft.Levels = append(ft.Levels, w.Level())
			continue
		}
		if w, ok := b.bvWr[lvl]; ok {
			ft.Levels = append(ft.Levels, fiber.NewBitvectorLevel(b.dims[lvl], w.Words()))
			continue
		}
		return nil, fmt.Errorf("sim: no writer produced output level %d", lvl)
	}
	if err := ft.Validate(); err != nil {
		return nil, fmt.Errorf("sim: assembled output invalid: %w", err)
	}
	// Permute from loop order to the declared left-hand-side order.
	perm := make([]int, order)
	for i, v := range g.LHSVars {
		found := false
		for j, u := range g.OutputVars {
			if u == v {
				perm[i] = j
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("sim: output variable %q missing from graph metadata", v)
		}
	}
	return tensor.FromFiberPermuted(ft, g.OutputTensor, perm)
}
