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
// on its own clock, producers lagging their consumers, the naive tick-all
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
	// the Figure 14 token-breakdown study. Blocks of one kind and op share a
	// node label; their streams are numbered in edge order past the first:
	// "ALU */val", "ALU */val#2".
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
// time; the builder only allocates and wires, by the program's
// graph.Wiring: one queue per edge, one Out per stream, and per port the
// queue or Out behind it, so a block's ports are a slice of each by
// PortTable.Span.
type builder struct {
	p      *Program
	opt    Options
	net    *core.Net
	arena  *core.VecArena
	bound  map[string]*fiber.Tensor // operand name -> storage
	dims   []int                    // output level dims
	queues []*core.Queue            // one per graph edge, program order
	ins    []*core.Queue            // the queue feeding each input port
	outs   []*core.Out              // the Out behind each output port
	crdWr  map[int]*core.CrdWriter  // output level -> writer
	valsWr *core.ValsWriter
	bvWr   map[int]*core.BVWriter
	vecWr  *core.VecValsWriter
}

// newBuilder binds inputs and builds one run's net over p's wiring.
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
	// One queue per edge, attached to its stream's Out in edge order. An
	// output port that drives nothing pushes into an Out with no queues.
	w := p.w
	streamOuts := make([]*core.Out, w.Streams)
	for s := range streamOuts {
		streamOuts[s] = core.NewOut()
	}
	b.queues = make([]*core.Queue, len(w.EdgeStream))
	for i, s := range w.EdgeStream {
		if opt.QueueCap > 0 {
			b.queues[i] = b.net.NewBoundedQueue(p.labels[s], opt.QueueCap)
		} else {
			b.queues[i] = b.net.NewQueue(p.labels[s])
		}
		streamOuts[s].Attach(b.queues[i])
	}
	b.ins = make([]*core.Queue, len(w.Feed))
	for k, e := range w.Feed {
		b.ins[k] = b.queues[e]
	}
	b.outs = make([]*core.Out, len(w.Stream))
	discard := core.NewOut()
	for k, s := range w.Stream {
		b.outs[k] = discard
		if s >= 0 {
			b.outs[k] = streamOuts[s]
		}
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

// streams records each stream's statistics into a Result: its first queue,
// keyed by its producer label. The statistics are copied out, so a kept
// Result does not hold the net's queues.
func (b *builder) streams(res *Result) {
	stats := make([]core.StreamStats, len(b.p.first))
	for s, e := range b.p.first {
		stats[s] = b.queues[e].Stats
		res.Streams[b.p.labels[s]] = &stats[s]
	}
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

// instantiate builds n's block over its ports: in[k] is the queue feeding
// its k-th input port and out[k] the Out behind its k-th output port, in
// graph.InPorts and graph.OutPorts order.
func (b *builder) instantiate(n *graph.Node) (core.Block, error) {
	i0, i1, o0, o1 := b.p.w.Ports.Span(n.ID)
	in, out := b.ins[i0:i1:i1], b.outs[o0:o1:o1]
	switch n.Kind {
	case graph.Root:
		return core.NewRootSource(n.Label, out[0]), nil
	case graph.Scanner:
		lvl, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		return core.NewScanner(n.Label, lvl, in[0], out[0], out[1]), nil
	case graph.BVScanner:
		lvl, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		bv, ok := lvl.(*fiber.BitvectorLevel)
		if !ok {
			return nil, fmt.Errorf("sim: node %q scans %v level as bitvector", n.Label, lvl.Kind())
		}
		return core.NewBVScanner(n.Label, bv, in[0], out[0], out[1]), nil
	case graph.Repeat:
		return core.NewRepeater(n.Label, in[0], in[1], out[0]), nil
	case graph.Intersect, graph.Union:
		// One merger block for both kinds: they differ only when the heads
		// disagree (core.Merger). The inputs interleave crd0, ref0, crd1, ….
		crds := make([]*core.Queue, n.Ways)
		refs := make([]*core.Queue, n.Ways)
		for i := range crds {
			crds[i], refs[i] = in[2*i], in[2*i+1]
		}
		return core.NewMerger(n.Label, n.Kind == graph.Union, crds, refs, out[0], out[1:]), nil
	case graph.GallopIntersect:
		la, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		lb, err := b.level(n, n.TensorB, n.LevelB)
		if err != nil {
			return nil, err
		}
		return core.NewGallopIntersect(n.Label, la, lb, in[0], in[1], out[0], out[1], out[2]), nil
	case graph.Locate:
		lvl, err := b.level(n, n.Tensor, n.Level)
		if err != nil {
			return nil, err
		}
		return core.NewLocator(n.Label, lvl, in[0], in[1], in[2], out[0], out[1], out[2]), nil
	case graph.Array:
		t, ok := b.bound[n.Tensor]
		if !ok {
			return nil, fmt.Errorf("sim: node %q references unbound operand %q", n.Label, n.Tensor)
		}
		return core.NewArrayLoad(n.Label, t.Vals, in[0], out[0]), nil
	case graph.ALU:
		return core.NewALU(n.Label, aluOp(n.Op), in[0], in[1], out[0]), nil
	case graph.Reduce:
		if n.RedN == 0 {
			return core.NewScalarReducer(n.Label, in[0], out[0]), nil
		}
		// Ports: RedN coordinate streams, outermost first, then the values.
		return core.NewReducer(n.Label, n.RedN, in[:n.RedN], in[n.RedN], out[:n.RedN], out[n.RedN]), nil
	case graph.CrdDrop:
		// Ports: the outer coordinate stream, then the inner stream — one
		// level deeper, or values in value mode (core.Dropper).
		return core.NewDropper(n.Label, n.Drop, in[0], in[1], out[0], out[1]), nil
	case graph.CrdWriter:
		w := core.NewCrdWriter(n.Label, n.Format, b.dims[n.OutLevel], n.OutLevel, in[0])
		b.crdWr[n.OutLevel] = w
		return w, nil
	case graph.ValsWriter:
		w := core.NewValsWriter(n.Label, in[0])
		b.valsWr = w
		return w, nil
	case graph.BVIntersect:
		return core.NewBVIntersect(n.Label, in[0], in[1], in[2], in[3], out[0], out[1], out[2], out[3], out[4]), nil
	case graph.VecLoad:
		t, ok := b.bound[n.Tensor]
		if !ok {
			return nil, fmt.Errorf("sim: node %q references unbound operand %q", n.Label, n.Tensor)
		}
		return core.NewVecLoad(n.Label, t.Vals, b.arena, in[0], in[1], in[2], out[0]), nil
	case graph.VecALU:
		return core.NewVecALU(n.Label, aluOp(n.Op), b.arena, in[0], in[1], out[0]), nil
	case graph.BVExpand:
		return core.NewBVExpand(n.Label, in[0], in[1], in[2], out[0]), nil
	case graph.BVWriter:
		w := core.NewBVWriter(n.Label, b.dims[n.OutLevel], in[0])
		b.bvWr[n.OutLevel] = w
		return w, nil
	case graph.Parallelize:
		return core.NewParallelizer(n.Label, n.Level, in[0], out), nil
	case graph.Serialize, graph.SerializePair:
		// The inputs are one family per lane — coordinates, then a pair
		// join's values — and then the drivers a join below the fork's
		// depth (Level >= 0) takes. The pair join is the same block with
		// the value lanes riding along.
		lanes, rest := in[:n.Ways], in[n.Ways:]
		var vals []*core.Queue
		var outVal *core.Out
		if n.Kind == graph.SerializePair {
			vals, rest, outVal = rest[:n.Ways], rest[n.Ways:], out[1]
		}
		ser, err := core.NewSerializer(n.Label, n.Level, lanes, vals, rest, out[0], outVal)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return ser, nil
	case graph.VecValsWriter:
		w := core.NewVecValsWriter(n.Label, b.arena, in[0], in[1])
		b.vecWr = w
		return w, nil
	}
	return nil, fmt.Errorf("sim: block kind %v not instantiable", n.Kind)
}

// assemble builds the output fibertree from the writers, in the loop order
// the graph produced it (NewProgram checked that every level and the values
// have one), and reads the result out of it in the user's left-hand-side
// order.
func (b *builder) assemble() (*tensor.COO, error) {
	g := b.p.g
	ft := &fiber.Tensor{Name: g.OutputTensor, Dims: b.dims}
	if b.valsWr != nil {
		ft.Vals = b.valsWr.Vals()
	} else {
		ft.Vals = b.vecWr.Vals()
	}
	for lvl := range g.OutputVars {
		if w, ok := b.crdWr[lvl]; ok {
			ft.Levels = append(ft.Levels, w.Level())
		} else {
			ft.Levels = append(ft.Levels, fiber.NewBitvectorLevel(b.dims[lvl], b.bvWr[lvl].Words()))
		}
	}
	out, err := tensor.FromFiberPermuted(ft, g.OutputTensor, b.p.perm)
	// The output holds copies: the writers' arrays go back for the next run.
	for _, w := range b.crdWr {
		w.Release()
	}
	if b.valsWr != nil {
		b.valsWr.Release()
	}
	return out, err
}
