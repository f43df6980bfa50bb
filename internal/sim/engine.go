package sim

import (
	"fmt"
	"slices"
	"strings"

	"sam/internal/core"
	"sam/internal/tensor"
)

// EngineKind names one of the graph executors behind Options.Engine.
type EngineKind string

// The available engines.
const (
	// EngineEvent is the default cycle-accurate engine: the event-driven
	// ready-set scheduler that ticks only blocks with newly visible input,
	// freed backpressure space, or pending internal work.
	EngineEvent EngineKind = "event"
	// EngineNaive is the reference cycle-accurate engine that ticks every
	// block on every cycle. It produces bit-identical results to
	// EngineEvent and exists for differential testing and benchmarking.
	EngineNaive EngineKind = "naive"
	// EngineComp is the compiled co-iteration engine from internal/comp: the
	// graph is lowered once into a tree of Go closures that co-iterate the
	// bound fibertree storage directly — no token queues, no per-cycle
	// scheduling — producing outputs bit-identical to the cycle engines.
	//
	// It computes outputs only: Result.Cycles is zero and no stream
	// statistics are gathered, so experiments and anything reading cycle
	// counts must use a cycle engine. Graphs outside its block set (the
	// bitvector pipeline) are rejected by CheckEngine and Run with
	// comp.Check's error. It is also the engine that runs loaded artifacts
	// (NewProgramFromArtifact): internal/prog serializes exactly the
	// lowering this engine executes.
	EngineComp EngineKind = "comp"
)

// Engines lists every registered engine kind, in the order user-facing
// messages should print them.
func Engines() []EngineKind {
	return []EngineKind{EngineEvent, EngineNaive, EngineComp}
}

// CheckEngineKind reports whether kind names one of the engines in known; the
// empty kind selects the default event-driven engine. Callers that accept
// every engine pass Engines().
func CheckEngineKind(kind EngineKind, known []EngineKind) error {
	if kind == "" || slices.Contains(known, kind) {
		return nil
	}
	names := make([]string, len(known))
	for i, k := range known {
		names[i] = fmt.Sprintf("%q", string(k))
	}
	return fmt.Errorf("sim: unknown engine %q (registered engines: %s)", kind, strings.Join(names, ", "))
}

// runCycle runs the program on the cycle-accurate core.Net simulator, with
// the event-driven scheduler or (kind EngineNaive) the tick-all loop.
func (p *Program) runCycle(kind EngineKind, inputs map[string]*tensor.COO, opt Options) (*Result, error) {
	if p.g == nil {
		return nil, p.CheckEngine(kind)
	}
	if opt.MaxCycles == 0 {
		opt.MaxCycles = 2_000_000_000
	}
	mark := opt.Trace.Len()
	b, err := newBuilder(p, inputs, opt)
	if err != nil {
		return nil, err
	}
	run := opt.Trace.Start("run")
	var cycles int
	if kind == EngineNaive {
		cycles, err = b.net.RunNaive(opt.MaxCycles)
	} else {
		cycles, err = b.net.Run(opt.MaxCycles)
	}
	run.End()
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", p.g.Name, err)
	}
	asm := opt.Trace.Start("assemble")
	out, err := b.assemble()
	asm.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Cycles: cycles, Output: out, Streams: map[string]*core.StreamStats{}}
	res.Phases = opt.Trace.SpansSince(mark)
	b.streams(res)
	return res, nil
}

// runComp runs the program on the compiled co-iteration engine
// (internal/comp). A graph its lowering does not support — the bitvector
// pipeline — fails with comp.Check's error.
func (p *Program) runComp(inputs map[string]*tensor.COO, opt Options) (*Result, error) {
	cp, err := p.compProgram()
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", p.name(), err)
	}
	mark := opt.Trace.Len()
	bound, err := p.plan.BindTraced(inputs, opt.BindCache, opt.Trace)
	if err != nil {
		return nil, err
	}
	dims, err := p.plan.OutputDims(inputs)
	if err != nil {
		return nil, err
	}
	out, err := cp.RunTraced(bound, dims, opt.Trace)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", p.name(), err)
	}
	return &Result{Output: out, Streams: map[string]*core.StreamStats{}, Phases: opt.Trace.SpansSince(mark)}, nil
}
