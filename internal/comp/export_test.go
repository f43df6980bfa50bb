package comp

import (
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/tensor"
	"sam/internal/token"
)

// Hooks for the fusion and conformance tests. The fused program has no
// runtime switch, so its oracle is built here: MaterializeUnfused is
// Materialize minus the pass.

func MaterializeUnfused(ir *IR) (*Program, error) {
	if err := ir.Validate(); err != nil {
		return nil, err
	}
	return materialize(ir, ir.Steps, make([]*leafExpr, len(ir.Steps)))
}

// ExecSteps returns the step list Materialize binds for a valid IR, and which
// of its steps are fused leaf levels.
func ExecSteps(ir *IR) (steps []StepIR, leaf []bool) {
	steps, exprs := fuse(ir)
	leaf = make([]bool, len(steps))
	for i, lf := range exprs {
		leaf[i] = lf != nil
	}
	return steps, leaf
}

// Streams returns the context's stream table as the last run left it.
func (rc *RunCtx) Streams() []token.Stream { return rc.streams }

// Probed reports whether any co-iteration on this context has ever probed a
// repeated fiber: whether its arena holds a probe table.
func (rc *RunCtx) Probed() bool { return len(rc.mainArena.probe.pos) > 0 }

// RunStep runs one step over the given input streams and returns its output
// streams, in graph.InPorts / OutPorts order; RunStep assigns si's slots. The
// conformance tables drive single steps through it.
func RunStep(si StepIR, ins ...token.Stream) (outs []token.Stream, err error) {
	nOut := len(graph.OutPorts(si.node()))
	streams := make([]token.Stream, len(ins)+nOut)
	copy(streams, ins)
	si.Ins, si.Outs = make([]int, len(ins)), make([]int, nOut)
	for i := range si.Ins {
		si.Ins[i] = i
	}
	for i := range si.Outs {
		si.Outs[i] = len(ins) + i
	}
	st, err := stepFor(&si)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(violation)
			if !ok {
				panic(r)
			}
			outs, err = nil, v.err
		}
	}()
	st(&exec{streams: streams, a: new(arena)})
	return streams[len(ins):], nil
}

// RunPooled executes the program on a caller-held context and returns the
// assembled output borrowed from the context: the tensor and its points are
// valid only until the next run on rc. Any context serves any program. It is
// the alloc gate's hook: Run and RunTraced share its core, runCtx, and add
// only the context checkout and the clone of the output, so a warm RunPooled
// call performs zero heap allocations.
func (p *Program) RunPooled(rc *RunCtx, bound map[string]*fiber.Tensor, dims []int) (*tensor.COO, error) {
	return p.runCtx(rc, bound, dims, nil)
}
