package comp

import (
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/tensor"
	"sam/internal/token"
)

// Hooks for the fusion, collapse and conformance tests. The fused program
// has no runtime switch, so its oracle is built here: MaterializeUnfused is
// Materialize minus the fusion passes (lanes still collapse).

func MaterializeUnfused(ir *IR) (*Program, error) {
	return materialize(ir, func(run *IR) ([]StepIR, []*leafExpr) {
		return run.Steps, make([]*leafExpr, len(run.Steps))
	})
}

// Collapse returns the IR Materialize runs: ir with a Par graph's lanes
// collapsed into its Par 1 program.
func Collapse(ir *IR) (*IR, error) { return collapse(ir) }

// ExecSteps returns the step list Materialize binds for a valid IR, and which
// of its steps are fused leaf levels. It panics on an IR Materialize rejects.
func ExecSteps(ir *IR) (steps []StepIR, leaf []bool) {
	run, err := collapse(ir)
	if err != nil {
		panic(err)
	}
	steps, exprs := fuse(run)
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

// RunPooled executes the program on a caller-held context instead of one
// from the free list, so a test can read the streams the run left behind
// (Streams, Probed). Any context serves any program.
func (p *Program) RunPooled(rc *RunCtx, bound map[string]*fiber.Tensor, dims []int) (*tensor.COO, error) {
	return p.runCtx(rc, bound, dims, nil)
}
