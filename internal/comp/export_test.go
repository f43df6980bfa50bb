package comp

import "sam/internal/token"

// Hooks for the context-pool test: the pool and its miss count are private.

func (p *Program) PutCtx(rc *RunCtx)  { p.putCtx(rc) }
func (p *Program) SetMisses(n uint32) { p.misses.Store(n) }
func (p *Program) Misses() uint32     { return p.misses.Load() }

// TakeParked removes one parked context, reporting whether there was one.
func (p *Program) TakeParked() bool { return p.pool.Get() != nil }

// Hooks for the fusion tests. The fused program has no runtime switch, so its
// oracle is built here: MaterializeUnfused is Materialize minus the pass.

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
// repeated fiber: whether one of its arenas holds a probe table.
func (rc *RunCtx) Probed() bool {
	probed := len(rc.mainArena.probe.pos) > 0
	for l := range rc.laneArena {
		probed = probed || len(rc.laneArena[l].probe.pos) > 0
	}
	return probed
}
