package comp

import (
	"fmt"
	"slices"

	"sam/internal/graph"
)

// collapse is the first thing Materialize runs on a validated IR: it
// rewrites a Par graph (paper Section 4.4) into its Par 1 program. Lanes
// model parallel hardware; comp runs every step in order on one goroutine,
// where a lane join's output is, token for token, what lane 0 computes over
// the whole stream. So the fork, the lanes past the first and the joins are
// administrative, and lane 0 runs over the whole stream:
//   - a Parallelize step's lane-0 output aliases its input, and lanes 1…P−1
//     are dead;
//   - a step that reads a dead slot is dropped, and its outputs are dead;
//   - a Serialize output aliases lane 0's input, and a SerializePair's two
//     outputs alias lane 0's coordinate and value inputs (Ins[0], Ins[Ways]);
//     the drivers are not read;
//   - the writer table is re-pointed through the same aliases;
//   - an output slot nothing left reads is discarded (-1), as Lower discards
//     a port nothing is wired to.
//
// Custard forks only at element granularity, so a Parallelize at Level >= 0
// fails; so does a join with a live input past lane 0, whose output would
// not be lane 0's alone, and a dead slot that reaches a writer: each names
// what it found. The IR is not written to — a program's IR and its encoding
// do not know the collapse exists — and an IR without a Parallelize step is
// returned as it is, with nothing allocated.
func collapse(ir *IR) (*IR, error) {
	if !slices.ContainsFunc(ir.Steps, func(si StepIR) bool { return si.Kind == graph.Parallelize }) {
		return ir, nil
	}
	const dead = -2
	// alias[s] is the slot a reader of s reads instead, or dead; readers[s]
	// counts the kept steps and writers that read s.
	alias, readers := make([]int, ir.NSlot), make([]int, ir.NSlot)
	for s := range alias {
		alias[s] = s
	}
	setAlias := func(out, in int) {
		if out >= 0 {
			alias[out] = alias[in]
		}
	}
	kill := func(outs []int) {
		for _, s := range outs {
			if s >= 0 {
				alias[s] = dead
			}
		}
	}
	n := 0
	for i := range ir.Steps {
		n += len(ir.Steps[i].Ins) + len(ir.Steps[i].Outs)
	}
	slots := make([]int, 0, n)
	steps := make([]StepIR, 0, len(ir.Steps))
	for i := range ir.Steps {
		si := ir.Steps[i]
		switch si.Kind {
		case graph.Parallelize:
			if si.Level >= 0 {
				return nil, fmt.Errorf("comp: step %d (%s): a fork at level %d; lanes collapse only from an element fork (level -1)", i, si.Label, si.Level)
			}
			setAlias(si.Outs[0], si.Ins[0])
			kill(si.Outs[1:])
			continue
		case graph.Serialize, graph.SerializePair:
			// Each output joins Ways inputs, one per lane; drivers follow.
			for k, s := range si.Ins[:len(si.Outs)*si.Ways] {
				if k%si.Ways != 0 && alias[s] != dead {
					return nil, fmt.Errorf("comp: step %d (%s): input %d is live, but only lane 0 of a fork reaches a join live", i, si.Label, k)
				}
			}
			for k, out := range si.Outs {
				setAlias(out, si.Ins[k*si.Ways])
			}
			continue
		}
		if slices.ContainsFunc(si.Ins, func(s int) bool { return alias[s] == dead }) {
			kill(si.Outs)
			continue
		}
		for _, s := range si.Ins {
			slots = append(slots, alias[s])
			readers[alias[s]]++
		}
		si.Ins, slots = carve(slots)
		slots = append(slots, si.Outs...)
		si.Outs, slots = carve(slots)
		steps = append(steps, si)
	}
	// The writers read through the aliases too; wr is the table in IR
	// order, the value writer last.
	wr := append(slices.Clone(ir.CrdWr), ir.ValsWr)
	for k := range wr {
		w := &wr[k]
		if w.Slot = alias[w.Slot]; w.Slot == dead {
			return nil, fmt.Errorf("comp: writer %q reads a lane past lane 0, which only a lane join may read", w.Label)
		}
		readers[w.Slot]++
	}
	for i := range steps {
		for k, s := range steps[i].Outs {
			if s >= 0 && readers[s] == 0 {
				steps[i].Outs[k] = -1
			}
		}
	}
	out := *ir
	out.Steps, out.CrdWr, out.ValsWr = steps, wr[:len(wr)-1], wr[len(wr)-1]
	return &out, nil
}
