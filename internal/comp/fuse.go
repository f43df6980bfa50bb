package comp

import "sam/internal/graph"

// fuseScanIntersect is the peephole Materialize runs before anything is
// derived from the step list: a two-way Intersect whose two (crd, ref) input
// pairs are each the whole output of one Scanner, read by nothing else,
// becomes one co-iteration step over the two storage levels — the shape of a
// GallopIntersect block, and bound to the same kernel (stepGallop) — and the
// two scanners are dropped. The tokens on the four fused-away edges were
// administrative: produced by one loop only to be read straight back by the
// next. Every stream that survives is token-for-token what the unfused steps
// write, so the cycle engines stay the oracle for all of them.
//
// The fan-out-1 condition is what makes the edges administrative. A scanner
// output with a second reader (a Repeat or coordinate dropper on crd, a
// writer, a second merge) is a stream the graph defines, so that scanner
// stays; so do the inputs of Unions and of wider intersects, which the
// two-level kernel does not cover. A slot with more than one producer only
// occurs in a corrupt artifact and is left alone too.
//
// The pass returns a fresh step list and never writes to ir.Steps: the IR,
// its encoding and the artifact format do not know fusion exists.
func fuseScanIntersect(ir *IR) []StepIR {
	readers := make([]int, ir.NSlot)
	writers := make([]int, ir.NSlot)
	producer := make([]int, ir.NSlot)
	for i := range ir.Steps {
		for _, s := range ir.Steps[i].Ins {
			readers[s]++
		}
		for _, s := range ir.Steps[i].Outs {
			if s >= 0 {
				writers[s]++
				producer[s] = i
			}
		}
	}
	for _, w := range ir.CrdWr {
		readers[w.Slot]++
	}
	readers[ir.ValsWr.Slot]++

	// scannerOf returns the index of the Scanner step that produces exactly
	// this (crd, ref) pair for a single reader, or -1.
	scannerOf := func(crd, ref int) int {
		if readers[crd] != 1 || readers[ref] != 1 || writers[crd] != 1 || writers[ref] != 1 {
			return -1
		}
		j := producer[crd]
		sc := &ir.Steps[j]
		if sc.Kind != graph.Scanner || sc.Outs[0] != crd || sc.Outs[1] != ref {
			return -1
		}
		return j
	}

	steps := make([]StepIR, len(ir.Steps))
	copy(steps, ir.Steps)
	drop := make([]bool, len(steps))
	for i := range steps {
		in := &steps[i]
		if in.Kind != graph.Intersect || in.Ways != 2 {
			continue
		}
		a, b := scannerOf(in.Ins[0], in.Ins[1]), scannerOf(in.Ins[2], in.Ins[3])
		if a < 0 || b < 0 {
			continue
		}
		sa, sb := &ir.Steps[a], &ir.Steps[b]
		steps[i] = StepIR{
			Kind: graph.GallopIntersect, Label: in.Label,
			Ins: []int{sa.Ins[0], sb.Ins[0]}, Outs: in.Outs,
			Tensor: sa.Tensor, Level: sa.Level,
			TensorB: sb.Tensor, LevelB: sb.Level,
		}
		drop[a], drop[b] = true, true
	}
	n := 0
	for i := range steps {
		if !drop[i] {
			steps[n] = steps[i]
			n++
		}
	}
	return steps[:n]
}
