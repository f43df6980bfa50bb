package comp

import (
	"slices"

	"sam/internal/graph"
	"sam/internal/lang"
)

// fuse is what Materialize runs before anything is derived from the step
// list: two peepholes that remove edges whose tokens were administrative —
// produced by one loop only to be read straight back by the next. Every
// stream that survives is token for token what the unfused steps write, so
// the cycle engines stay the oracle for all of them. It returns a fresh step
// list and never writes to ir.Steps: the IR, its encoding and the artifact
// format do not know fusion exists. leaf[i] is non-nil where steps[i] is a
// fused leaf level, and holds its expression.
func fuse(ir *IR) (steps []StepIR, leaf []*leafExpr) {
	f := fuser{
		steps: slices.Clone(ir.Steps), drop: make([]bool, len(ir.Steps)), leaf: make([]*leafExpr, len(ir.Steps)),
		readers: make([]int, ir.NSlot), writers: make([]int, ir.NSlot), producer: make([]int, ir.NSlot),
	}
	for i := range ir.Steps {
		for _, s := range ir.Steps[i].Ins {
			f.readers[s]++
		}
		for _, s := range ir.Steps[i].Outs {
			if s >= 0 {
				f.writers[s]++
				f.producer[s] = i
			}
		}
	}
	for _, w := range ir.CrdWr {
		f.readers[w.Slot]++
	}
	f.readers[ir.ValsWr.Slot]++
	f.scanIntersect()
	f.leafReduce()
	n := 0
	for i := range f.steps {
		if !f.drop[i] {
			f.steps[n], f.leaf[n] = f.steps[i], f.leaf[i]
			n++
		}
	}
	return f.steps[:n], f.leaf[:n]
}

// fuser is the state the two passes share: the step list being rewritten in
// place (a step's index is its index in ir.Steps until the end), which steps
// to drop, and a census of ir.Steps' dataflow — per stream slot, how many
// steps and output writers read it, how many steps write it (more than one
// only in a corrupt artifact), and one step that does. The first pass leaves
// the census true of every slot the second looks at.
type fuser struct {
	steps                      []StepIR
	drop                       []bool
	leaf                       []*leafExpr
	readers, writers, producer []int
}

// sole returns the step that writes slot, and whether it writes it for
// exactly one reader: the fan-out-1 condition that makes an edge
// administrative. A stream with a second reader is one the graph defines.
func (f *fuser) sole(slot int) (int, bool) {
	return f.producer[slot], f.readers[slot] == 1 && f.writers[slot] == 1
}

// scanIntersect is the first pass: a two-way Intersect whose two (crd, ref)
// input pairs are each the whole output of one Scanner, read by nothing else,
// becomes one co-iteration step over the two storage levels — the shape of a
// GallopIntersect block, and bound to the same kernel (stepGallop) — and the
// two scanners are dropped. A scanner output with a second reader (a Repeat
// or coordinate dropper on crd, a writer, a second merge) keeps its scanner;
// so do the inputs of Unions and of wider intersects, which the two-level
// kernel does not cover.
func (f *fuser) scanIntersect() {
	// scannerOf returns the index of the Scanner step that produces exactly
	// this (crd, ref) pair for a single reader, or -1.
	scannerOf := func(crd, ref int) int {
		j, ok := f.sole(crd)
		if _, okRef := f.sole(ref); !ok || !okRef {
			return -1
		}
		sc := &f.steps[j]
		if sc.Kind != graph.Scanner || sc.Outs[0] != crd || sc.Outs[1] != ref {
			return -1
		}
		return j
	}
	for i := range f.steps {
		in := &f.steps[i]
		if in.Kind != graph.Intersect || in.Ways != 2 {
			continue
		}
		a, b := scannerOf(in.Ins[0], in.Ins[1]), scannerOf(in.Ins[2], in.Ins[3])
		if a < 0 || b < 0 {
			continue
		}
		sa, sb := &f.steps[a], &f.steps[b]
		f.steps[i] = StepIR{
			Kind: graph.GallopIntersect, Label: in.Label,
			Ins: []int{sa.Ins[0], sb.Ins[0]}, Outs: in.Outs,
			Tensor: sa.Tensor, Level: sa.Level,
			TensorB: sb.Tensor, LevelB: sb.Level,
		}
		f.drop[a], f.drop[b] = true, true
	}
}

// leafOp is one instruction kind of a fused leaf level's expression.
type leafOp uint8

const (
	leafLoadA leafOp = iota // Vals at the matched position in G's first level
	leafLoadB               // … in G's second level
	leafHoist               // Vals at a Repeat's outer reference: one read per fiber pair
	leafMul
	leafAdd
	leafSub
)

// leafInst is one Array load or ALU of the expression in register form: v is
// its value at the current coordinate, ALU operands a and b name earlier
// instructions. A run copies the template into its arena and fills in vals
// and v.
type leafInst struct {
	op            leafOp
	a, b          int
	label, tensor string // loads: the Array block's label and operand
	vals          []float64
	v             float64
}

// leafExpr is the record of one fused leaf level, private to comp: the
// co-iteration step G it swallowed, and the loads and ALUs between G and the
// reducer — hoisted loads first (prog[i] reads the step's input 2+i), so the
// per-coordinate loop starts past them, the rest in the graph's evaluation
// order, the reducer's operand last.
type leafExpr struct {
	g    StepIR
	prog []leafInst
}

// leafMatch is one reducer's walk up its value input.
type leafMatch struct {
	*fuser
	g      int        // the co-iteration step every load hangs off, -1 until one is seen
	hoist  []leafInst // latest found first, so that hoist ++ dyn is numbered by adding len(hoist)
	dyn    []leafInst
	outer  []int   // hoist[i]'s reference stream: its Repeat's outer input
	used   []int   // the steps the fused step replaces, G apart
	loaded [2]bool // which of G's reference outputs the tree loads through
	crdRds int     // Repeats of the tree reading G's crd output
}

// isG reports whether step q is the tree's one co-iteration step, adopting
// the first the walk meets.
func (m *leafMatch) isG(q int) bool {
	if m.steps[q].Kind != graph.GallopIntersect {
		return false
	}
	if m.g < 0 {
		m.g = q
	}
	return m.g == q
}

// expr matches the subtree that writes slot for step reader and returns its
// instruction: an index into dyn, or -n for the nth hoisted load found.
// Producers precede their readers, as Lower orders them; a corrupt artifact's
// cycle ends the walk here.
func (m *leafMatch) expr(slot, reader int) (int, bool) {
	p, ok := m.sole(slot)
	if !ok || p >= reader {
		return 0, false
	}
	st := &m.steps[p]
	m.used = append(m.used, p)
	switch st.Kind {
	case graph.ALU:
		a, okA := m.expr(st.Ins[0], p)
		b, okB := m.expr(st.Ins[1], p)
		op := leafSub // stepALU's dispatch
		switch st.Op {
		case lang.Mul:
			op = leafMul
		case lang.Add:
			op = leafAdd
		}
		m.dyn = append(m.dyn, leafInst{op: op, a: a, b: b})
		return len(m.dyn) - 1, okA && okB
	case graph.Array:
		ref := st.Ins[0]
		q, ok := m.sole(ref)
		if !ok || q >= p {
			return 0, false
		}
		in := leafInst{label: st.Label, tensor: st.Tensor}
		src := &m.steps[q]
		if src.Kind == graph.Repeat {
			crd := src.Ins[0]
			if g := m.producer[crd]; m.writers[crd] != 1 || g >= q || !m.isG(g) || m.steps[g].Outs[0] != crd {
				return 0, false
			}
			m.crdRds++
			in.op = leafHoist
			m.used = append(m.used, q)
			m.hoist, m.outer = append([]leafInst{in}, m.hoist...), append([]int{src.Ins[1]}, m.outer...)
			return -len(m.hoist), true
		}
		if !m.isG(q) || ref == src.Outs[0] {
			return 0, false
		}
		if in.op = leafLoadA; ref == src.Outs[2] {
			in.op = leafLoadB
		}
		m.loaded[in.op] = true
		m.dyn = append(m.dyn, in)
		return len(m.dyn) - 1, true
	}
	return 0, false
}

// leafReduce is the second pass: a scalar Reduce whose value input is an ALU
// tree over Array loads collapses, with the co-iteration step G under the
// loads, into one step that walks G's reference pairs and emits the reducer's
// tokens (stepLeaf). Every interior edge has fan-out 1, and every load takes
// its references straight from the one step G — a GallopIntersect as lowered,
// or as the first pass fused it — or from a Repeat over G's crd output, those
// Repeats being that output's only readers. The fused step reads G's two
// reference inputs and the Repeats' outer reference streams and writes the
// reducer's output. Left as lowered: a tree with a union-fed operand (an
// Array hanging off anything but G), a load or a G output with a second
// reader, a leaf level that is written rather than reduced, vector and deeper
// reducers.
func (f *fuser) leafReduce() {
	for r := range f.steps {
		red := &f.steps[r]
		if red.Kind != graph.Reduce || red.RedN != 0 {
			continue
		}
		m := leafMatch{fuser: f, g: -1}
		if _, ok := m.expr(red.Ins[0], r); !ok || m.g < 0 {
			continue
		}
		g := &f.steps[m.g]
		if g.Outs[0] >= 0 && f.readers[g.Outs[0]] != m.crdRds ||
			g.Outs[1] >= 0 && !m.loaded[0] || g.Outs[2] >= 0 && !m.loaded[1] {
			continue
		}
		prog := append(m.hoist, m.dyn...)
		for k := range prog {
			if in := &prog[k]; in.op >= leafMul {
				in.a, in.b = in.a+len(m.hoist), in.b+len(m.hoist)
			}
		}
		f.leaf[r] = &leafExpr{g: *g, prog: prog}
		f.steps[r] = StepIR{
			Kind: graph.Reduce, Label: red.Label,
			Ins: append([]int{g.Ins[0], g.Ins[1]}, m.outer...), Outs: red.Outs,
		}
		f.drop[m.g] = true
		for _, u := range m.used {
			f.drop[u] = true
		}
	}
}
