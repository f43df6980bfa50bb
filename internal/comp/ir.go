package comp

import (
	"fmt"
	"sync/atomic"

	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// This file splits the compiled engine into the two halves a portable
// program artifact needs: Lower turns a graph into a flat, serializable
// intermediate form (IR), and Materialize turns an IR — freshly lowered or
// decoded from bytes by internal/prog — back into an executable Program.
// Compile is Lower followed by Materialize, so there is one lowering: a
// decoded artifact executes the exact same closure bodies a direct
// compilation would, which is what makes the two bit-identical by
// construction.

// StepIR is one lowered step in serializable form: the block kind, the
// stream slots it reads and writes, and the block parameters its closure
// captures. Ins and Outs list slots in the canonical port order of
// graph.InPorts/graph.OutPorts for the kind (so an Intersect's Ins
// interleave crd0,ref0,crd1,ref1,… and a Parallelize's Outs index is its
// lane number). Slot -1 in Outs marks a discarded output.
type StepIR struct {
	Kind  graph.Kind
	Label string
	Ins   []int
	Outs  []int

	// Block parameters, mirroring the graph.Node fields the closures use.
	Tensor  string
	TensorB string
	Level   int
	LevelB  int
	Ways    int
	Op      lang.Op
	RedN    int
	Drop    graph.DropMode
}

// node reconstructs a parameter-equivalent graph.Node, used to derive the
// canonical port layout (and so the expected Ins/Outs lengths) for
// validation.
func (si *StepIR) node() *graph.Node {
	return &graph.Node{
		Kind: si.Kind, Label: si.Label,
		Tensor: si.Tensor, TensorB: si.TensorB,
		Level: si.Level, LevelB: si.LevelB,
		Ways: si.Ways, Op: si.Op, RedN: si.RedN, Drop: si.Drop,
	}
}

// WriterIR records one output writer: assembly reads its input stream slot
// directly instead of running a closure. Level is the output level a
// coordinate writer materializes (unused for the value writer).
type WriterIR struct {
	Level int
	Slot  int
	Label string
}

// IR is a complete lowered program in flat, serializable form: the step
// list in execution order, the writer table, the stream-slot count, and the
// graph metadata execution needs without the graph — operand bindings and
// output-dimension references for input binding, output variables for
// assembly, and the source graph's fingerprint as the artifact's identity.
// An IR is immutable after Lower (or decode) and fully self-contained:
// Materialize rebuilds the closures and the output permutation from it
// alone.
type IR struct {
	Name        string
	Expr        string
	OptLevel    int
	Fingerprint string

	NSlot  int
	Steps  []StepIR
	CrdWr  []WriterIR // one writer per output level, in level order
	ValsWr WriterIR

	Bindings     []graph.Binding
	OutputTensor string
	OutputDims   []graph.DimRef
	OutputVars   []string
	LHSVars      []string
}

// Structural bounds enforced by IR.Validate. They exist so a hostile or
// corrupt decoded artifact cannot make Materialize allocate unboundedly or
// index outside the stream table; real lowered graphs sit far below all of
// them.
const (
	maxIRSlots = 1 << 20
	maxIRWays  = 1 << 12
	maxIRRedN  = 64
)

// Lower flattens a graph into its IR: the graph's streams (graph.Wire, so
// a graph Validate rejects fails here with the same error) become its
// stream slots, each step's Ins and Outs list its ports' slots by position,
// discarded output ports get slot -1, and there is one StepIR per block in
// deterministic topological order, plus the writer table. The same graph
// always lowers to the same IR, which is what makes the encoded artifact
// form byte-stable.
func Lower(g *graph.Graph) (*IR, error) {
	if err := Check(g); err != nil {
		return nil, err
	}
	w, err := g.Wire()
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(g)
	if err != nil {
		return nil, err
	}
	ir := &IR{
		Name: g.Name, Expr: g.Expr, OptLevel: g.OptLevel,
		Fingerprint:  g.Fingerprint(),
		NSlot:        w.Streams,
		Bindings:     g.Bindings,
		OutputTensor: g.OutputTensor,
		OutputDims:   g.OutputDims,
		OutputVars:   g.OutputVars,
		LHSVars:      g.LHSVars,
	}

	// A writer is no step: assembly reads the stream feeding it.
	writer := func(n *graph.Node, lvl int) WriterIR {
		i0, _, _, _ := w.Ports.Span(n.ID)
		return WriterIR{Level: lvl, Slot: w.EdgeStream[w.Feed[i0]], Label: n.Label}
	}
	levels, vals, err := g.Writers()
	if err != nil {
		return nil, err
	}
	for lvl, n := range levels {
		ir.CrdWr = append(ir.CrdWr, writer(n, lvl))
	}
	ir.ValsWr = writer(vals, 0)

	// An input port reads the stream of the edge feeding it. Every step's
	// Ins are carved from one slice; its Outs are its ports' streams.
	slots := make([]int, 0, w.Ports.NumIn())
	ir.Steps = make([]StepIR, 0, len(order))
	for _, n := range order {
		if n.Kind == graph.ValsWriter || n.Kind == graph.CrdWriter {
			continue
		}
		i0, i1, o0, o1 := w.Ports.Span(n.ID)
		si := StepIR{
			Kind: n.Kind, Label: n.Label,
			Tensor: n.Tensor, TensorB: n.TensorB,
			Level: n.Level, LevelB: n.LevelB,
			Ways: n.Ways, Op: n.Op, RedN: n.RedN, Drop: n.Drop,
		}
		for _, e := range w.Feed[i0:i1] {
			slots = append(slots, w.EdgeStream[e])
		}
		si.Ins, slots = carve(slots)
		si.Outs, _ = carve(w.Stream[o0:o1])
		ir.Steps = append(ir.Steps, si)
	}
	return ir, nil
}

// carve splits the filled part off a slot slice: the part, capped so an
// append cannot reach past it (nil when empty, as an append-built list
// would be), and the rest to fill next.
func carve(s []int) (part, rest []int) {
	if len(s) > 0 {
		part = s[:len(s):len(s)]
	}
	return part, s[len(s):]
}

// Validate checks an IR's structural soundness so that Materialize and the
// run loop can trust it: every step kind is lowerable, every slot index
// is inside the stream table, every Ins/Outs layout matches the kind's
// canonical port list, and the arity parameters sit within sane bounds.
// Lower always produces a valid IR; this guards IRs decoded from bytes.
func (ir *IR) Validate() error {
	if ir.NSlot < 0 || ir.NSlot > maxIRSlots {
		return fmt.Errorf("comp: ir: slot count %d outside [0, %d]", ir.NSlot, maxIRSlots)
	}
	for i := range ir.Steps {
		si := &ir.Steps[i]
		if err := si.validate(ir.NSlot); err != nil {
			return fmt.Errorf("comp: ir: step %d (%s): %w", i, si.Label, err)
		}
	}
	if ir.ValsWr.Slot < 0 || ir.ValsWr.Slot >= ir.NSlot {
		return fmt.Errorf("comp: ir: value writer slot %d outside stream table of %d", ir.ValsWr.Slot, ir.NSlot)
	}
	for lvl, w := range ir.CrdWr {
		if w.Level != lvl {
			return fmt.Errorf("comp: ir: coordinate writer %d writes level %d", lvl, w.Level)
		}
		if w.Slot < 0 || w.Slot >= ir.NSlot {
			return fmt.Errorf("comp: ir: coordinate writer %q slot %d outside stream table of %d", w.Label, w.Slot, ir.NSlot)
		}
	}
	return ir.validateMetadata()
}

// validateMetadata checks the graph metadata carried alongside the step
// list — output variables, dimension references, and operand bindings — so
// that Materialize's permutation precompute and bind's run-time lookups can
// index by them without bounds checks of their own.
func (ir *IR) validateMetadata() error {
	// LHSVars is the output variable set in declaration order and OutputVars
	// the same set in loop order, one coordinate writer per variable;
	// Materialize permutes one into the other, so the lengths must agree and
	// the variables must be distinct.
	if len(ir.LHSVars) != len(ir.OutputVars) {
		return fmt.Errorf("comp: ir: %d left-hand-side variables for %d output variables", len(ir.LHSVars), len(ir.OutputVars))
	}
	for _, vars := range [][]string{ir.OutputVars, ir.LHSVars} {
		seen := make(map[string]bool, len(vars))
		for _, v := range vars {
			if seen[v] {
				return fmt.Errorf("comp: ir: duplicate output variable %q", v)
			}
			seen[v] = true
		}
	}
	if len(ir.CrdWr) != len(ir.OutputVars) {
		return fmt.Errorf("comp: ir: %d coordinate writers for %d output levels", len(ir.CrdWr), len(ir.OutputVars))
	}
	for _, d := range ir.OutputDims {
		if d.Mode < 0 {
			return fmt.Errorf("comp: ir: output dimension references negative mode %d of tensor %q", d.Mode, d.Tensor)
		}
	}
	for i := range ir.Bindings {
		b := &ir.Bindings[i]
		if len(b.Formats) != len(b.ModeOrder) {
			return fmt.Errorf("comp: ir: binding %q has %d formats for %d modes", b.Operand, len(b.Formats), len(b.ModeOrder))
		}
		for _, m := range b.ModeOrder {
			if m < 0 || m >= len(b.ModeOrder) {
				return fmt.Errorf("comp: ir: binding %q mode order entry %d outside [0, %d)", b.Operand, m, len(b.ModeOrder))
			}
		}
	}
	return nil
}

// validate checks one step's kind, parameters and slot layout.
func (si *StepIR) validate(nSlot int) error {
	switch si.Kind {
	case graph.Root, graph.Scanner, graph.Repeat, graph.Intersect, graph.Union,
		graph.GallopIntersect, graph.Locate, graph.Array, graph.ALU, graph.Reduce,
		graph.CrdDrop, graph.Parallelize, graph.Serialize, graph.SerializePair:
	default:
		return fmt.Errorf("block kind %v not lowerable", si.Kind)
	}
	if si.Ways < 0 || si.Ways > maxIRWays {
		return fmt.Errorf("ways %d outside [0, %d]", si.Ways, maxIRWays)
	}
	if si.RedN < 0 || si.RedN > maxIRRedN {
		return fmt.Errorf("reducer dimension %d outside [0, %d]", si.RedN, maxIRRedN)
	}
	switch si.Kind {
	case graph.Intersect, graph.Union, graph.Parallelize, graph.Serialize, graph.SerializePair:
		if si.Ways < 1 {
			return fmt.Errorf("%v needs at least one way", si.Kind)
		}
	case graph.Scanner, graph.Locate:
		if si.Level < 0 {
			return fmt.Errorf("%v level %d negative", si.Kind, si.Level)
		}
	case graph.GallopIntersect:
		if si.Level < 0 || si.LevelB < 0 {
			return fmt.Errorf("gallop levels %d/%d negative", si.Level, si.LevelB)
		}
	case graph.CrdDrop:
		if si.Drop < graph.DropCrd || si.Drop > graph.DropOrphan {
			return fmt.Errorf("dropper mode %d unknown", si.Drop)
		}
	}
	n := si.node()
	if want := len(graph.InPorts(n)); len(si.Ins) != want {
		return fmt.Errorf("%v has %d input slots, want %d", si.Kind, len(si.Ins), want)
	}
	if want := len(graph.OutPorts(n)); len(si.Outs) != want {
		return fmt.Errorf("%v has %d output slots, want %d", si.Kind, len(si.Outs), want)
	}
	for _, s := range si.Ins {
		if s < 0 || s >= nSlot {
			return fmt.Errorf("input slot %d outside stream table of %d", s, nSlot)
		}
	}
	for _, s := range si.Outs {
		if s < -1 || s >= nSlot {
			return fmt.Errorf("output slot %d outside stream table of %d", s, nSlot)
		}
	}
	return nil
}

// Materialize turns an IR back into an executable Program: it validates the
// IR, collapses a Par graph's lanes into its Par 1 program (collapse.go),
// fuses the administrative edges away (fuse.go: scanner pairs into the
// intersects they feed, then each leaf level into one step), binds one
// closure per remaining step through the opcode dispatch in stepFor, and
// recomputes what is derived — the output permutation — from the IR
// records. Derived state is never serialized, so a corrupt artifact can only
// fail validation here or a protocol check at run time.
func Materialize(ir *IR) (*Program, error) { return materialize(ir, fuse) }

// materialize validates ir, collapses it, takes the step list to execute
// from plan (fuse, or no fusion for the tests' oracle) and binds it, with the
// collapsed IR's writer table, into a Program that reports ir as its IR.
func materialize(ir *IR, plan func(*IR) ([]StepIR, []*leafExpr)) (*Program, error) {
	if err := ir.Validate(); err != nil {
		return nil, err
	}
	run, err := collapse(ir)
	if err != nil {
		return nil, err
	}
	steps, leaf := plan(run)
	perm, err := tensor.PermOf(run.LHSVars, run.OutputVars)
	if err != nil {
		return nil, err
	}
	p := &Program{ir: ir, nSlot: run.NSlot, crdWr: run.CrdWr, valsWr: run.ValsWr, perm: perm}
	p.steps = make([]stepInfo, len(steps))
	for i := range steps {
		si := &steps[i]
		if leaf[i] != nil {
			p.steps[i] = stepInfo{si: si, step: stepLeaf(si, leaf[i])}
			continue
		}
		st, err := stepFor(si)
		if err != nil {
			return nil, err
		}
		p.steps[i] = stepInfo{si: si, step: st}
	}
	p.hints = make([]atomic.Int64, p.nSlot)
	return p, nil
}

// stepFor is the opcode dispatch of Materialize: it binds one StepIR to its
// closure. Binding happens once at materialize time (direct
// threading — the run loop is a flat walk over already-bound closures), and
// the closure bodies are the same ones a direct compilation produces.
func stepFor(si *StepIR) (step, error) {
	switch si.Kind {
	case graph.Root:
		return stepRoot(si), nil
	case graph.Scanner:
		return stepScanner(si), nil
	case graph.Repeat:
		return stepRepeat(si), nil
	case graph.Intersect, graph.Union:
		return stepMerge(si), nil
	case graph.GallopIntersect:
		return stepGallop(si), nil
	case graph.Locate:
		return stepLocate(si), nil
	case graph.Array:
		return stepArray(si), nil
	case graph.ALU:
		return stepALU(si), nil
	case graph.Reduce:
		return stepReduce(si), nil
	case graph.CrdDrop:
		return stepDrop(si), nil
	}
	return nil, fmt.Errorf("comp: block kind %v not lowerable", si.Kind)
}

// splitPairs splits an interleaved crd/ref input layout (crd0,ref0,crd1,…)
// into its two slot families.
func splitPairs(ins []int, w int) (crd, ref []int) {
	crd, ref = make([]int, w), make([]int, w)
	for i := 0; i < w; i++ {
		crd[i], ref[i] = ins[2*i], ins[2*i+1]
	}
	return crd, ref
}
