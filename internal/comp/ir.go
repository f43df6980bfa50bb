package comp

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sam/internal/graph"
	"sam/internal/lang"
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
	DropVal bool
}

// node reconstructs a parameter-equivalent graph.Node, used to derive the
// canonical port layout (and so the expected Ins/Outs lengths) for
// validation.
func (si *StepIR) node() *graph.Node {
	return &graph.Node{
		Kind: si.Kind, Label: si.Label,
		Tensor: si.Tensor, TensorB: si.TensorB,
		Level: si.Level, LevelB: si.LevelB,
		Ways: si.Ways, Op: si.Op, RedN: si.RedN, DropVal: si.DropVal,
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
	CrdWr  []WriterIR // sorted by Level, one writer per output level
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

// Lower flattens a graph into its IR: slot assignment (one stream buffer
// per driven output port, discarded ports get slot -1), one StepIR per
// block in deterministic topological order, and the writer table. The same
// graph always lowers to the same IR, which is what makes the encoded
// artifact form byte-stable.
func Lower(g *graph.Graph) (*IR, error) {
	if err := Check(g); err != nil {
		return nil, err
	}
	order, err := topoOrder(g)
	if err != nil {
		return nil, err
	}
	ir := &IR{
		Name: g.Name, Expr: g.Expr, OptLevel: g.OptLevel,
		Fingerprint:  g.Fingerprint(),
		Bindings:     g.Bindings,
		OutputTensor: g.OutputTensor,
		OutputDims:   g.OutputDims,
		OutputVars:   g.OutputVars,
		LHSVars:      g.LHSVars,
	}

	// One stream buffer per driven output port; fan-out consumers read the
	// same buffer. Undriven diagnostic ports write to slot -1 (discarded).
	ports := graph.NewPortTable(g)
	outSlot := make([]int, ports.NumOut())
	inSlot := make([]int, ports.NumIn())
	for _, slots := range [][]int{outSlot, inSlot} {
		for i := range slots {
			slots[i] = -1
		}
	}
	for _, e := range g.Edges {
		k, in := ports.Out(e.From, e.FromPort), ports.In(e.To, e.ToPort)
		if k < 0 || in < 0 {
			return nil, fmt.Errorf("comp: edge %q/%s -> %q/%s names a port its block lacks",
				g.Nodes[e.From].Label, e.FromPort, g.Nodes[e.To].Label, e.ToPort)
		}
		if outSlot[k] < 0 {
			outSlot[k] = ir.NSlot
			ir.NSlot++
		}
		inSlot[in] = outSlot[k]
	}
	inSlotOf := func(n *graph.Node, port string) (int, error) {
		if k := ports.In(n.ID, port); k >= 0 && inSlot[k] >= 0 {
			return inSlot[k], nil
		}
		return 0, fmt.Errorf("comp: node %q input port %q unconnected", n.Label, port)
	}

	// Every step's Ins and Outs are carved from one slice: a node's lists
	// take at most its port counts.
	slots := make([]int, 0, ports.NumIn()+ports.NumOut())
	ir.Steps = make([]StepIR, 0, len(order))
	crdWr := map[int]WriterIR{}
	valsSeen := false
	for _, n := range order {
		if n.Kind == graph.CrdWriter || n.Kind == graph.ValsWriter {
			port := "crd"
			if n.Kind == graph.ValsWriter {
				port = "val"
			}
			slot, err := inSlotOf(n, port)
			if err != nil {
				return nil, err
			}
			if n.Kind == graph.ValsWriter {
				ir.ValsWr = WriterIR{Slot: slot, Label: n.Label}
				valsSeen = true
			} else {
				crdWr[n.OutLevel] = WriterIR{Level: n.OutLevel, Slot: slot, Label: n.Label}
			}
			continue
		}
		si := StepIR{
			Kind: n.Kind, Label: n.Label,
			Tensor: n.Tensor, TensorB: n.TensorB,
			Level: n.Level, LevelB: n.LevelB,
			Ways: n.Ways, Op: n.Op, RedN: n.RedN, DropVal: n.DropVal,
		}
		for _, port := range graph.InPorts(n) {
			s, err := inSlotOf(n, port)
			if err != nil {
				return nil, err
			}
			slots = append(slots, s)
		}
		si.Ins, slots = carve(slots)
		for _, port := range graph.OutPorts(n) {
			slots = append(slots, outSlot[ports.Out(n.ID, port)])
		}
		si.Outs, slots = carve(slots)
		ir.Steps = append(ir.Steps, si)
	}
	if !valsSeen {
		return nil, fmt.Errorf("comp: graph %q has no value writer", g.Name)
	}
	levels := make([]int, 0, len(crdWr))
	for lvl := range crdWr {
		levels = append(levels, lvl)
	}
	sort.Ints(levels)
	for _, lvl := range levels {
		ir.CrdWr = append(ir.CrdWr, crdWr[lvl])
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
	prev := -1
	for _, w := range ir.CrdWr {
		if w.Level < 0 || w.Level <= prev {
			return fmt.Errorf("comp: ir: coordinate writer levels must be distinct and ascending, got %d after %d", w.Level, prev)
		}
		prev = w.Level
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
	// the same set in loop order; Materialize sizes the permutation by one
	// and indexes it by the other, so the lengths must agree and the
	// variables must be distinct.
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
		graph.CrdDrop, graph.Parallelize, graph.Serialize, graph.SerializePair,
		graph.LaneReduce:
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
	case graph.LaneReduce:
		if si.Ways != 2 {
			return fmt.Errorf("lane reducer wants 2 ways, got %d", si.Ways)
		}
	case graph.Scanner, graph.Locate:
		if si.Level < 0 {
			return fmt.Errorf("%v level %d negative", si.Kind, si.Level)
		}
	case graph.GallopIntersect:
		if si.Level < 0 || si.LevelB < 0 {
			return fmt.Errorf("gallop levels %d/%d negative", si.Level, si.LevelB)
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
// IR, fuses the administrative edges away (fuse.go: scanner pairs into the
// intersects they feed, then each leaf level into one step), binds one
// closure per remaining step through the opcode dispatch in stepFor, and
// recomputes what is derived — the output permutation — from the IR
// records. Derived state is never serialized, so a corrupt artifact can only
// fail validation here or a protocol check at run time.
func Materialize(ir *IR) (*Program, error) {
	if err := ir.Validate(); err != nil {
		return nil, err
	}
	steps, leaf := fuse(ir)
	return materialize(ir, steps, leaf)
}

// materialize binds a validated IR's metadata and the step list to execute
// (ir.Steps after fusion, leaf as fuse returns it) into a Program.
func materialize(ir *IR, steps []StepIR, leaf []*leafExpr) (*Program, error) {
	p := &Program{ir: ir, nSlot: ir.NSlot, crdWr: map[int]writerRec{}}
	for _, w := range ir.CrdWr {
		p.crdWr[w.Level] = writerRec{label: w.Label, slot: w.Slot}
	}
	p.valsWr = &writerRec{label: ir.ValsWr.Label, slot: ir.ValsWr.Slot}
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

	// Precompute the output permutation once; a missing variable surfaces
	// at assembly time, after stream validation, like the other engines.
	nOut := len(ir.OutputVars)
	p.perm = make([]int, nOut)
	p.idPerm = true
	for i, v := range ir.LHSVars {
		found := false
		for j, u := range ir.OutputVars {
			if u == v {
				p.perm[i] = j
				found = true
			}
		}
		if !found {
			p.permErr = fmt.Errorf("comp: output variable %q missing from graph metadata", v)
			break
		}
		if p.perm[i] != i {
			p.idPerm = false
		}
	}
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
	case graph.Parallelize:
		return stepParallelize(si), nil
	case graph.Serialize, graph.SerializePair:
		return stepSerialize(si), nil
	case graph.LaneReduce:
		return stepLaneReduce(si), nil
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
