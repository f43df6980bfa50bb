package sim

import (
	"fmt"
	"strconv"
	"sync"

	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/graph"
	"sam/internal/prog"
	"sam/internal/tensor"
)

// Program is a compiled SAM graph plus every piece of execution state that
// does not depend on the input tensors: the graph's validated wiring
// (graph.Wiring: its streams, each input port's feeding edge, each output
// port's stream), each stream's label and first edge, the operand binding
// plan, and the graph's canonical fingerprint. Building a Program once and
// calling Run per request drops per-request work to input binding and net
// construction — the split the compiled-program cache in internal/serve is
// built on.
//
// A Program is immutable after NewProgram and safe for concurrent Run calls;
// every run builds its own net and queues.
type Program struct {
	g    *graph.Graph
	fp   string
	plan *bind.Plan

	// The compiled (internal/comp) lowering is built lazily, once, on the
	// first comp-engine run or Artifact call and reused for the program's
	// lifetime, so cached programs in the serving layer amortize lowering
	// exactly like the wiring. compErr caches lowering rejection
	// (unsupported blocks), which fails every comp run of the program.
	// Artifact-backed programs (see NewProgramFromArtifact) have compProg
	// pre-set and no graph.
	compOnce sync.Once
	compProg *comp.Program
	compErr  error

	// w is the graph's wiring. labels holds each stream's producer-side
	// "node/port" label, numbered past its first use ("#2", …), and first
	// each stream's first edge: the queue whose statistics Result.Streams
	// reports for the stream.
	w      *graph.Wiring
	labels []string
	first  []int

	// perm is the output's permutation from loop order to left-hand-side
	// order (tensor.PermOf).
	perm []int
}

// NewProgram validates a compiled graph and precomputes its execution plan.
func NewProgram(g *graph.Graph) (*Program, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	w, err := g.Wire()
	if err != nil {
		return nil, err
	}
	if _, _, err := g.Writers(); err != nil {
		return nil, err
	}
	perm, err := tensor.PermOf(g.LHSVars, g.OutputVars)
	if err != nil {
		return nil, err
	}
	p := &Program{
		g: g, fp: g.Fingerprint(), plan: bind.NewPlan(g), w: w, perm: perm,
		labels: make([]string, 0, w.Streams), first: make([]int, 0, w.Streams),
	}
	// Streams are numbered by first appearance in edge order, so a stream's
	// first edge is the one that carries the next number. Blocks of one kind
	// and op share a node label (two "ALU *"), so a repeated label is
	// numbered in that order: "ALU */val", then "ALU */val#2".
	seen := make(map[string]int, w.Streams)
	for i, s := range w.EdgeStream {
		if s == len(p.first) {
			e := g.Edges[i]
			l := g.Nodes[e.From].Label + "/" + e.FromPort
			seen[l]++
			if k := seen[l]; k > 1 {
				l += "#" + strconv.Itoa(k)
			}
			p.first = append(p.first, i)
			p.labels = append(p.labels, l)
		}
	}
	return p, nil
}

// NewProgramFromArtifact wraps a loaded byte artifact as a Program with no
// source graph. The artifact's embedded metadata supplies the fingerprint
// and the binding plan, and the comp engine runs the artifact's materialized
// closures directly — the artifact format is the serialized form of comp's
// lowering. The cycle engines need the graph itself and report a
// descriptive error through CheckEngine/Run.
func NewProgramFromArtifact(bp *prog.Program) (*Program, error) {
	if bp == nil {
		return nil, fmt.Errorf("sim: nil artifact")
	}
	p := &Program{fp: bp.Fingerprint(), plan: bp.Plan(), compProg: bp.Compiled()}
	p.compOnce.Do(func() {})
	return p, nil
}

// Graph returns the compiled graph the program executes, or nil for
// artifact-backed programs (see NewProgramFromArtifact).
func (p *Program) Graph() *graph.Graph { return p.g }

// name returns the program's graph name for error messages, whichever form
// backs it.
func (p *Program) name() string {
	if p.g != nil {
		return p.g.Name
	}
	return p.compProg.IR().Name
}

// compProgram returns the program's compiled-engine lowering, building it on
// first use. An error, such as a graph outside the compiled block set (see
// comp.Check), means the comp engine cannot run the program.
func (p *Program) compProgram() (*comp.Program, error) {
	p.compOnce.Do(func() {
		p.compProg, p.compErr = comp.Compile(p.g)
	})
	return p.compProg, p.compErr
}

// Artifact returns the program's portable byte-artifact form, the unit the
// serving disk cache persists: the canonical encoding of the one compiled
// lowering the comp engine runs (built on first use), identical to
// prog.Encode on the source graph. Graphs outside the compiled block set
// have no artifact form and error.
func (p *Program) Artifact() ([]byte, error) {
	cp, err := p.compProgram()
	if err != nil {
		return nil, err
	}
	return prog.EncodeIR(cp.IR()), nil
}

// Fingerprint returns the graph's canonical fingerprint (see
// graph.Graph.Fingerprint), the program's cache identity.
func (p *Program) Fingerprint() string { return p.fp }

// CheckEngine reports whether the engine can execute this program: the cycle
// engines run any graph-backed program and comp any graph comp.Check accepts,
// while an artifact-backed one carries only the compiled lowering. An unknown
// engine kind also errors.
func (p *Program) CheckEngine(kind EngineKind) error {
	if err := CheckEngineKind(kind, Engines()); err != nil {
		return err
	}
	if p.g == nil && kind != EngineComp {
		return fmt.Errorf("sim: engine %q cannot run an artifact-backed program: cycle engines need the source graph (artifact engine: %q)",
			kind, EngineComp)
	}
	if p.g != nil && kind == EngineComp {
		return comp.Check(p.g)
	}
	return nil
}

// Run executes the program against one input binding on the engine
// opt.Engine selects. It is equivalent to sim.Run on the program's graph but
// skips validation and plan construction, which Run pays on every call.
func (p *Program) Run(inputs map[string]*tensor.COO, opt Options) (*Result, error) {
	if opt.QueueCap < 0 {
		return nil, fmt.Errorf("sim: queue capacity %d is negative (0 means unbounded)", opt.QueueCap)
	}
	switch opt.Engine {
	case "", EngineEvent:
		return p.runCycle(EngineEvent, inputs, opt)
	case EngineNaive:
		return p.runCycle(EngineNaive, inputs, opt)
	case EngineComp:
		return p.runComp(inputs, opt)
	}
	return nil, CheckEngineKind(opt.Engine, Engines())
}
