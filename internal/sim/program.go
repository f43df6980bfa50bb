package sim

import (
	"fmt"
	"sync"

	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/graph"
	"sam/internal/prog"
	"sam/internal/tensor"
)

// Program is a compiled SAM graph plus every piece of execution state that
// does not depend on the input tensors: the validated wiring (each input
// port's feeding edge, each output port's fan-out group), the per-edge
// stream labels, the operand binding plan, and the graph's canonical
// fingerprint. Building a Program once and calling Run per request drops
// per-request work to input binding and net construction — the split the
// compiled-program cache in internal/serve is built on.
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
	// exactly like the wiring plan. compErr caches lowering rejection
	// (unsupported blocks), which fails every comp run of the program.
	// Artifact-backed programs (see NewProgramFromArtifact) have compProg
	// pre-set and no graph.
	compOnce sync.Once
	compProg *comp.Program
	compErr  error

	// labels holds each edge's producer-side "node/port" stream label.
	labels []string
	// ports numbers the graph's ports. inEdge maps each input port to the
	// index of the edge feeding it (Validate guarantees there is one);
	// groupOf maps each output port to its fan-out group, -1 if it drives
	// nothing; groups lists each group's member edge indices (the first is
	// the monitored stream for statistics).
	ports   *graph.PortTable
	inEdge  []int
	groupOf []int
	groups  [][]int
}

// NewProgram validates a compiled graph and precomputes its execution plan.
func NewProgram(g *graph.Graph) (*Program, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ports := graph.NewPortTable(g)
	p := &Program{
		g: g, fp: g.Fingerprint(), plan: bind.NewPlan(g),
		labels:  make([]string, len(g.Edges)),
		ports:   ports,
		inEdge:  make([]int, ports.NumIn()),
		groupOf: make([]int, ports.NumOut()),
	}
	for i := range p.groupOf {
		p.groupOf[i] = -1
	}
	// Group the edges by driving output port, in order of first appearance,
	// then lay the groups out in one slice. A fan-out group's edges share
	// one label.
	edgeGroup := make([]int, len(g.Edges))
	var groupLabel []string
	nGroups := 0
	for i, e := range g.Edges {
		p.inEdge[ports.In(e.To, e.ToPort)] = i
		k := ports.Out(e.From, e.FromPort)
		if p.groupOf[k] < 0 {
			p.groupOf[k] = nGroups
			nGroups++
			groupLabel = append(groupLabel, g.Nodes[e.From].Label+"/"+e.FromPort)
		}
		edgeGroup[i] = p.groupOf[k]
		p.labels[i] = groupLabel[edgeGroup[i]]
	}
	first := make([]int, nGroups+1)
	for _, gi := range edgeGroup {
		first[gi+1]++
	}
	for gi := 1; gi <= nGroups; gi++ {
		first[gi] += first[gi-1]
	}
	members := make([]int, len(g.Edges))
	p.groups = make([][]int, nGroups)
	for gi := range p.groups {
		p.groups[gi] = members[first[gi]:first[gi]:first[gi+1]]
	}
	for i, gi := range edgeGroup {
		p.groups[gi] = append(p.groups[gi], i)
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
