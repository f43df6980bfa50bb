// Package graph defines the SAM dataflow graph intermediate representation:
// the typed blocks and streams that Custard compiles tensor index notation
// into, and that the simulator executes. Graphs can be validated
// structurally and exported to Graphviz DOT (the representation the paper's
// artifact stores SAM graphs in).
package graph

import (
	"fmt"

	"sam/internal/fiber"
	"sam/internal/lang"
)

// Kind enumerates SAM block types (paper Sections 3 and 4).
type Kind int

// Block kinds.
const (
	Root Kind = iota
	Scanner
	BVScanner
	Repeat
	Intersect
	GallopIntersect
	Union
	Locate
	Array
	ALU
	Reduce
	CrdDrop
	CrdWriter
	ValsWriter
	BVIntersect
	VecLoad
	VecALU
	BVExpand
	BVConvert
	BVWriter
	VecValsWriter
	Parallelize
	Serialize
	SerializePair
	LaneReduce
)

func (k Kind) String() string {
	switch k {
	case Root:
		return "root"
	case Scanner:
		return "scanner"
	case BVScanner:
		return "bvscanner"
	case Repeat:
		return "repeat"
	case Intersect:
		return "intersect"
	case GallopIntersect:
		return "gallop"
	case Union:
		return "union"
	case Locate:
		return "locate"
	case Array:
		return "array"
	case ALU:
		return "alu"
	case Reduce:
		return "reduce"
	case CrdDrop:
		return "crddrop"
	case CrdWriter:
		return "crdwriter"
	case ValsWriter:
		return "valswriter"
	case BVIntersect:
		return "bvintersect"
	case VecLoad:
		return "vecload"
	case VecALU:
		return "vecalu"
	case BVExpand:
		return "bvexpand"
	case BVConvert:
		return "bvconvert"
	case BVWriter:
		return "bvwriter"
	case VecValsWriter:
		return "vecvalswriter"
	case Parallelize:
		return "parallelize"
	case Serialize:
		return "serialize"
	case SerializePair:
		return "serializepair"
	case LaneReduce:
		return "lanereduce"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one SAM block instance.
type Node struct {
	ID    int
	Kind  Kind
	Label string

	// Tensor binding for scanners, arrays, locators, writers; the gallop
	// intersecter binds a second tensor/level pair. Parallelizers and
	// serializers reuse Level as the fork/join granularity: the lane
	// advances after each stop token of exactly Level, or after each data
	// token when Level is -1 (element granularity, used at the outermost
	// loop level).
	Tensor  string
	Level   int
	TensorB string
	LevelB  int

	// Format of the scanned or written level.
	Format fiber.Format

	// Ways is the arity of intersecters/unioners and the lane count of
	// parallelizers, serializers and lane combiners.
	Ways int

	// Op is the ALU operation.
	Op lang.Op

	// RedN is the reducer dimension n of paper Definition 3.7: the number of
	// coordinate streams a reducer (and a lane combiner) carries beside its
	// values — 0 for the scalar reducer, one per kept variable below the
	// reduced one otherwise.
	RedN int

	// DropVal selects the value mode of a coordinate dropper.
	DropVal bool

	// OutLevel is the output level index a writer materializes.
	OutLevel int
}

// Edge is one stream wire between two block ports.
type Edge struct {
	From     int
	FromPort string
	To       int
	ToPort   string
}

// DimRef names an input tensor mode whose size defines an output dimension.
type DimRef struct {
	Tensor string
	Mode   int
}

// Binding maps one operand (a tensor access occurrence, the unit scanners
// and arrays are wired to) to its source tensor, the mode order its levels
// are stored in (level d holds source mode ModeOrder[d]), and its per-level
// storage formats.
type Binding struct {
	Operand   string
	Source    string
	ModeOrder []int
	Formats   []fiber.Format
}

// Graph is a complete SAM dataflow graph plus the output-tensor metadata the
// simulator needs to assemble the result.
type Graph struct {
	Name  string
	Expr  string
	Nodes []*Node
	Edges []*Edge

	// OptLevel records the optimization level applied to the graph (0 = as
	// lowered, the paper-faithful form). internal/opt sets it. It is identity
	// only: no engine reads it, but it is part of the fingerprint and the
	// artifact, so an optimized graph never aliases an unoptimized one.
	OptLevel int

	Bindings []Binding

	// Output metadata: the result tensor's name, level formats and level
	// dimensions (in the loop order the graph produces them), the output
	// variables in that order, and the left-hand-side variable order the
	// user declared.
	OutputTensor  string
	OutputFormats []fiber.Format
	OutputDims    []DimRef
	OutputVars    []string
	LHSVars       []string
}

// Clone returns a deep copy of the graph: nodes, edges, bindings, and output
// metadata are all fresh allocations, so rewriting passes can transform the
// copy while callers keep the original for differential comparison.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name: g.Name, Expr: g.Expr, OptLevel: g.OptLevel,
		OutputTensor:  g.OutputTensor,
		OutputFormats: append([]fiber.Format(nil), g.OutputFormats...),
		OutputDims:    append([]DimRef(nil), g.OutputDims...),
		OutputVars:    append([]string(nil), g.OutputVars...),
		LHSVars:       append([]string(nil), g.LHSVars...),
	}
	c.Nodes = make([]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		cp := *n
		c.Nodes[i] = &cp
	}
	c.Edges = make([]*Edge, len(g.Edges))
	for i, e := range g.Edges {
		cp := *e
		c.Edges[i] = &cp
	}
	c.Bindings = make([]Binding, len(g.Bindings))
	for i, b := range g.Bindings {
		cp := b
		cp.ModeOrder = append([]int(nil), b.ModeOrder...)
		cp.Formats = append([]fiber.Format(nil), b.Formats...)
		c.Bindings[i] = cp
	}
	return c
}

// AddNode appends a node, assigning its ID.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

// Connect adds an edge between two ports.
func (g *Graph) Connect(from *Node, fromPort string, to *Node, toPort string) {
	g.Edges = append(g.Edges, &Edge{From: from.ID, FromPort: fromPort, To: to.ID, ToPort: toPort})
}

// Count returns the number of nodes of the given kind.
func (g *Graph) Count(k Kind) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

// InPorts lists the input port names required by a node.
func InPorts(n *Node) []string {
	switch n.Kind {
	case Root:
		return nil
	case Scanner, BVScanner:
		return []string{"ref"}
	case Repeat:
		return []string{"crd", "ref"}
	case Intersect, Union:
		ps := make([]string, 0, 2*n.Ways)
		for i := 0; i < n.Ways; i++ {
			ps = append(ps, fmt.Sprintf("crd%d", i), fmt.Sprintf("ref%d", i))
		}
		return ps
	case GallopIntersect:
		return []string{"ref0", "ref1"}
	case Locate:
		return []string{"crd", "ref", "fiber"}
	case Array:
		return []string{"ref"}
	case ALU, VecALU:
		return []string{"a", "b"}
	case Reduce:
		return reducePorts(n)
	case CrdDrop:
		if n.DropVal {
			return []string{"outer", "val"}
		}
		return []string{"outer", "inner"}
	case CrdWriter:
		return []string{"crd"}
	case ValsWriter:
		return []string{"val"}
	case BVIntersect:
		return []string{"bv0", "ref0", "bv1", "ref1"}
	case VecLoad, BVExpand:
		return []string{"bv", "mask", "base"}
	case BVConvert:
		return []string{"crd"}
	case BVWriter:
		return []string{"bv"}
	case VecValsWriter:
		return []string{"bv", "val"}
	case Parallelize:
		return []string{"in"}
	case Serialize:
		ps := make([]string, n.Ways)
		for i := range ps {
			ps[i] = fmt.Sprintf("in%d", i)
		}
		return append(ps, drvPorts(n)...)
	case SerializePair:
		ps := make([]string, 0, 2*n.Ways)
		for i := 0; i < n.Ways; i++ {
			ps = append(ps, fmt.Sprintf("crd%d", i))
		}
		for i := 0; i < n.Ways; i++ {
			ps = append(ps, fmt.Sprintf("val%d", i))
		}
		return append(ps, drvPorts(n)...)
	case LaneReduce:
		ps := make([]string, 0, n.Ways*(n.RedN+1))
		for s := 0; s < n.Ways; s++ {
			for q := 0; q < n.RedN; q++ {
				ps = append(ps, fmt.Sprintf("crd%d_%d", q, s))
			}
			ps = append(ps, fmt.Sprintf("val%d", s))
		}
		return ps
	}
	return nil
}

// OutPorts lists the output port names produced by a node.
func OutPorts(n *Node) []string {
	switch n.Kind {
	case Root:
		return []string{"ref"}
	case Scanner:
		return []string{"crd", "ref"}
	case BVScanner:
		return []string{"bv", "ref"}
	case Repeat:
		return []string{"ref"}
	case Intersect, Union:
		ps := []string{"crd"}
		for i := 0; i < n.Ways; i++ {
			ps = append(ps, fmt.Sprintf("ref%d", i))
		}
		return ps
	case GallopIntersect:
		return []string{"crd", "ref0", "ref1"}
	case Locate:
		return []string{"crd", "ref", "loc"}
	case Array, ALU, VecALU, VecLoad:
		return []string{"val"}
	case Reduce:
		return reducePorts(n)
	case CrdDrop:
		if n.DropVal {
			return []string{"outer", "val"}
		}
		return []string{"outer", "inner"}
	case BVIntersect:
		return []string{"bv", "mask0", "base0", "mask1", "base1"}
	case BVExpand:
		return []string{"ref"}
	case BVConvert:
		return []string{"bv"}
	case Parallelize:
		ps := make([]string, n.Ways)
		for i := range ps {
			ps[i] = fmt.Sprintf("out%d", i)
		}
		return ps
	case Serialize:
		return []string{"out"}
	case SerializePair:
		return []string{"crd", "val"}
	case LaneReduce:
		ps := make([]string, 0, n.RedN+1)
		for q := 0; q < n.RedN; q++ {
			ps = append(ps, fmt.Sprintf("crd%d", q))
		}
		return append(ps, "val")
	}
	return nil
}

// Validate checks structural well-formedness: every required input port has
// exactly one incoming edge, every edge references existing nodes and legal
// ports, and every output port of a non-sink node drives at least one input.
func (g *Graph) Validate() error {
	type portKey struct {
		node int
		port string
	}
	inCount := map[portKey]int{}
	outUsed := map[portKey]bool{}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("graph: edge references missing node: %+v", e)
		}
		from, to := g.Nodes[e.From], g.Nodes[e.To]
		if !contains(OutPorts(from), e.FromPort) {
			return fmt.Errorf("graph: node %d (%s) has no output port %q", from.ID, from.Label, e.FromPort)
		}
		if !contains(InPorts(to), e.ToPort) {
			return fmt.Errorf("graph: node %d (%s) has no input port %q", to.ID, to.Label, e.ToPort)
		}
		inCount[portKey{e.To, e.ToPort}]++
		outUsed[portKey{e.From, e.FromPort}] = true
	}
	for _, n := range g.Nodes {
		for _, p := range InPorts(n) {
			c := inCount[portKey{n.ID, p}]
			if c != 1 {
				return fmt.Errorf("graph: node %d (%s) input port %q has %d drivers, want 1", n.ID, n.Label, p, c)
			}
		}
	}
	return nil
}

// drvPorts lists a serializer's per-lane rotation-driver ports. Serializers
// joining streams deeper than the fork level (Level >= 0) are driven by
// copies of the forked outermost coordinate stream, whose data tokens count
// the chunks each lane owes; element-granularity joins (Level < 0) drive
// themselves.
func drvPorts(n *Node) []string {
	if n.Level < 0 {
		return nil
	}
	ps := make([]string, n.Ways)
	for i := range ps {
		ps[i] = fmt.Sprintf("drv%d", i)
	}
	return ps
}

// reducePorts lists a reducer's ports: n coordinate streams plus values.
func reducePorts(n *Node) []string {
	switch n.RedN {
	case 0:
		return []string{"val"}
	case 1:
		return []string{"crd", "val"}
	default:
		ps := make([]string, 0, n.RedN+1)
		for i := 0; i < n.RedN; i++ {
			ps = append(ps, fmt.Sprintf("crd%d", i))
		}
		return append(ps, "val")
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
