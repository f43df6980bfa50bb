// Package graph defines the SAM dataflow graph intermediate representation:
// the typed blocks and streams that Custard compiles tensor index notation
// into, and that the simulator executes. Graphs can be validated
// structurally and exported to Graphviz DOT (the representation the paper's
// artifact stores SAM graphs in).
package graph

import (
	"fmt"
	"strconv"

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

// InPorts lists the input port names required by a node. The list may be
// shared between calls and must not be modified.
func InPorts(n *Node) []string {
	switch n.Kind {
	case Root:
		return nil
	case Scanner, BVScanner, Array:
		return portsRef
	case Repeat:
		return portsCrdRef
	case Intersect, Union:
		ps := make([]string, 0, 2*n.Ways)
		for i := 0; i < n.Ways; i++ {
			ps = append(ps, PortName("crd", i), PortName("ref", i))
		}
		return ps
	case GallopIntersect:
		return portsRef01
	case Locate:
		return portsLocateIn
	case ALU, VecALU:
		return portsAB
	case Reduce:
		return reducePorts(n)
	case CrdDrop:
		if n.DropVal {
			return portsOuterVal
		}
		return portsOuterInner
	case CrdWriter, BVConvert:
		return portsCrd
	case ValsWriter:
		return portsVal
	case BVIntersect:
		return portsBVIntersectIn
	case VecLoad, BVExpand:
		return portsBVMaskBase
	case BVWriter:
		return portsBV
	case VecValsWriter:
		return portsBVVal
	case Parallelize:
		return portsIn
	case Serialize:
		return lanePorts(n, "in")
	case SerializePair:
		return lanePorts(n, "crd", "val")
	case LaneReduce:
		ps := make([]string, 0, n.Ways*(n.RedN+1))
		for s := 0; s < n.Ways; s++ {
			for q := 0; q < n.RedN; q++ {
				ps = append(ps, PortName("crd", q)+"_"+strconv.Itoa(s))
			}
			ps = append(ps, PortName("val", s))
		}
		return ps
	}
	return nil
}

// OutPorts lists the output port names produced by a node. The list may be
// shared between calls and must not be modified.
func OutPorts(n *Node) []string {
	switch n.Kind {
	case Root, Repeat, BVExpand:
		return portsRef
	case Scanner:
		return portsCrdRef
	case BVScanner:
		return portsBVRef
	case Intersect, Union:
		return appendIndexed(append(make([]string, 0, 1+n.Ways), "crd"), "ref", n.Ways)
	case GallopIntersect:
		return portsGallopOut
	case Locate:
		return portsLocateOut
	case Array, ALU, VecALU, VecLoad:
		return portsVal
	case Reduce:
		return reducePorts(n)
	case CrdDrop:
		if n.DropVal {
			return portsOuterVal
		}
		return portsOuterInner
	case BVIntersect:
		return portsBVIntersectOut
	case BVConvert:
		return portsBV
	case Parallelize:
		return appendIndexed(nil, "out", n.Ways)
	case Serialize:
		return portsOut
	case SerializePair:
		return portsCrdVal
	case LaneReduce:
		return append(appendIndexed(make([]string, 0, n.RedN+1), "crd", n.RedN), "val")
	}
	return nil
}

// Validate checks structural well-formedness, in this order: every edge
// references existing nodes, leaves from one of its source's output ports
// and enters one of its target's input ports, and then every input port of
// every node has exactly one incoming edge. Output ports may drive nothing:
// a block's diagnostic outputs (a merger's unused references, say) are
// legitimately left undriven. Edges name nodes by slice index, which equals
// the node ID (AddNode assigns it so).
func (g *Graph) Validate() error {
	t := NewPortTable(g)
	drivers := make([]int, t.NumIn())
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("graph: edge references missing node: %+v", e)
		}
		if t.Out(e.From, e.FromPort) < 0 {
			from := g.Nodes[e.From]
			return fmt.Errorf("graph: node %d (%s) has no output port %q", from.ID, from.Label, e.FromPort)
		}
		in := t.In(e.To, e.ToPort)
		if in < 0 {
			to := g.Nodes[e.To]
			return fmt.Errorf("graph: node %d (%s) has no input port %q", to.ID, to.Label, e.ToPort)
		}
		drivers[in]++
	}
	for i, n := range g.Nodes {
		for j, p := range t.ports[2*i] {
			if c := drivers[t.first[2*i]+j]; c != 1 {
				return fmt.Errorf("graph: node %d (%s) input port %q has %d drivers, want 1", n.ID, n.Label, p, c)
			}
		}
	}
	return nil
}

// PortTable numbers a graph's ports densely, so per-port state lives in
// slices instead of maps keyed by node and port name: node i's input ports
// are numbered first[2i] … in InPorts order, 0 … NumIn()-1 over the whole
// graph, and its output ports first[2i+1] … in OutPorts order, 0 …
// NumOut()-1. Each node's port lists are resolved once.
type PortTable struct {
	ports [][]string // node i's inputs at 2i, its outputs at 2i+1
	first []int      // numbering starts, laid out like ports; two totals last
}

// NewPortTable numbers g's ports.
func NewPortTable(g *Graph) *PortTable {
	t := &PortTable{ports: make([][]string, 2*len(g.Nodes)), first: make([]int, 2*len(g.Nodes)+2)}
	nIn, nOut := 0, 0
	for i, n := range g.Nodes {
		t.ports[2*i], t.ports[2*i+1] = InPorts(n), OutPorts(n)
		t.first[2*i], t.first[2*i+1] = nIn, nOut
		nIn += len(t.ports[2*i])
		nOut += len(t.ports[2*i+1])
	}
	t.first[2*len(g.Nodes)], t.first[2*len(g.Nodes)+1] = nIn, nOut
	return t
}

// NumIn is the number of input ports in the graph.
func (t *PortTable) NumIn() int { return t.first[len(t.first)-2] }

// NumOut is the number of output ports in the graph.
func (t *PortTable) NumOut() int { return t.first[len(t.first)-1] }

// In returns the number of node's input port, or -1 if it has none by that
// name.
func (t *PortTable) In(node int, port string) int { return t.lookup(2*node, port) }

// Out returns the number of node's output port, or -1 if it has none by
// that name.
func (t *PortTable) Out(node int, port string) int { return t.lookup(2*node+1, port) }

func (t *PortTable) lookup(k int, port string) int {
	for j, p := range t.ports[k] {
		if p == port {
			return t.first[k] + j
		}
	}
	return -1
}

// EdgeLists buckets g's edges by node, keeping edge order within a bucket:
// split maps an edge to its bucket's node and its item, and node i's items
// are items[first[i]:first[i+1]].
func EdgeLists[T any](g *Graph, split func(*Edge) (int, T)) (first []int, items []T) {
	first = make([]int, len(g.Nodes)+1)
	for _, e := range g.Edges {
		k, _ := split(e)
		first[k]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	// first[k] is now the end of bucket k; filling backwards leaves it at
	// the start.
	items = make([]T, len(g.Edges))
	for i := len(g.Edges) - 1; i >= 0; i-- {
		k, item := split(g.Edges[i])
		first[k]--
		items[first[k]] = item
	}
	return first, items
}

// Fixed-arity port lists, shared by every node of their kinds.
var (
	portsRef            = []string{"ref"}
	portsCrd            = []string{"crd"}
	portsVal            = []string{"val"}
	portsBV             = []string{"bv"}
	portsIn             = []string{"in"}
	portsOut            = []string{"out"}
	portsAB             = []string{"a", "b"}
	portsCrdRef         = []string{"crd", "ref"}
	portsCrdVal         = []string{"crd", "val"}
	portsBVRef          = []string{"bv", "ref"}
	portsBVVal          = []string{"bv", "val"}
	portsRef01          = []string{"ref0", "ref1"}
	portsOuterVal       = []string{"outer", "val"}
	portsOuterInner     = []string{"outer", "inner"}
	portsLocateIn       = []string{"crd", "ref", "fiber"}
	portsLocateOut      = []string{"crd", "ref", "loc"}
	portsGallopOut      = []string{"crd", "ref0", "ref1"}
	portsBVMaskBase     = []string{"bv", "mask", "base"}
	portsBVIntersectIn  = []string{"bv0", "ref0", "bv1", "ref1"}
	portsBVIntersectOut = []string{"bv", "mask0", "base0", "mask1", "base1"}
)

// reducePorts lists a reducer's ports: n coordinate streams plus values.
func reducePorts(n *Node) []string {
	switch n.RedN {
	case 0:
		return portsVal
	case 1:
		return portsCrdVal
	}
	return append(appendIndexed(make([]string, 0, n.RedN+1), "crd", n.RedN), "val")
}

// lanePorts lists a lane join's inputs: one family per prefix, each
// prefix0 … prefix(Ways-1), then the per-lane rotation drivers drv0 … .
// Joins deeper than the fork level (Level >= 0) are driven by copies of the
// forked outermost coordinate stream, whose data tokens count the chunks
// each lane owes; element-granularity joins (Level < 0) drive themselves.
func lanePorts(n *Node, prefixes ...string) []string {
	ps := make([]string, 0, (len(prefixes)+1)*max(n.Ways, 0))
	for _, prefix := range prefixes {
		ps = appendIndexed(ps, prefix, n.Ways)
	}
	if n.Level >= 0 {
		ps = appendIndexed(ps, "drv", n.Ways)
	}
	return ps
}

// appendIndexed appends the port names prefix0 … prefix(n-1).
func appendIndexed(ps []string, prefix string, n int) []string {
	for i := 0; i < n; i++ {
		ps = append(ps, PortName(prefix, i))
	}
	return ps
}

// maxInterned bounds the indexes whose port names are interned.
const maxInterned = 16

// Interned indexed port names below maxInterned.
var (
	crdNames = indexedNames("crd")
	refNames = indexedNames("ref")
	inNames  = indexedNames("in")
	outNames = indexedNames("out")
	drvNames = indexedNames("drv")
	valNames = indexedNames("val")
)

func indexedNames(prefix string) []string {
	names := make([]string, maxInterned)
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

// PortName returns the indexed port name prefix+i ("crd0", "ref3", "out1",
// …), interned for the prefixes crd, ref, in, out, drv and val and small i,
// so the common names cost no allocation.
func PortName(prefix string, i int) string {
	var names []string
	switch prefix {
	case "crd":
		names = crdNames
	case "ref":
		names = refNames
	case "in":
		names = inNames
	case "out":
		names = outNames
	case "drv":
		names = drvNames
	case "val":
		names = valNames
	}
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return prefix + strconv.Itoa(i)
}
