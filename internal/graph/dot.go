package graph

import (
	"fmt"
	"sort"
	"strings"
)

// dotStyle maps block kinds to Graphviz appearance, mirroring the coloring
// convention of the paper's figures (scanners and writers per tensor path,
// compute blocks neutral).
func dotStyle(k Kind) string {
	switch k {
	case Root:
		return `shape=point`
	case Scanner, BVScanner:
		return `shape=box style=filled fillcolor="#c9b8ea"`
	case Repeat:
		return `shape=box style=filled fillcolor="#b5d3f0"`
	case Intersect, GallopIntersect, BVIntersect:
		return `shape=invtrapezium style=filled fillcolor="#f2e3a4"`
	case Union:
		return `shape=trapezium style=filled fillcolor="#f2e3a4"`
	case Locate:
		return `shape=box style=filled fillcolor="#f2c7a4"`
	case Array, VecLoad:
		return `shape=cylinder style=filled fillcolor="#dddddd"`
	case ALU, VecALU:
		return `shape=circle style=filled fillcolor="#c4e3c4"`
	case Reduce:
		return `shape=doublecircle style=filled fillcolor="#c4e3c4"`
	case CrdDrop:
		return `shape=diamond style=filled fillcolor="#e8b4b4"`
	case CrdWriter, ValsWriter, BVWriter, VecValsWriter:
		return `shape=box style=filled fillcolor="#f5c78f"`
	case Parallelize, Serialize, SerializePair:
		return `shape=house style=filled fillcolor="#bfe6e0"`
	default:
		return `shape=box`
	}
}

// edgeStyle renders reference streams stippled, coordinate streams solid and
// value streams bold, matching Figure 4's legend.
func edgeStyle(port string) string {
	switch {
	case strings.HasPrefix(port, "ref") || port == "loc" || strings.HasPrefix(port, "base") || port == "fiber":
		return `style=dashed`
	case strings.HasPrefix(port, "val") || port == "a" || port == "b":
		return `style=bold`
	default:
		return `style=solid`
	}
}

// DOT renders the graph in Graphviz format.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	fmt.Fprintf(&b, "  rankdir=LR;\n")
	if g.Expr != "" {
		fmt.Fprintf(&b, "  label=%q;\n", g.Expr)
	}
	for _, n := range g.Nodes {
		label := n.Label
		if label == "" {
			label = n.Kind.String()
		}
		fmt.Fprintf(&b, "  n%d [label=%q %s];\n", n.ID, label, dotStyle(n.Kind))
	}
	edges := append([]*Edge(nil), g.Edges...)
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q %s];\n", e.From, e.To, e.FromPort, edgeStyle(e.FromPort))
	}
	fmt.Fprintf(&b, "}\n")
	return b.String()
}
