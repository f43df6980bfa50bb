package opt

import (
	"fmt"
	"sort"

	"sam/internal/graph"
)

// port names one side of a stream wire: a node ID plus a port name.
type port struct {
	node int
	name string
}

// srcOf maps every driven input port to the output port feeding it.
func srcOf(g *graph.Graph) map[port]port {
	m := make(map[port]port, len(g.Edges))
	for _, e := range g.Edges {
		m[port{e.To, e.ToPort}] = port{e.From, e.FromPort}
	}
	return m
}

// redirect repoints every edge leaving from onto to, moving all of from's
// consumers. It returns how many edges moved.
func redirect(g *graph.Graph, from, to port) int {
	n := 0
	for _, e := range g.Edges {
		if e.From == from.node && e.FromPort == from.name {
			e.From, e.FromPort = to.node, to.name
			n++
		}
	}
	return n
}

// removeNodes deletes the nodes marked in dead (indexed by node ID), every
// edge touching them, and compacts IDs so node ID equals slice index again.
// Edge order among survivors is preserved, keeping rewrites deterministic.
func removeNodes(g *graph.Graph, dead []bool) {
	newID := make([]int, len(g.Nodes))
	live := 0
	for id := range g.Nodes {
		newID[id] = -1
		if !dead[id] {
			newID[id] = live
			live++
		}
	}
	if live == len(g.Nodes) {
		return
	}
	nodes := make([]*graph.Node, 0, live)
	for _, n := range g.Nodes {
		if newID[n.ID] >= 0 {
			n.ID = newID[n.ID]
			nodes = append(nodes, n)
		}
	}
	var edges []*graph.Edge
	for _, e := range g.Edges {
		nf, nt := newID[e.From], newID[e.To]
		if nf < 0 || nt < 0 {
			continue
		}
		e.From, e.To = nf, nt
		edges = append(edges, e)
	}
	g.Nodes, g.Edges = nodes, edges
}

// portIndex returns the position of name in ports, or -1.
func portIndex(ports []string, name string) int {
	for i, p := range ports {
		if p == name {
			return i
		}
	}
	return -1
}

// topoOrder returns the node IDs in a deterministic topological order
// (producers before consumers, ties broken by ID). Graphs are DAGs by
// construction; a cycle is reported as an error.
func topoOrder(g *graph.Graph) ([]int, error) {
	indeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	succFirst, succ := graph.EdgeLists(g, func(e *graph.Edge) (int, int) { return e.From, e.To })
	var ready []int
	for id := range g.Nodes {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, len(g.Nodes))
	var freed []int
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		freed = freed[:0]
		for _, s := range succ[succFirst[id]:succFirst[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				freed = append(freed, s)
			}
		}
		sort.Ints(freed)
		ready = append(ready, freed...)
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph contains a cycle")
	}
	return order, nil
}

// sinkKind reports whether the block materializes output state; sinks anchor
// liveness and are never deduplicated.
func sinkKind(k graph.Kind) bool {
	switch k {
	case graph.CrdWriter, graph.ValsWriter, graph.BVWriter, graph.VecValsWriter:
		return true
	}
	return false
}

// operandKind reports whether the block's Tensor (and TensorB) fields name
// input operand bindings rather than the output tensor.
func operandKind(k graph.Kind) bool {
	switch k {
	case graph.Scanner, graph.BVScanner, graph.GallopIntersect, graph.Locate,
		graph.Array, graph.VecLoad:
		return true
	}
	return false
}
