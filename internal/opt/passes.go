package opt

import (
	"encoding/binary"
	"strconv"
	"strings"

	"sam/internal/graph"
)

// runDedup is common-stream deduplication. It first merges equivalent
// operand bindings — two accesses of the same source tensor stored in the
// same mode order and formats bind to identical fibertrees, so one binding
// (and one storage build per run) suffices — then hash-conses pure blocks in
// topological order: two non-sink blocks with the same kind, configuration,
// and input streams compute the same output streams, so the duplicate's
// consumers move onto the first block's ports and the duplicate dies. Every
// block except the level writers is a deterministic function of its
// configuration and input streams (root sources all emit the root reference
// stream, so they all merge), which makes the rewrite bit-exact.
func runDedup(g *graph.Graph) (int, error) {
	applied := 0

	// Phase 1: binding canonicalization.
	rename := map[string]string{}
	repByKey := map[string]string{}
	var keep []graph.Binding
	for _, b := range g.Bindings {
		key := bindingKey(b)
		if rep, ok := repByKey[key]; ok {
			rename[b.Operand] = rep
			applied++
			continue
		}
		repByKey[key] = b.Operand
		keep = append(keep, b)
	}
	if len(rename) > 0 {
		g.Bindings = keep
		for _, n := range g.Nodes {
			if !operandKind(n.Kind) {
				continue
			}
			if r, ok := rename[n.Tensor]; ok {
				n.Tensor = r
			}
			if r, ok := rename[n.TensorB]; ok {
				n.TensorB = r
			}
		}
	}

	// Phase 2: hash-consing in topological order, so every block's inputs
	// are already canonical when its own key is computed.
	order, err := topoOrder(g)
	if err != nil {
		return applied, err
	}
	inFirst, inEdges := graph.EdgeLists(g, func(e *graph.Edge) (int, *graph.Edge) { return e.To, e })
	canon := make([]int, len(g.Nodes))
	seen := map[string]int{}
	dead := make([]bool, len(g.Nodes))
	var key []byte
	var srcs []port
	for _, id := range order {
		n := g.Nodes[id]
		ins := graph.InPorts(n)
		srcs = append(srcs[:0], make([]port, len(ins))...)
		for _, e := range inEdges[inFirst[id]:inFirst[id+1]] {
			e.From = canon[e.From]
			if j := portIndex(ins, e.ToPort); j >= 0 {
				srcs[j] = port{e.From, e.FromPort}
			}
		}
		canon[id] = id
		if sinkKind(n.Kind) {
			continue
		}
		key = appendNodeKey(key[:0], n, srcs)
		if rep, ok := seen[string(key)]; ok {
			canon[id] = rep
			dead[id] = true
			applied++
			continue
		}
		seen[string(key)] = id
	}
	removeNodes(g, dead)
	return applied, nil
}

// bindingKey identifies bindings that resolve to identical storage.
func bindingKey(b graph.Binding) string {
	var s strings.Builder
	s.WriteString(b.Source)
	s.WriteByte('|')
	for _, m := range b.ModeOrder {
		s.WriteString(strconv.Itoa(m))
		s.WriteByte(',')
	}
	s.WriteByte('|')
	for _, f := range b.Formats {
		s.WriteString(strconv.Itoa(int(f)))
		s.WriteByte(',')
	}
	return s.String()
}

// appendNodeKey appends the key identifying blocks that compute identical
// output streams: the kind, every semantic configuration field (labels are
// cosmetic and excluded), and the canonical source of every input port,
// srcs[j] feeding graph.InPorts(n)[j]. Numbers are varints and strings are
// length-prefixed, so no two field sequences share a key.
func appendNodeKey(dst []byte, n *graph.Node, srcs []port) []byte {
	dst = binary.AppendVarint(dst, int64(n.Kind))
	dst = appendKeyString(dst, n.Tensor)
	dst = binary.AppendVarint(dst, int64(n.Level))
	dst = appendKeyString(dst, n.TensorB)
	for _, v := range [...]int{n.LevelB, int(n.Format), n.Ways, int(n.Op), n.RedN, n.OutLevel} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	if n.DropVal {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, src := range srcs {
		dst = binary.AppendVarint(dst, int64(src.node))
		dst = appendKeyString(dst, src.name)
	}
	return dst
}

func appendKeyString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// runMergeFuse collapses duplicate ways of intersecters and unioners. After
// dedup, an expression that co-iterates a stream against itself (the
// X(i,j) = B(i,j) * B(i,j) shape) feeds a merge block the same (crd, ref)
// pair on several ways. A set intersection or union is idempotent, so
// duplicate ways contribute nothing: the block shrinks to its distinct
// ways, and a block left with a single distinct way is deleted outright —
// its output coordinate stream is its input stream, and each reference
// output passes the matching reference input through unchanged.
func runMergeFuse(g *graph.Graph) (int, error) {
	applied := 0
	dead := make([]bool, len(g.Nodes))
	var src map[port]port
	for _, n := range append([]*graph.Node(nil), g.Nodes...) {
		if n.Kind != graph.Intersect && n.Kind != graph.Union {
			continue
		}
		if src == nil {
			src = srcOf(g)
		}
		type wire struct{ crd, ref port }
		pairs := make([]wire, n.Ways)
		for i := range pairs {
			pairs[i] = wire{
				crd: src[port{n.ID, graph.PortName("crd", i)}],
				ref: src[port{n.ID, graph.PortName("ref", i)}],
			}
		}
		// Distinct ways in first-occurrence order; repWay maps every way to
		// the first way carrying the same pair.
		repWay := make([]int, n.Ways)
		firstOf := map[wire]int{}
		var kept []int
		for i, p := range pairs {
			if first, ok := firstOf[p]; ok {
				repWay[i] = first
				continue
			}
			firstOf[p] = i
			repWay[i] = i
			kept = append(kept, i)
		}
		if len(kept) == n.Ways {
			continue
		}
		applied += n.Ways - len(kept)
		src = nil // the rewrite below moves edges

		if len(kept) == 1 {
			// Pass-through: the merge of a stream with itself is the stream.
			redirect(g, port{n.ID, "crd"}, pairs[0].crd)
			for i := 0; i < n.Ways; i++ {
				redirect(g, port{n.ID, graph.PortName("ref", i)}, pairs[0].ref)
			}
			dead[n.ID] = true
			continue
		}

		// Shrink: duplicate ways' reference consumers move to the
		// representative way's reference output, duplicate input wires are
		// dropped, and the kept ways renumber densely.
		for i := 0; i < n.Ways; i++ {
			if repWay[i] != i {
				redirect(g, port{n.ID, graph.PortName("ref", i)},
					port{n.ID, graph.PortName("ref", repWay[i])})
			}
		}
		var edges []*graph.Edge
		for _, e := range g.Edges {
			if e.To == n.ID {
				if way, ok := wayOf(e.ToPort); ok && repWay[way] != way {
					continue
				}
			}
			edges = append(edges, e)
		}
		g.Edges = edges
		for newIdx, oldIdx := range kept {
			if newIdx == oldIdx {
				continue
			}
			for _, e := range g.Edges {
				if e.To == n.ID {
					if way, ok := wayOf(e.ToPort); ok && way == oldIdx {
						e.ToPort = graph.PortName(e.ToPort[:3], newIdx)
					}
				}
				if e.From == n.ID && e.FromPort == graph.PortName("ref", oldIdx) {
					e.FromPort = graph.PortName("ref", newIdx)
				}
			}
		}
		n.Ways = len(kept)
	}
	removeNodes(g, dead)
	return applied, nil
}

// wayOf parses a merge input port name ("crd3", "ref3") into its way index.
func wayOf(p string) (int, bool) {
	if len(p) < 4 || (p[:3] != "crd" && p[:3] != "ref") {
		return 0, false
	}
	way, err := strconv.Atoi(p[3:])
	if err != nil {
		return 0, false
	}
	return way, true
}

// runDCE removes blocks with no path to a level writer — they can never
// influence the assembled output — and garbage-collects bindings no
// surviving block references, so runs stop building storage for them.
func runDCE(g *graph.Graph) (int, error) {
	live := make([]bool, len(g.Nodes))
	var stack []int
	for _, n := range g.Nodes {
		if sinkKind(n.Kind) {
			live[n.ID] = true
			stack = append(stack, n.ID)
		}
	}
	predFirst, pred := graph.EdgeLists(g, func(e *graph.Edge) (int, int) { return e.To, e.From })
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[predFirst[id]:predFirst[id+1]] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}
	dead := make([]bool, len(live))
	applied := 0
	for id, l := range live {
		if !l {
			dead[id] = true
			applied++
		}
	}
	removeNodes(g, dead)

	refd := map[string]bool{}
	for _, n := range g.Nodes {
		if operandKind(n.Kind) {
			refd[n.Tensor] = true
			if n.TensorB != "" {
				refd[n.TensorB] = true
			}
		}
	}
	var keep []graph.Binding
	for _, b := range g.Bindings {
		if !refd[b.Operand] {
			applied++
			continue
		}
		keep = append(keep, b)
	}
	g.Bindings = keep
	return applied, nil
}
