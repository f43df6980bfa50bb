package custard

import (
	"fmt"

	"sam/internal/graph"
)

// runPar lowers the statement into a Schedule.Par-lane parallel graph (paper
// Section 4.4). The outermost loop variable v0 is merged once on the shared
// prefix; its coordinate stream and every participating operand's reference
// stream then fork element-wise across the lanes through parallelizer
// blocks, so each lane owns every P-th v0 fiber. The downstream compute
// sub-graph — the remaining iteration variables, broadcasts, ALUs and
// reducers — is replicated once per lane. The lanes join back in one of two
// ways before construction:
//
//   - v0 kept in the output: round-robin serializers interleave the lanes'
//     output streams back into the sequential element order; the innermost
//     coordinate stream joins paired with the value stream.
//   - v0 reduced: each lane's reducer emits a sparse partial of the whole
//     output, and a binary tree of cross-lane combiners adds the partials
//     point-wise. (The per-lane reduction must then cover the entire
//     expression — combining lane partials of a sub-expression with
//     operators applied outside the reduction would mis-associate them.)
//
// Tensor construction (droppers and level writers) runs once on the joined
// streams, identical to the sequential pipeline.
func (c *compiler) runPar() error {
	p := c.par
	v0 := c.loop[0]
	isOut := false
	for _, v := range c.e.OutputVars() {
		if v == v0 {
			isOut = true
		}
	}
	if !isOut {
		if r, ok := c.tree.(*redNode); !ok || r.v != v0 {
			return fmt.Errorf("custard: Schedule.Par: outermost loop variable %q is reduced over only part of the expression, so lane partials cannot be combined; use a loop order with an output variable outermost, or Par = 1", v0)
		}
	}

	// Shared prefix: merge v0 once, then fork its streams across the lanes.
	scope := c.scopeOf(v0)
	crd, err := c.mergeVar(scope, v0)
	if err != nil {
		return err
	}
	if !crd.valid() {
		return fmt.Errorf("custard: variable %q has no operand to iterate", v0)
	}
	c.varCrd[v0] = crd
	laneCrd := c.fork("crd "+v0, crd, p)
	laneRef := make([][]portRef, len(c.ops))
	for i, op := range c.ops {
		if hasVar(op.access, v0) {
			laneRef[i] = c.fork("ref "+op.uname, op.ref, p)
		}
		// Operands without v0 still hold their root reference stream, which
		// is identical for every lane; the root's output port fans out.
	}

	// Per-lane replication of the downstream sub-graph.
	lanes := make([]*compiler, p)
	vals := make([]portRef, p)
	var valVars []string
	for l := 0; l < p; l++ {
		sub := &compiler{
			e: c.e, formats: c.formats, sched: c.sched, loop: c.loop,
			pos: c.pos, g: c.g,
			varCrd:  map[string]portRef{v0: laneCrd[l]},
			varInt:  map[string]bool{},
			laneTag: fmt.Sprintf(" [lane %d]", l),
		}
		for v, b := range c.varInt {
			sub.varInt[v] = b
		}
		sub.ops = make([]*operand, len(c.ops))
		for i, op := range c.ops {
			cp := *op
			cp.path = append([]string(nil), op.path...)
			if laneRef[i] != nil {
				cp.ref = laneRef[i][l]
			}
			sub.ops[i] = &cp
		}
		sub.tree = sub.annotate()
		sub.broadcast(sub.scopeOf(v0), v0)
		for _, v := range c.loop[1:] {
			vscope := sub.scopeOf(v)
			vcrd, err := sub.mergeVar(vscope, v)
			if err != nil {
				return err
			}
			if !vcrd.valid() {
				return fmt.Errorf("custard: variable %q has no operand to iterate", v)
			}
			sub.varCrd[v] = vcrd
			sub.broadcast(vscope, v)
		}
		val, vv, err := sub.lowerVal(sub.tree)
		if err != nil {
			return err
		}
		vals[l] = val
		valVars = vv
		lanes[l] = sub
	}

	outLoop := c.outputVarsInLoopOrder()
	m := len(outLoop)
	c.varInt = lanes[0].varInt
	c.hasScalarRed = lanes[0].hasScalarRed

	if isOut {
		// Ordered join: one round-robin serializer per output stream. The
		// stream of the output variable at depth q switches lanes at stop
		// level q-1 (element granularity for v0 itself); the innermost
		// coordinate stream joins paired with the value stream so orphan
		// zeros from empty lanes cannot desynchronize the rotation.
		for q, v := range outLoop[:m-1] {
			ser := c.addNode(&graph.Node{
				Kind: graph.Serialize, Label: "Serializer " + v,
				Ways: p, Level: q - 1,
			})
			for l, sub := range lanes {
				c.connect(sub.varCrd[v], ser, graph.PortName("in", l))
				if q-1 >= 0 {
					c.connect(laneCrd[l], ser, graph.PortName("drv", l))
				}
			}
			c.varCrd[v] = portRef{ser, "out"}
		}
		inner := outLoop[m-1]
		ps := c.addNode(&graph.Node{
			Kind: graph.SerializePair, Label: "Serializer " + inner + " vals",
			Ways: p, Level: m - 2,
		})
		for l, sub := range lanes {
			c.connect(sub.varCrd[inner], ps, graph.PortName("crd", l))
			c.connect(vals[l], ps, graph.PortName("val", l))
			if m-2 >= 0 {
				c.connect(laneCrd[l], ps, graph.PortName("drv", l))
			}
		}
		c.varCrd[inner] = portRef{ps, "crd"}
		c.forceValDrop = c.hasScalarRed
		return c.construct(portRef{ps, "val"}, valVars)
	}

	// Reduced join: a binary tree of cross-lane combiners adds the lane
	// partials point-wise.
	type laneOut struct {
		crd []portRef
		val portRef
	}
	cur := make([]laneOut, p)
	for l, sub := range lanes {
		lo := laneOut{val: vals[l]}
		for _, v := range outLoop {
			lo.crd = append(lo.crd, sub.varCrd[v])
		}
		cur[l] = lo
	}
	for depth := 0; len(cur) > 1; depth++ {
		var next []laneOut
		for i := 0; i+1 < len(cur); i += 2 {
			n := c.addNode(&graph.Node{
				Kind:  graph.LaneReduce,
				Label: fmt.Sprintf("LaneReduce %s d%d.%d", v0, depth, i/2),
				Ways:  2, RedN: m,
			})
			for q := 0; q < m; q++ {
				c.connect(cur[i].crd[q], n, fmt.Sprintf("crd%d_0", q))
				c.connect(cur[i+1].crd[q], n, fmt.Sprintf("crd%d_1", q))
			}
			c.connect(cur[i].val, n, "val0")
			c.connect(cur[i+1].val, n, "val1")
			lo := laneOut{val: portRef{n, "val"}}
			for q := 0; q < m; q++ {
				lo.crd = append(lo.crd, portRef{n, graph.PortName("crd", q)})
			}
			next = append(next, lo)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	for q, v := range outLoop {
		c.varCrd[v] = cur[0].crd[q]
	}
	return c.construct(cur[0].val, valVars)
}

// fork splits a stream element-wise across p lanes through a parallelizer.
func (c *compiler) fork(what string, src portRef, p int) []portRef {
	n := c.addNode(&graph.Node{
		Kind: graph.Parallelize, Label: "Parallelizer " + what,
		Ways: p, Level: -1,
	})
	c.connect(src, n, "in")
	outs := make([]portRef, p)
	for l := range outs {
		outs[l] = portRef{n, graph.PortName("out", l)}
	}
	return outs
}
