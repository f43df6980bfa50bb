package custard

import (
	"fmt"
	"slices"

	"sam/internal/graph"
)

// runPar lowers the statement into a Schedule.Par-lane parallel graph (paper
// Section 4.4). The outermost loop variable v0 is merged once on the shared
// prefix; its coordinate stream and every participating operand's reference
// stream then fork element-wise across the lanes through parallelizer
// blocks, so each lane owns every P-th v0 fiber. The downstream compute
// sub-graph — the remaining iteration variables, broadcasts, ALUs and
// reducers — is replicated once per lane, and the lanes' value stream and
// the coordinate streams it iterates join back through round-robin
// serializers into the sequential order: the stream of the variable at
// depth d switches lanes at stop level d-1 (element granularity for v0
// itself), driven by the lanes' forks of v0's coordinates, and the innermost
// coordinate stream joins paired with the value stream, so the join can
// discard the orphan zeros an empty lane's scalar reducer emits and no
// dropper is placed for the lanes' sake.
//
// When v0 is reduced, the lanes stop just below v0's reducer: they join the
// streams the reducer consumes, and the one reducer for v0 runs after the
// join on the stream Par = 1 hands it, so it sums in the same order.
// (v0's reduction must then cover the entire expression: a reducer over a
// sub-expression would sit below operators the lanes have already applied.)
//
// Tensor construction (droppers and level writers) runs once on the joined
// streams, identical to the sequential pipeline.
func (c *compiler) runPar() error {
	p := c.par
	v0 := c.loop[0]
	var red *redNode // v0's reducer, when v0 is reduced
	if !slices.Contains(c.e.OutputVars(), v0) {
		r, ok := c.tree.(*redNode)
		if !ok || r.v != v0 {
			return fmt.Errorf("custard: Schedule.Par: outermost loop variable %q is reduced over only part of the expression, so lane partials cannot be combined; use a loop order with an output variable outermost, or Par = 1", v0)
		}
		red = r
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
		lowered := sub.tree
		if red != nil {
			lowered = lowered.(*redNode).child
		}
		val, vv, err := sub.lowerVal(lowered)
		if err != nil {
			return err
		}
		vals[l] = val
		valVars = vv
		lanes[l] = sub
	}
	c.varInt = lanes[0].varInt
	c.hasScalarRed = lanes[0].hasScalarRed

	// The join: one serializer per stream valVars iterates, v0 first. A
	// reduced v0's own coordinates feed no block below, so they do not join.
	m := len(valVars)
	for q, v := range valVars[:m-1] {
		if q == 0 && red != nil {
			continue
		}
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
	inner := valVars[m-1]
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
	val := portRef{ps, "val"}
	if red == nil {
		return c.construct(val, valVars)
	}
	val, valVars, err = c.lowerRed(red, val, valVars)
	if err != nil {
		return err
	}
	return c.construct(val, valVars)
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
