package custard

import (
	"fmt"
	"strconv"

	"sam/internal/graph"
)

// lowerVal builds the computation section: array loads at the leaves, a
// binary ALU per expression operator, and one reducer per reduction node
// whose dimension n is the number of variables remaining below the reduced
// variable (paper Definition 3.7).
func (c *compiler) lowerVal(n node) (portRef, []string, error) {
	switch x := n.(type) {
	case *leafNode:
		arr := c.addNode(&graph.Node{
			Kind: graph.Array, Label: "Array " + x.op.uname + " vals",
			Tensor: x.op.uname,
		})
		c.connect(x.op.ref, arr, "ref")
		return portRef{arr, "val"}, append([]string(nil), x.op.path...), nil
	case *binNode:
		lv, lvars, err := c.lowerVal(x.l)
		if err != nil {
			return portRef{}, nil, err
		}
		rv, rvars, err := c.lowerVal(x.r)
		if err != nil {
			return portRef{}, nil, err
		}
		if !equalStrings(lvars, rvars) {
			return portRef{}, nil, fmt.Errorf("custard: operands of %v combine misaligned streams %v vs %v", x.op, lvars, rvars)
		}
		alu := c.addNode(&graph.Node{Kind: graph.ALU, Label: "ALU " + x.op.String(), Op: x.op})
		c.connect(lv, alu, "a")
		c.connect(rv, alu, "b")
		return portRef{alu, "val"}, lvars, nil
	case *redNode:
		cv, cvars, err := c.lowerVal(x.child)
		if err != nil {
			return portRef{}, nil, err
		}
		p := -1
		for i, v := range cvars {
			if v == x.v {
				p = i
			}
		}
		if p < 0 {
			return portRef{}, nil, fmt.Errorf("custard: reduction variable %q missing from stream %v", x.v, cvars)
		}
		nBelow := len(cvars) - p - 1

		// Between chained reducers of a non-scalar output, a value-mode
		// dropper filters the explicit zeros the inner reduction emitted for
		// empty groups before they enter the outer accumulation.
		if _, chained := x.child.(*redNode); chained && nBelow == 0 && len(c.e.OutputVars()) > 0 {
			d := c.addNode(&graph.Node{Kind: graph.CrdDrop, Label: "CrdDrop " + x.v + " zeros", DropVal: true})
			c.connect(c.varCrd[x.v], d, "outer")
			c.connect(cv, d, "val")
			cv = portRef{d, "val"}
		}

		red := c.addNode(&graph.Node{
			Kind: graph.Reduce, Label: "Reducer " + x.v + " (n=" + strconv.Itoa(nBelow) + ")",
			RedN: nBelow,
		})
		switch nBelow {
		case 0:
			c.hasScalarRed = true
			c.connect(cv, red, "val")
		case 1:
			inner := cvars[p+1]
			c.connect(c.varCrd[inner], red, "crd")
			c.connect(cv, red, "val")
			c.varCrd[inner] = portRef{red, "crd"}
		case 2:
			v1, v2 := cvars[p+1], cvars[p+2]
			c.connect(c.varCrd[v1], red, "crd0")
			c.connect(c.varCrd[v2], red, "crd1")
			c.connect(cv, red, "val")
			c.varCrd[v1] = portRef{red, "crd0"}
			c.varCrd[v2] = portRef{red, "crd1"}
		default:
			// The general n-dimensional reducer: ports crd0..crd(n-1),
			// outermost first (paper Definition 3.7 for arbitrary n).
			for q := 0; q < nBelow; q++ {
				vq := cvars[p+1+q]
				port := graph.PortName("crd", q)
				c.connect(c.varCrd[vq], red, port)
				c.varCrd[vq] = portRef{red, port}
			}
			c.connect(cv, red, "val")
		}
		out := append(append([]string(nil), cvars[:p]...), cvars[p+1:]...)
		return portRef{red, "val"}, out, nil
	}
	return portRef{}, nil, fmt.Errorf("custard: unknown expression node %T", n)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
