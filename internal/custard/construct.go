package custard

import (
	"fmt"
	"slices"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// construct builds the tensor-construction section (paper Section 3.7):
// coordinate droppers clean ineffectual coordinates innermost-first,
// followed by one level writer per output level and a value writer.
//
// A level writer takes every stop on its coordinate stream as the end of
// one fiber, so a dropper stands wherever an output fiber can turn out
// empty, and nothing downstream removes one or patches the fiber counts:
//   - a value-mode dropper on the innermost output variable, under the
//     conditions below;
//   - a coordinate-mode dropper on each outer output variable v, with the
//     next output variable as its inner stream, when an intersection sits
//     inside v, or when an intersected reduction variable sits between the
//     outermost output variable and v. An intersection there that meets
//     nothing hands the reducer an empty group, and the reducer still closes
//     a fiber at v and every output level below it — fibers no surviving
//     coordinate above them owns.
func (c *compiler) construct(val portRef, valVars []string) error {
	outLoop := c.outputVarsInLoopOrder()
	if !equalStrings(valVars, outLoop) {
		return fmt.Errorf("custard: value stream iterates %v, want output variables %v", valVars, outLoop)
	}

	m := len(outLoop)
	// The innermost output variable needs a value-mode dropper when an
	// intersection inside it can leave ineffectual coordinates, and also
	// when a scalar reducer sits downstream of any intersection: empty
	// intersections at outer levels reach the reducer as structurally empty
	// groups whose explicit zeros must be filtered before writing. A
	// parallel join forces the dropper whenever a scalar reducer exists,
	// because lanes that received no elements emit orphan zeros the joined
	// value stream carries through to this point.
	if m > 0 && (c.forceValDrop || c.intersectInside(outLoop[m-1]) || (c.hasScalarRed && c.anyIntersect())) {
		v := outLoop[m-1]
		d := c.addNode(&graph.Node{Kind: graph.CrdDrop, Label: "CrdDrop " + v + " vals", DropVal: true})
		c.connect(c.varCrd[v], d, "outer")
		c.connect(val, d, "val")
		c.varCrd[v] = portRef{d, "outer"}
		val = portRef{d, "val"}
	}
	for q := m - 2; q >= 0; q-- {
		v := outLoop[q]
		if !c.intersectInside(v) && !c.reductionAbove(v, outLoop[0]) {
			continue
		}
		inner := outLoop[q+1]
		d := c.addNode(&graph.Node{Kind: graph.CrdDrop, Label: "CrdDrop " + v})
		c.connect(c.varCrd[v], d, "outer")
		c.connect(c.varCrd[inner], d, "inner")
		c.varCrd[v] = portRef{d, "outer"}
		c.varCrd[inner] = portRef{d, "inner"}
	}

	// Output formats arrive in left-hand-side order; permute to loop order.
	outName := c.e.LHS.Tensor
	spec, ok := c.formats[outName]
	if !ok {
		spec = lang.Uniform(m, fiber.Compressed)
	}
	if len(spec.Levels) != m {
		return fmt.Errorf("custard: output format for %q has %d levels, output order is %d", outName, len(spec.Levels), m)
	}
	lhsPos := map[string]int{}
	for i, v := range c.e.LHS.Idx {
		lhsPos[v] = i
	}

	c.g.OutputTensor = outName
	c.g.OutputVars = outLoop
	c.g.LHSVars = append([]string(nil), c.e.LHS.Idx...)
	for q, v := range outLoop {
		f := spec.Levels[lhsPos[v]]
		if f == fiber.Dense || f == fiber.Bitvector {
			return fmt.Errorf("custard: output level format %v not supported by the level writer; use compressed or linked-list", f)
		}
		w := c.addNode(&graph.Node{
			Kind: graph.CrdWriter, Label: "LevelWriter " + outName + "." + v,
			Tensor: outName, OutLevel: q, Format: f,
		})
		c.connect(c.varCrd[v], w, "crd")
		c.g.OutputFormats = append(c.g.OutputFormats, f)
		dim, err := c.dimOf(v)
		if err != nil {
			return err
		}
		c.g.OutputDims = append(c.g.OutputDims, dim)
	}
	vw := c.addNode(&graph.Node{
		Kind: graph.ValsWriter, Label: "LevelWriter " + outName + " vals",
		Tensor: outName,
	})
	c.connect(val, vw, "val")
	return nil
}

// anyIntersect reports whether any variable was merged with an intersection.
func (c *compiler) anyIntersect() bool {
	for _, isInt := range c.varInt {
		if isInt {
			return true
		}
	}
	return false
}

// intersectInside reports whether any variable deeper than v in the loop
// order was merged with an intersection — the condition under which v's
// coordinates can become ineffectual and require dropping.
func (c *compiler) intersectInside(v string) bool {
	for u, isInt := range c.varInt {
		if isInt && c.pos[u] > c.pos[v] {
			return true
		}
	}
	return false
}

// reductionAbove reports whether an intersected reduction variable sits
// strictly between the outermost output variable and v in the loop order:
// the condition under which v's level can hold fibers that no coordinate
// above it owns.
func (c *compiler) reductionAbove(v, outermost string) bool {
	for u, isInt := range c.varInt {
		if isInt && !slices.Contains(c.e.LHS.Idx, u) && c.pos[u] > c.pos[outermost] && c.pos[u] < c.pos[v] {
			return true
		}
	}
	return false
}

func (c *compiler) outputVarsInLoopOrder() []string {
	isOut := map[string]bool{}
	for _, v := range c.e.OutputVars() {
		isOut[v] = true
	}
	var out []string
	for _, v := range c.loop {
		if isOut[v] {
			out = append(out, v)
		}
	}
	return out
}

// dimOf finds an input access mode that defines v's dimension.
func (c *compiler) dimOf(v string) (graph.DimRef, error) {
	for _, op := range c.ops {
		for m, u := range op.access.Idx {
			if u == v {
				return graph.DimRef{Tensor: op.access.Tensor, Mode: m}, nil
			}
		}
	}
	return graph.DimRef{}, fmt.Errorf("custard: no input access defines variable %q", v)
}
