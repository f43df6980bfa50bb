package custard

import (
	"fmt"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// opRef pairs an operand with its reference stream after a merge.
type opRef struct {
	op  *operand
	ref portRef
}

// mergeBranch is one input to a merge under construction: either an
// already-materialized coordinate stream with per-operand references, or a
// lazy (not yet scanned) operand, kept lazy so skipping and locating
// rewrites can fuse the scan.
type mergeBranch struct {
	crd  portRef
	refs []opRef
	lazy *operand
}

// mergeBuild is a same-class run of merge branches awaiting materialization.
type mergeBuild struct {
	union    bool
	branches []mergeBranch
}

// mergeVar lowers the co-iteration of variable v over subtree n: scanners
// for operands carrying v, combined by intersecters (multiplication) and
// unioners (addition/subtraction) mirroring the expression structure. It
// returns v's merged coordinate stream and updates the participating
// operands' reference streams.
func (c *compiler) mergeVar(n node, v string) (portRef, error) {
	mb, err := c.collectVar(n, v)
	if err != nil {
		return portRef{}, err
	}
	if mb == nil {
		return portRef{}, nil
	}
	br, err := c.materialize(mb, v)
	if err != nil {
		return portRef{}, err
	}
	for _, or := range br.refs {
		or.op.ref = or.ref
		or.op.depth++
		or.op.path = append(or.op.path, v)
		or.op.nextScan++
	}
	return br.crd, nil
}

// collectVar gathers the merge branches for v under n, flattening
// same-class merges into m-ary blocks (the paper's intersecters and
// unioners take m inputs; Table 1 counts one block per variable).
func (c *compiler) collectVar(n node, v string) (*mergeBuild, error) {
	switch x := n.(type) {
	case *leafNode:
		if !hasVar(x.op.access, v) {
			return nil, nil
		}
		if x.op.nextScan >= len(x.op.vars) || x.op.vars[x.op.nextScan] != v {
			return nil, fmt.Errorf("custard: operand %s reaches variable %q out of storage order (scan order %v)", x.op.uname, v, x.op.vars)
		}
		return &mergeBuild{branches: []mergeBranch{{lazy: x.op}}}, nil
	case *redNode:
		return c.collectVar(x.child, v)
	case *binNode:
		l, err := c.collectVar(x.l, v)
		if err != nil {
			return nil, err
		}
		r, err := c.collectVar(x.r, v)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			if x.op != lang.Mul && (l != nil) != (r != nil) {
				// An addition where only one side varies with v broadcasts
				// the other side additively, densifying the result over v —
				// outside sparse tensor algebra's compressed semantics.
				return nil, fmt.Errorf("custard: additive broadcast over %q (one side of %v does not use it) would densify the result", v, x.op)
			}
			if l == nil {
				return r, nil
			}
			return l, nil
		}
		union := x.op != lang.Mul
		out := &mergeBuild{union: union}
		for _, side := range []*mergeBuild{l, r} {
			if len(side.branches) > 1 && side.union != union {
				br, err := c.materialize(side, v)
				if err != nil {
					return nil, err
				}
				out.branches = append(out.branches, br)
				continue
			}
			out.branches = append(out.branches, side.branches...)
		}
		return out, nil
	}
	return nil, nil
}

// scan materializes a lazy operand into a level scanner.
func (c *compiler) scan(op *operand, v string) (mergeBranch, error) {
	lvl := op.nextScan
	f := op.fmts[lvl]
	if f == fiber.Bitvector {
		return mergeBranch{}, fmt.Errorf("custard: bitvector level on %s requires an elementwise bitvector pipeline (see CompileBitvector)", op.uname)
	}
	sc := c.addNode(&graph.Node{
		Kind: graph.Scanner, Label: "Scanner " + op.uname + "." + v,
		Tensor: op.uname, Level: lvl, Format: f,
	})
	c.connect(op.ref, sc, "ref")
	return mergeBranch{crd: portRef{sc, "crd"}, refs: []opRef{{op, portRef{sc, "ref"}}}}, nil
}

// materialize builds the blocks realizing a merge: scanners for lazy
// operands plus one m-ary intersecter or unioner, applying the skipping
// (gallop) and locating rewrites of paper Section 4.2 when scheduled.
func (c *compiler) materialize(mb *mergeBuild, v string) (mergeBranch, error) {
	if len(mb.branches) == 1 {
		b := mb.branches[0]
		if b.lazy != nil {
			return c.scan(b.lazy, v)
		}
		return b, nil
	}
	if !mb.union {
		c.varInt[v] = true
		// Coordinate skipping: fuse two compressed scans with the
		// intersecter into a galloping unit.
		if c.sched.UseSkip && len(mb.branches) == 2 &&
			mb.branches[0].lazy != nil && mb.branches[1].lazy != nil &&
			mb.branches[0].lazy.fmts[mb.branches[0].lazy.nextScan] == fiber.Compressed &&
			mb.branches[1].lazy.fmts[mb.branches[1].lazy.nextScan] == fiber.Compressed {
			a, b := mb.branches[0].lazy, mb.branches[1].lazy
			g := c.addNode(&graph.Node{
				Kind: graph.GallopIntersect, Label: fmt.Sprintf("GallopIntersect %s.%s ∩ %s.%s", a.uname, v, b.uname, v),
				Tensor: a.uname, Level: a.nextScan, TensorB: b.uname, LevelB: b.nextScan,
			})
			c.connect(a.ref, g, "ref0")
			c.connect(b.ref, g, "ref1")
			return mergeBranch{
				crd:  portRef{g, "crd"},
				refs: []opRef{{a, portRef{g, "ref0"}}, {b, portRef{g, "ref1"}}},
			}, nil
		}
		// Iterate-locate: operands with locatable (dense) levels follow a
		// driver instead of co-iterating, removing them from the
		// intersecter (paper Section 4.2).
		if c.sched.UseLocators {
			var dense []*operand
			var rest []mergeBranch
			for _, b := range mb.branches {
				if b.lazy != nil && b.lazy.fmts[b.lazy.nextScan] == fiber.Dense {
					dense = append(dense, b.lazy)
				} else {
					rest = append(rest, b)
				}
			}
			if len(dense) > 0 && len(rest) > 0 {
				driver, err := c.materialize(&mergeBuild{union: false, branches: rest}, v)
				if err != nil {
					return mergeBranch{}, err
				}
				for _, op := range dense {
					loc := c.addNode(&graph.Node{
						Kind: graph.Locate, Label: "Locator " + op.uname + "." + v,
						Tensor: op.uname, Level: op.nextScan, Format: op.fmts[op.nextScan],
					})
					c.connect(driver.crd, loc, "crd")
					c.connect(driver.crd, loc, "ref")
					c.connect(op.ref, loc, "fiber")
					driver = mergeBranch{
						crd:  portRef{loc, "crd"},
						refs: append(driver.refs, opRef{op, portRef{loc, "loc"}}),
					}
				}
				return driver, nil
			}
		}
	} else {
		// Unions do not mark varInt: additions never produce ineffectual
		// coordinates, so no dropper is needed for them.
	}

	// Scan every lazy branch, then build one m-ary merger over all
	// per-operand (crd, ref) pairs.
	var pairs []struct {
		crd portRef
		or  opRef
	}
	for _, b := range mb.branches {
		if b.lazy != nil {
			sb, err := c.scan(b.lazy, v)
			if err != nil {
				return mergeBranch{}, err
			}
			b = sb
		}
		for _, or := range b.refs {
			pairs = append(pairs, struct {
				crd portRef
				or  opRef
			}{b.crd, or})
		}
	}
	kind := graph.Intersect
	label := "Intersect " + v
	if mb.union {
		kind = graph.Union
		label = "Union " + v
	}
	m := c.addNode(&graph.Node{Kind: kind, Label: label, Ways: len(pairs)})
	out := mergeBranch{crd: portRef{m, "crd"}}
	for i, p := range pairs {
		c.connect(p.crd, m, graph.PortName("crd", i))
		c.connect(p.or.ref, m, graph.PortName("ref", i))
		out.refs = append(out.refs, opRef{p.or.op, portRef{m, graph.PortName("ref", i)}})
	}
	return out, nil
}
