// Package custard is the Custard compiler (paper Section 5): it lowers
// tensor index notation with per-tensor formats and a loop-order schedule to
// SAM dataflow graphs.
//
// Lowering follows the paper's three phases. (1) Tensor iteration and
// merging: each index variable, outermost first, is merged at the smallest
// expression subtree that evaluates it — multiplications intersect, additions
// and subtractions union, and every operand in the variable's scope that
// lacks the variable is broadcast with a repeater. (2) Computation: operand
// reference streams load values through array blocks, the expression tree
// maps to binary ALUs, and each reduction variable becomes a reducer whose
// dimension n is the number of variables remaining below it. Reductions
// attach to the maximal multiplicative subtree containing the variable's
// uses, so products are fully expanded before chained reducers contract them
// (this reproduces the paper's Table 1 block counts exactly). (3) Tensor
// construction: coordinate droppers clean ineffectual coordinates
// innermost-first, then level writers materialize the result.
package custard

import (
	"fmt"
	"sort"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/opt"
)

// Compile lowers one statement to a SAM dataflow graph.
func Compile(e *lang.Einsum, formats lang.Formats, sched lang.Schedule) (*graph.Graph, error) {
	loop, err := sched.NormalizeLoopOrder(e)
	if err != nil {
		return nil, err
	}
	if sched.Par < 0 {
		return nil, fmt.Errorf("custard: Schedule.Par = %d, want >= 0", sched.Par)
	}
	if sched.Opt < 0 || sched.Opt > opt.MaxLevel {
		return nil, fmt.Errorf("custard: Schedule.Opt = %d, want 0..%d", sched.Opt, opt.MaxLevel)
	}
	c := &compiler{
		e:       e,
		formats: formats,
		sched:   sched,
		loop:    loop,
		pos:     map[string]int{},
		g:       &graph.Graph{Name: e.LHS.Tensor, Expr: e.String()},
		varCrd:  map[string]portRef{},
		varInt:  map[string]bool{},
	}
	if sched.Par > 1 && len(loop) > 0 {
		c.par = sched.Par
	}
	for i, v := range loop {
		c.pos[v] = i
	}
	if err := c.run(); err != nil {
		return nil, err
	}
	if err := c.g.Validate(); err != nil {
		return nil, fmt.Errorf("custard: produced invalid graph: %w", err)
	}
	if _, err := opt.Optimize(c.g, sched.Opt); err != nil {
		return nil, err
	}
	return c.g, nil
}

// portRef names one output port of one node.
type portRef struct {
	node *graph.Node
	port string
}

func (p portRef) valid() bool { return p.node != nil }

// operand is one tensor access occurrence with its lowering state.
type operand struct {
	id     int
	access *lang.Access
	uname  string
	vars   []string // access variables in loop order = level scan order
	modes  []int    // level d stores access mode modes[d]
	fmts   []fiber.Format

	ref      portRef // current reference stream
	depth    int
	path     []string // variables applied so far (scans and repeats)
	nextScan int
}

// tree nodes mirror the expression tree with explicit reductions.
type node interface{}

type leafNode struct{ op *operand }

type binNode struct {
	op   lang.Op
	l, r node
}

type redNode struct {
	v     string
	child node
}

type compiler struct {
	e       *lang.Einsum
	formats lang.Formats
	sched   lang.Schedule
	loop    []string
	pos     map[string]int
	g       *graph.Graph

	ops          []*operand
	tree         node
	varCrd       map[string]portRef
	varInt       map[string]bool // variable merged with an intersection
	hasScalarRed bool            // a scalar reducer sits in the value chain

	// Parallelization state (Schedule.Par, paper Section 4.4). par is the
	// lane count (0 or 1 compiles sequentially); laneTag suffixes node
	// labels of per-lane sub-compilers; forceValDrop makes construct always
	// pair the innermost coordinate stream with the value stream through a
	// value-mode dropper, which absorbs the orphan zeros empty lanes emit.
	par          int
	laneTag      string
	forceValDrop bool
}

func (c *compiler) run() error {
	if err := c.buildOperands(); err != nil {
		return err
	}
	c.tree = c.annotate()
	if err := c.checkNesting(); err != nil {
		return err
	}
	if c.par > 1 {
		return c.runPar()
	}
	// Phase 1: iteration and merging, outermost variable first.
	for _, v := range c.loop {
		scope := c.scopeOf(v)
		crd, err := c.mergeVar(scope, v)
		if err != nil {
			return err
		}
		if !crd.valid() {
			return fmt.Errorf("custard: variable %q has no operand to iterate", v)
		}
		c.varCrd[v] = crd
		c.broadcast(scope, v)
	}
	// Phase 2: computation.
	val, valVars, err := c.lowerVal(c.tree)
	if err != nil {
		return err
	}
	// Phase 3: construction.
	return c.construct(val, valVars)
}

// checkNesting rejects loop orders no engine can run: a variable u reduced
// over only part of the expression, iterated outside a variable v whose
// merge scope strictly contains u's. The operands of v's scope that lie
// outside u's are never repeated over u, so when v merges them with the
// operands inside, the two sides' streams sit at different nesting depths
// and the merge block sees one side finish while the other still streams.
func (c *compiler) checkNesting() error {
	for i, u := range c.loop {
		inner := operandsUnder(c.scopeOf(u))
		for _, v := range c.loop[i+1:] {
			outer := operandsUnder(c.scopeOf(v))
			if len(inner) >= len(outer) {
				continue
			}
			// Scopes are subtrees of one tree: nested or disjoint, so one
			// shared operand decides.
			for _, op := range outer {
				if op == inner[0] {
					return fmt.Errorf("custard: loop order %v: variable %q is reduced over only part of the expression but iterated outside %q, which spans more of it; schedule %q inside %q",
						c.loop, u, v, u, v)
				}
			}
		}
	}
	return nil
}

// broadcast repeats every operand in scope missing v over v's coordinate
// stream (paper Definition 3.4).
func (c *compiler) broadcast(scope node, v string) {
	crd := c.varCrd[v]
	for _, op := range operandsUnder(scope) {
		if hasVar(op.access, v) {
			continue
		}
		rep := c.addNode(&graph.Node{Kind: graph.Repeat, Label: "Repeater " + op.uname + " over " + v})
		c.connect(crd, rep, "crd")
		c.connect(op.ref, rep, "ref")
		op.ref = portRef{rep, "ref"}
		op.depth++
		op.path = append(op.path, v)
	}
}

// addNode adds a node, tagging its label with the lane of a per-lane
// sub-compiler.
func (c *compiler) addNode(n *graph.Node) *graph.Node {
	if c.laneTag != "" {
		n.Label += c.laneTag
	}
	return c.g.AddNode(n)
}

// buildOperands collects accesses, derives mode orders from the loop order,
// and creates root sources.
func (c *compiler) buildOperands() error {
	seen := map[string]int{}
	for _, a := range c.e.Accesses() {
		op := &operand{id: len(c.ops), access: a}
		seen[a.Tensor]++
		op.uname = a.Tensor
		if seen[a.Tensor] > 1 {
			op.uname = fmt.Sprintf("%s#%d", a.Tensor, seen[a.Tensor])
		}
		// Scan order: access variables sorted by loop position.
		op.vars = append([]string(nil), a.Idx...)
		op.modes = make([]int, len(a.Idx))
		for i := range op.modes {
			op.modes[i] = i
		}
		sort.SliceStable(op.modes, func(x, y int) bool {
			return c.pos[a.Idx[op.modes[x]]] < c.pos[a.Idx[op.modes[y]]]
		})
		for d, m := range op.modes {
			op.vars[d] = a.Idx[m]
		}
		f, ok := c.formats[a.Tensor]
		if !ok {
			f = lang.Uniform(len(a.Idx), fiber.Compressed)
		}
		if len(f.Levels) != len(a.Idx) {
			return fmt.Errorf("custard: format for %q has %d levels, access %s has %d", a.Tensor, len(f.Levels), a, len(a.Idx))
		}
		if len(f.ModeOrder) > 0 {
			for d := range f.ModeOrder {
				if f.ModeOrder[d] != op.modes[d] {
					return fmt.Errorf("custard: tensor %q mode order %v is discordant with loop order (need %v); transpose the tensor or change the schedule",
						a.Tensor, f.ModeOrder, op.modes)
				}
			}
		}
		op.fmts = append([]fiber.Format(nil), f.Levels...)
		root := c.addNode(&graph.Node{Kind: graph.Root, Label: "Root " + op.uname})
		op.ref = portRef{root, "ref"}
		c.ops = append(c.ops, op)
		c.g.Bindings = append(c.g.Bindings, graph.Binding{
			Operand:   op.uname,
			Source:    a.Tensor,
			ModeOrder: append([]int(nil), op.modes...),
			Formats:   op.fmts,
		})
	}
	return nil
}

// annotate builds the expression tree with explicit reduction nodes: each
// reduction variable wraps the maximal multiplicative subtree containing all
// of its uses, nested outermost-variable-outside.
func (c *compiler) annotate() node {
	opIdx := 0
	var build func(x lang.Expr) node
	build = func(x lang.Expr) node {
		switch n := x.(type) {
		case *lang.Access:
			l := &leafNode{op: c.ops[opIdx]}
			opIdx++
			return l
		case *lang.Binary:
			return &binNode{op: n.Op, l: build(n.L), r: build(n.R)}
		}
		return nil
	}
	t := build(c.e.RHS)
	// Wrap reduction variables innermost-first so outer loop variables end
	// up as outer reduction nodes.
	red := c.e.ReductionVars()
	sort.Slice(red, func(i, j int) bool { return c.pos[red[i]] > c.pos[red[j]] })
	for _, v := range red {
		t = wrapReduction(t, v)
	}
	return t
}

// wrapReduction wraps the maximal multiplicative subtree containing every
// use of v in a reduction node.
func wrapReduction(t node, v string) node {
	target := reductionTarget(t, v)
	var rewrite func(n node) node
	rewrite = func(n node) node {
		if n == target {
			return &redNode{v: v, child: n}
		}
		switch x := n.(type) {
		case *binNode:
			x.l = rewrite(x.l)
			x.r = rewrite(x.r)
		case *redNode:
			x.child = rewrite(x.child)
		}
		return n
	}
	return rewrite(t)
}

// reductionTarget finds the smallest subtree containing all uses of v, then
// extends it upward through multiplication nodes.
func reductionTarget(t node, v string) node {
	// parent links for upward extension
	parent := map[node]node{}
	var link func(n node)
	link = func(n node) {
		switch x := n.(type) {
		case *binNode:
			parent[x.l] = n
			parent[x.r] = n
			link(x.l)
			link(x.r)
		case *redNode:
			parent[x.child] = n
			link(x.child)
		}
	}
	link(t)
	var smallest func(n node) node
	smallest = func(n node) node {
		switch x := n.(type) {
		case *leafNode:
			if hasVar(x.op.access, v) {
				return n
			}
			return nil
		case *binNode:
			l, r := smallest(x.l), smallest(x.r)
			if l != nil && r != nil {
				return n
			}
			if l != nil {
				return l
			}
			return r
		case *redNode:
			if s := smallest(x.child); s != nil {
				// A use inside a nested reduction: the reduction node itself
				// is the unit we wrap around.
				if s == x.child {
					return n
				}
				return s
			}
			return nil
		}
		return nil
	}
	target := smallest(t)
	if target == nil {
		return t
	}
	// Extend upward through Mul nodes (and reduction nodes already wrapped
	// around the target's ancestors are left intact).
	for {
		p, ok := parent[target]
		if !ok {
			break
		}
		if b, ok := p.(*binNode); ok && b.op == lang.Mul {
			target = p
			continue
		}
		if _, ok := p.(*redNode); ok {
			target = p
			continue
		}
		break
	}
	return target
}

// scopeOf returns the subtree a variable is merged at: the whole tree for
// output variables, the reduction node's child for reduction variables.
func (c *compiler) scopeOf(v string) node {
	for _, ov := range c.e.OutputVars() {
		if ov == v {
			return c.tree
		}
	}
	var find func(n node) node
	find = func(n node) node {
		switch x := n.(type) {
		case *redNode:
			if x.v == v {
				return x.child
			}
			return find(x.child)
		case *binNode:
			if s := find(x.l); s != nil {
				return s
			}
			return find(x.r)
		}
		return nil
	}
	if s := find(c.tree); s != nil {
		return s
	}
	return c.tree
}

func operandsUnder(n node) []*operand {
	var out []*operand
	var walk func(node)
	walk = func(x node) {
		switch t := x.(type) {
		case *leafNode:
			out = append(out, t.op)
		case *binNode:
			walk(t.l)
			walk(t.r)
		case *redNode:
			walk(t.child)
		}
	}
	walk(n)
	return out
}

func hasVar(a *lang.Access, v string) bool {
	for _, x := range a.Idx {
		if x == v {
			return true
		}
	}
	return false
}

// connect wires an output port to a node input port.
func (c *compiler) connect(from portRef, to *graph.Node, port string) {
	c.g.Connect(from.node, from.port, to, port)
}
