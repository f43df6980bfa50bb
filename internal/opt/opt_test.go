package opt_test

import (
	"testing"

	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/opt"
)

// compileAt lowers an expression at one optimization level.
func compileAt(t *testing.T, expr string, order []string, level int) *graph.Graph {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: order, Opt: level})
	if err != nil {
		t.Fatalf("compile %q at O%d: %v", expr, level, err)
	}
	return g
}

func TestOptimizeRejectsUnknownLevels(t *testing.T) {
	g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 0)
	for _, level := range []int{-1, opt.MaxLevel + 1, 99} {
		if _, err := opt.Optimize(g, level); err == nil {
			t.Errorf("Optimize level %d: want error, got nil", level)
		}
		e := lang.MustParse("x(i) = B(i,j) * c(j)")
		if _, err := custard.Compile(e, nil, lang.Schedule{Opt: level}); err == nil {
			t.Errorf("Compile with Opt=%d: want error, got nil", level)
		}
	}
}

func TestOptimizeLevel0IsIdentity(t *testing.T) {
	g := compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 0)
	before := g.Clone()
	rep, err := opt.Optimize(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesBefore != rep.NodesAfter || len(rep.Passes) != 0 {
		t.Errorf("level 0 changed the graph: %+v", rep)
	}
	if g.DOT() != before.DOT() {
		t.Errorf("level 0 rewrote the graph")
	}
}

func TestOptimizeIsIdempotent(t *testing.T) {
	for _, expr := range []string{
		"X(i,j) = B(i,j) * B(i,j)",
		"X(i,j) = B(i,k) * C(k,j)",
		"x(i) = B(i,j) * c(j) * c(j)",
	} {
		g := compileAt(t, expr, nil, 1)
		rep, err := opt.Optimize(g, 1)
		if err != nil {
			t.Fatalf("%s: re-optimize: %v", expr, err)
		}
		if rep.NodesBefore != rep.NodesAfter || len(rep.Passes) != 0 {
			t.Errorf("%s: second Optimize still applied rewrites: %+v", expr, rep)
		}
	}
}

// TestDedupMergesRepeatedOperandStreams checks the X*X shape: both accesses
// of B bind to the same storage, so the whole scan pipeline — root, both
// level scanners, the value array — exists once, fanning out, and the
// self-intersections collapse away entirely.
func TestDedupMergesRepeatedOperandStreams(t *testing.T) {
	g0 := compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 0)
	g1 := compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 1)
	if got := g0.Count(graph.Root); got != 2 {
		t.Fatalf("O0 roots = %d, want 2", got)
	}
	checks := []struct {
		kind graph.Kind
		want int
	}{
		{graph.Root, 1}, {graph.Scanner, 2}, {graph.Array, 1},
		{graph.Intersect, 0}, {graph.ALU, 1},
	}
	for _, c := range checks {
		if got := g1.Count(c.kind); got != c.want {
			t.Errorf("O1 %v count = %d, want %d", c.kind, got, c.want)
		}
	}
	if got := len(g1.Bindings); got != 1 {
		t.Errorf("O1 bindings = %d, want 1 (duplicate binding collected)", got)
	}
}

// TestDedupMergesRedundantRepeaters checks the MatTransMul shape: after the
// root sources merge, the broadcast repeaters for alpha, beta, and c over i
// all repeat the same root stream over the same coordinate stream and
// collapse to one.
func TestDedupMergesRedundantRepeaters(t *testing.T) {
	expr := "x(i) = alpha * Bt(i,j) * c(j) + beta * d(i)"
	g0 := compileAt(t, expr, nil, 0)
	g1 := compileAt(t, expr, nil, 1)
	if got := g0.Count(graph.Repeat); got != 4 {
		t.Fatalf("O0 repeaters = %d, want 4", got)
	}
	// Repeater alpha over i, c over i, beta over i merge; alpha over j stays.
	if got := g1.Count(graph.Repeat); got != 2 {
		t.Errorf("O1 repeaters = %d, want 2", got)
	}
	if got := g1.Count(graph.Root); got != 1 {
		t.Errorf("O1 roots = %d, want 1", got)
	}
}

// TestMergeFuseShrinksDuplicateWays checks the B*c*c shape: after dedup the
// three-way intersection of j carries the c stream twice and shrinks to two
// ways instead of disappearing.
func TestMergeFuseShrinksDuplicateWays(t *testing.T) {
	g1 := compileAt(t, "x(i) = B(i,j) * c(j) * c(j)", nil, 1)
	var merges []*graph.Node
	for _, n := range g1.Nodes {
		if n.Kind == graph.Intersect {
			merges = append(merges, n)
		}
	}
	if len(merges) != 1 {
		t.Fatalf("O1 intersecters = %d, want 1", len(merges))
	}
	if merges[0].Ways != 2 {
		t.Errorf("O1 intersect ways = %d, want 2 (duplicate c way dropped)", merges[0].Ways)
	}
	if err := g1.Validate(); err != nil {
		t.Errorf("shrunk graph invalid: %v", err)
	}
}

// TestDCERemovesOrphanedBlocks extends a compiled graph with a dropper chain
// that reaches no writer and checks the optimizer removes it without
// touching the live pipeline.
func TestDCERemovesOrphanedBlocks(t *testing.T) {
	g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 0)
	live := len(g.Nodes)
	// An orphaned repeater chain hanging off the B.i scanner streams.
	var scan *graph.Node
	for _, n := range g.Nodes {
		if n.Kind == graph.Scanner && n.Tensor == "B" && n.Level == 0 {
			scan = n
		}
	}
	if scan == nil {
		t.Fatal("no B.i scanner in SpMV graph")
	}
	r1 := g.AddNode(&graph.Node{Kind: graph.Repeat, Label: "orphan 1"})
	g.Connect(scan, "crd", r1, "crd")
	g.Connect(scan, "ref", r1, "ref")
	r2 := g.AddNode(&graph.Node{Kind: graph.Repeat, Label: "orphan 2"})
	g.Connect(scan, "crd", r2, "crd")
	g.Connect(r1, "ref", r2, "ref")
	if err := g.Validate(); err != nil {
		t.Fatalf("extended graph invalid: %v", err)
	}

	pass, err := opt.PassByName("dce")
	if err != nil {
		t.Fatal(err)
	}
	n, err := pass.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("dce applied %d rewrites, want 2", n)
	}
	if len(g.Nodes) != live {
		t.Errorf("dce left %d nodes, want the %d live ones", len(g.Nodes), live)
	}
	for _, nd := range g.Nodes {
		if nd.Label == "orphan 1" || nd.Label == "orphan 2" {
			t.Errorf("orphan %q survived dce", nd.Label)
		}
	}
}

// TestOptimizeNeverGrowsTable1 compiles every Table 1 expression at both
// levels: O1 must never add blocks, must strictly remove some on the
// dropper-carrying kernels, and must keep the graph valid.
func TestOptimizeNeverGrowsTable1(t *testing.T) {
	cases := []struct {
		expr   string
		order  []string
		strict bool // a coordinate-mode dropper or duplicate stream exists
	}{
		{"x(i) = B(i,j) * c(j)", nil, true}, // root merge
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}, true},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "j", "k"}, true},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"k", "i", "j"}, true},
		{"X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, true},
		{"x = B(i,j,k) * C(i,j,k)", nil, true},
		{"X(i,j) = B(i,j,k) * c(k)", nil, true},
		{"X(i,j,k) = B(i,j,l) * C(k,l)", nil, true},
		{"X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, true},
		{"x(i) = b(i) - C(i,j) * d(j)", nil, true},
		{"X(i,j) = B(i,j) + C(i,j)", nil, true},
		{"X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil, true},
	}
	for _, tc := range cases {
		g0 := compileAt(t, tc.expr, tc.order, 0)
		g1 := compileAt(t, tc.expr, tc.order, 1)
		if len(g1.Nodes) > len(g0.Nodes) {
			t.Errorf("%s %v: O1 grew the graph: %d -> %d nodes", tc.expr, tc.order, len(g0.Nodes), len(g1.Nodes))
		}
		if tc.strict && len(g1.Nodes) >= len(g0.Nodes) {
			t.Errorf("%s %v: O1 removed nothing (%d nodes)", tc.expr, tc.order, len(g0.Nodes))
		}
		if err := g1.Validate(); err != nil {
			t.Errorf("%s %v: O1 graph invalid: %v", tc.expr, tc.order, err)
		}
	}
}

// TestOptLevelMarker checks Optimize stamps the graph with the applied
// level (the assemblers' signal that all-empty levels may need fiber-count
// reconciliation) and that level 0 leaves it unset.
func TestOptLevelMarker(t *testing.T) {
	if g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 0); g.OptLevel != 0 {
		t.Errorf("O0 graph has OptLevel %d, want 0", g.OptLevel)
	}
	if g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 1); g.OptLevel != 1 {
		t.Errorf("O1 graph has OptLevel %d, want 1", g.OptLevel)
	}
	g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 1)
	if c := g.Clone(); c.OptLevel != 1 {
		t.Errorf("clone dropped OptLevel: %d", c.OptLevel)
	}
}

// TestCloneIsDeep mutates a clone and checks the original is untouched.
func TestCloneIsDeep(t *testing.T) {
	g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 0)
	c := g.Clone()
	if c.DOT() != g.DOT() {
		t.Fatal("clone renders differently")
	}
	before := g.DOT()
	nodes, edges, bindings := len(g.Nodes), len(g.Edges), len(g.Bindings)
	c.Nodes[0].Label = "mutated"
	c.Edges[0].FromPort = "mutated"
	c.Bindings[0].Formats[0] = 99
	if _, err := opt.Optimize(c, 1); err == nil {
		// The mutation may or may not break optimization; only isolation
		// matters here.
		_ = err
	}
	if g.DOT() != before || len(g.Nodes) != nodes || len(g.Edges) != edges || len(g.Bindings) != bindings {
		t.Error("mutating the clone changed the original")
	}
	if g.Bindings[0].Formats[0] == 99 {
		t.Error("clone shares binding format storage with the original")
	}
}
