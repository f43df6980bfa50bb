package opt_test

import (
	"math/rand"
	"testing"

	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/opt"
	"sam/internal/sim"
	"sam/internal/tensor"
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
	if rep.NodesBefore != rep.NodesAfter {
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
		before := g.Fingerprint()
		if _, err := opt.Optimize(g, 1); err != nil {
			t.Fatalf("%s: re-optimize: %v", expr, err)
		}
		if got := g.Fingerprint(); got != before {
			t.Errorf("%s: second Optimize changed the graph: %s -> %s", expr, before, got)
		}
	}
}

// TestOptLevelMarker checks Optimize stamps the graph with the applied
// level (identity only: it enters the fingerprint and the artifact) and
// that level 0 leaves it unset.
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
	if g.DOT() != before || len(g.Nodes) != nodes || len(g.Edges) != edges || len(g.Bindings) != bindings {
		t.Error("mutating the clone changed the original")
	}
	if g.Bindings[0].Formats[0] == 99 {
		t.Error("clone shares binding format storage with the original")
	}
}

// TestOptPreservesStreamMonitoring checks a level-1 graph over a repeated
// operand still builds a Program and reports per-stream statistics (the
// serving and Figure 14 paths).
func TestOptPreservesStreamMonitoring(t *testing.T) {
	g := compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 1)
	p, err := sim.NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := tensor.UniformRandom("B", rng, 40, 12, 12)
	tensor.QuantizeInts(rng, 7, b)
	res, err := p.Run(map[string]*tensor.COO{"B": b}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) == 0 {
		t.Error("level-1 program reports no stream statistics")
	}
	for label := range res.Streams {
		if label == "" {
			t.Error("empty stream label")
		}
	}
}
