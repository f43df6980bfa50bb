package opt_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sam/internal/graph"
	"sam/internal/opt"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden DOT files")

// TestPassGoldenDOT pins each pass's rewrite as a reviewable before/after
// Graphviz pair: testdata/<case>_before.dot is the input graph,
// testdata/<case>_after.dot the graph after exactly one pass application.
// Regenerate with go test ./internal/opt -run PassGolden -update after an
// intentional pass or rendering change.
func TestPassGoldenDOT(t *testing.T) {
	cases := []struct {
		name string
		pass string
		// build produces the input graph (setup passes may already have run
		// so the tested pass's work is isolated and visible).
		build func(t *testing.T) *graph.Graph
	}{
		{
			// Both B accesses bind to one storage: roots, scanners, and the
			// value array hash-cons into single fanned-out blocks.
			name: "dedup_square", pass: "dedup",
			build: func(t *testing.T) *graph.Graph {
				return compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 0)
			},
		},
		{
			// After dedup both intersect ways carry the same pair; the merge
			// blocks collapse to wires.
			name: "mergefuse_collapse", pass: "mergefuse",
			build: func(t *testing.T) *graph.Graph {
				g := compileAt(t, "X(i,j) = B(i,j) * B(i,j)", nil, 0)
				applyPass(t, g, "dedup")
				return g
			},
		},
		{
			// The three-way j intersection carries the c stream twice and
			// shrinks to two ways.
			name: "mergefuse_shrink", pass: "mergefuse",
			build: func(t *testing.T) *graph.Graph {
				g := compileAt(t, "x(i) = B(i,j) * c(j) * c(j)", nil, 0)
				applyPass(t, g, "dedup")
				return g
			},
		},
		{
			// A hand-attached repeater chain reaching no writer disappears.
			name: "dce_orphans", pass: "dce",
			build: func(t *testing.T) *graph.Graph {
				g := compileAt(t, "x(i) = B(i,j) * c(j)", nil, 0)
				var scan *graph.Node
				for _, n := range g.Nodes {
					if n.Kind == graph.Scanner && n.Tensor == "B" && n.Level == 0 {
						scan = n
					}
				}
				orphan := g.AddNode(&graph.Node{Kind: graph.Repeat, Label: "Orphan repeater"})
				g.Connect(scan, "crd", orphan, "crd")
				g.Connect(scan, "ref", orphan, "ref")
				return g
			},
		},
	}
	for _, c := range cases {
		g := c.build(t)
		before := g.DOT()
		applied := applyPass(t, g, c.pass)
		if applied == 0 {
			t.Errorf("%s: pass %s applied nothing; the golden no longer covers it", c.name, c.pass)
		}
		after := g.DOT()
		if before == after {
			t.Errorf("%s: pass %s left the rendering unchanged", c.name, c.pass)
		}
		checkGolden(t, c.name+"_before.dot", before)
		checkGolden(t, c.name+"_after.dot", after)
	}
}

func applyPass(t *testing.T, g *graph.Graph, name string) int {
	t.Helper()
	p, err := opt.PassByName(name)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Apply(g)
	if err != nil {
		t.Fatalf("pass %s: %v", name, err)
	}
	return n
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create)", file, err)
	}
	if got != string(want) {
		t.Errorf("%s: DOT drifted;\nrun go test ./internal/opt -run PassGolden -update if intentional.\ngot:\n%s", file, got)
	}
}
