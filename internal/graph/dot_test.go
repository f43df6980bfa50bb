package graph_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sam/internal/graph"
	"sam/internal/lang"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden DOT files")

// TestDOTGolden pins the Graphviz rendering of parallel graphs against
// golden files, covering the Parallelize, Serialize and SerializePair blocks
// introduced with Schedule.Par: spmspm_par2 joins kept output levels through
// serializers, scalar_par2 joins the lanes' values before the one reducer of
// the outermost variable. Regenerate with go test -run DOTGolden -update
// after an intentional rendering change.
func TestDOTGolden(t *testing.T) {
	cases := []struct {
		name  string
		expr  string
		par   int
		kinds []graph.Kind
	}{
		{"spmspm_par2", "X(i,j) = B(i,k) * C(k,j)", 2,
			[]graph.Kind{graph.Parallelize, graph.Serialize, graph.SerializePair}},
		{"scalar_par2", "x = B(i,j) * c(j)", 2,
			[]graph.Kind{graph.Parallelize, graph.SerializePair, graph.Reduce}},
	}
	for _, c := range cases {
		g := compile(t, c.expr, nil, lang.Schedule{Par: c.par})
		for _, k := range c.kinds {
			if g.Count(k) == 0 {
				t.Errorf("%s: graph has no %v block; the golden no longer covers it", c.name, k)
			}
		}
		got := g.DOT()
		path := filepath.Join("testdata", c.name+".dot")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", c.name, err)
		}
		if got != string(want) {
			t.Errorf("%s: DOT rendering drifted from %s;\nrun go test ./internal/graph -run DOTGolden -update if intentional.\ngot:\n%s", c.name, path, got)
		}
	}
}
