package custard

import (
	"strings"
	"testing"

	"sam/internal/graph"
	"sam/internal/lang"
)

// TestParGraphShape checks the ordered-join parallel graph: one element-wise
// parallelizer per forked stream, one serializer per output stream (the
// innermost paired with the values), and a sub-graph replica per lane.
func TestParGraphShape(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	seq, err := Compile(e, nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		g, err := Compile(e, nil, lang.Schedule{Par: p})
		if err != nil {
			t.Fatalf("par %d: %v", p, err)
		}
		// Forked streams: i's coordinates plus B's references (C lacks i and
		// is re-rooted per lane).
		if got := g.Count(graph.Parallelize); got != 2 {
			t.Errorf("par %d: %d parallelizers, want 2", p, got)
		}
		// Output variable i joins on a plain serializer; j joins paired with
		// the value stream.
		if got := g.Count(graph.Serialize); got != 1 {
			t.Errorf("par %d: %d serializers, want 1", p, got)
		}
		if got := g.Count(graph.SerializePair); got != 1 {
			t.Errorf("par %d: %d paired serializers, want 1", p, got)
		}
		if got := g.Count(graph.LaneReduce); got != 0 {
			t.Errorf("par %d: %d lane combiners, want 0 (ordered join)", p, got)
		}
		// One compute replica per lane.
		if got, want := g.Count(graph.ALU), p*seq.Count(graph.ALU); got != want {
			t.Errorf("par %d: %d ALUs, want %d", p, got, want)
		}
		if got, want := g.Count(graph.Reduce), p*seq.Count(graph.Reduce); got != want {
			t.Errorf("par %d: %d reducers, want %d", p, got, want)
		}
	}
}

// TestParReductionTreeShape checks the reduced-join graph grows a binary
// combiner tree of P-1 nodes.
func TestParReductionTreeShape(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	for _, p := range []int{2, 3, 4, 8} {
		g, err := Compile(e, nil, lang.Schedule{LoopOrder: []string{"k", "i", "j"}, Par: p})
		if err != nil {
			t.Fatalf("par %d: %v", p, err)
		}
		if got := g.Count(graph.LaneReduce); got != p-1 {
			t.Errorf("par %d: %d lane combiners, want %d", p, got, p-1)
		}
		if got := g.Count(graph.Serialize) + g.Count(graph.SerializePair); got != 0 {
			t.Errorf("par %d: %d serializers, want 0 (reduced join)", p, got)
		}
	}
}

// TestParOneIsSequential checks Par values of 0 and 1 compile the plain
// sequential graph.
func TestParOneIsSequential(t *testing.T) {
	e := lang.MustParse("x(i) = B(i,j) * c(j)")
	seq, err := Compile(e, nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1} {
		g, err := Compile(e, nil, lang.Schedule{Par: p})
		if err != nil {
			t.Fatalf("par %d: %v", p, err)
		}
		if len(g.Nodes) != len(seq.Nodes) || len(g.Edges) != len(seq.Edges) {
			t.Errorf("par %d: %d nodes / %d edges, want the sequential %d / %d",
				p, len(g.Nodes), len(g.Edges), len(seq.Nodes), len(seq.Edges))
		}
	}
}

// TestParErrors checks the rejection paths: negative lane counts and loop
// orders whose outermost reduction covers only part of the expression, so
// its lane partials cannot be combined.
func TestParErrors(t *testing.T) {
	e := lang.MustParse("x(i) = B(i,j) * c(j)")
	if _, err := Compile(e, nil, lang.Schedule{Par: -1}); err == nil || !strings.Contains(err.Error(), "Par") {
		t.Errorf("negative Par: err = %v", err)
	}
	// i is reduced over only the b(i)*c(i) product, not over d(j)*e(j): lane
	// partials of the product cannot be combined across the outer addition.
	e2 := lang.MustParse("x = b(i) * c(i) + d(j) * e(j)")
	if _, err := Compile(e2, nil, lang.Schedule{LoopOrder: []string{"i", "j"}, Par: 2}); err == nil ||
		!strings.Contains(err.Error(), "lane partials cannot be combined") {
		t.Errorf("partial outermost reduction: err = %v", err)
	}
	// The same statement compiles sequentially: the two reductions' scopes
	// are disjoint, so either may come first.
	if _, err := Compile(e2, nil, lang.Schedule{LoopOrder: []string{"i", "j"}}); err != nil {
		t.Errorf("sequential compile: %v", err)
	}
	// With an output variable in play the partial reduction must sit inside
	// it at every lane count (TestPartialReductionOutsideWiderVariable);
	// output-variable-outermost parallelizes.
	e3 := lang.MustParse("X(k) = B(i,k) * c(i) + d(k)")
	if _, err := Compile(e3, nil, lang.Schedule{LoopOrder: []string{"k", "i"}, Par: 2}); err != nil {
		t.Errorf("output-variable-outermost Par compile: %v", err)
	}
}
