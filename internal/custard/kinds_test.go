package custard

import (
	"strings"
	"testing"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// kindCorpus is a fixed set of statements, formats and schedules that
// between them use every compiler rule: co-iteration by intersection and by
// union, reductions with and without an output dropper, lane parallelism,
// coordinate skipping, locators against dense levels, and both shapes of
// the bitvector pipeline.
var kindCorpus = []struct {
	expr      string
	formats   lang.Formats
	sched     lang.Schedule
	bitvector bool // lower with CompileBitvector
}{
	{expr: "x(i) = B(i,j) * c(j)"},
	{expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
	{expr: "X(i,j) = B(i,j) + C(i,j)"},
	{expr: "x(i) = b(i) - C(i,j) * d(j)"},
	{expr: "x = B(i,j,k) * C(i,j,k)"},
	{expr: "X(i,j) = B(i,k) * C(k,j)", sched: lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: 2}},
	{expr: "x(i) = B(i,j) * c(j)", sched: lang.Schedule{Par: 2}},
	{expr: "x(i) = b(i) * c(i)", sched: lang.Schedule{UseSkip: true}},
	{expr: "x(i) = B(i,j) * c(j)", formats: lang.Formats{"c": lang.Uniform(1, fiber.Dense)},
		sched: lang.Schedule{UseLocators: true}},
	{expr: "x(i) = b(i) * c(i)", bitvector: true},
	{expr: "X(i,j) = B(i,j) * C(i,j)", bitvector: true},
}

// kindsUnemitted lists, each with its reason, the block kinds no compiler
// rule emits. A kind listed here must not be emitted by the corpus either.
var kindsUnemitted = map[graph.Kind]string{}

// TestKindsEmitted holds every graph.Kind to a compiler rule: some corpus
// entry must emit it, or kindsUnemitted must say why none does. A block that
// the engines build and the artifact format carries but no statement
// compiles to fails here, although code reaches it. Reserved kind numbers
// (the `_` slots) have no name and are skipped.
func TestKindsEmitted(t *testing.T) {
	emitted := map[graph.Kind]bool{}
	for _, c := range kindCorpus {
		e := lang.MustParse(c.expr)
		var g *graph.Graph
		var err error
		if c.bitvector {
			g, err = CompileBitvector(e, c.formats)
		} else {
			g, err = Compile(e, c.formats, c.sched)
		}
		if err != nil {
			t.Fatalf("%s %+v: %v", c.expr, c.sched, err)
		}
		for _, n := range g.Nodes {
			emitted[n.Kind] = true
		}
	}
	for k := graph.Kind(0); k < 64; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			continue
		}
		reason, listed := kindsUnemitted[k]
		switch {
		case !emitted[k] && !listed:
			t.Errorf("block kind %v (graph.Kind %d) is emitted by no statement of the corpus", k, int(k))
		case emitted[k] && listed:
			t.Errorf("block kind %v is emitted, yet kindsUnemitted lists it: %s", k, reason)
		}
	}
}
