package opt

import (
	"testing"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// TestNodeKeySplitsOnEverySemanticField holds dedup's hash-consing key to
// its contract: two blocks share a key exactly when they compute the same
// streams, so perturbing any one semantic field or any input's source must
// split them, and the cosmetic label must not.
func TestNodeKeySplitsOnEverySemanticField(t *testing.T) {
	base := func() (*graph.Node, []port) {
		n := &graph.Node{
			Kind: graph.Intersect, Label: "Intersect j", Tensor: "B", Level: 1,
			TensorB: "C", LevelB: 0, Format: fiber.Compressed, Ways: 2, Op: lang.Mul,
			RedN: 1, DropVal: false, OutLevel: 0,
		}
		srcs := []port{{1, "crd"}, {1, "ref"}, {2, "crd"}, {2, "ref"}}
		return n, srcs
	}
	key := func(n *graph.Node, srcs []port) string { return string(appendNodeKey(nil, n, srcs)) }
	n0, s0 := base()
	want := key(n0, s0)

	cases := []struct {
		name  string
		edit  func(n *graph.Node, srcs []port)
		split bool
	}{
		{"Kind", func(n *graph.Node, _ []port) { n.Kind = graph.Union }, true},
		{"Tensor", func(n *graph.Node, _ []port) { n.Tensor = "D" }, true},
		{"Level", func(n *graph.Node, _ []port) { n.Level = 2 }, true},
		{"TensorB", func(n *graph.Node, _ []port) { n.TensorB = "D" }, true},
		{"LevelB", func(n *graph.Node, _ []port) { n.LevelB = 1 }, true},
		{"Format", func(n *graph.Node, _ []port) { n.Format = fiber.Dense }, true},
		{"Ways", func(n *graph.Node, _ []port) { n.Ways = 3 }, true},
		{"Op", func(n *graph.Node, _ []port) { n.Op = lang.Add }, true},
		{"RedN", func(n *graph.Node, _ []port) { n.RedN = 2 }, true},
		{"DropVal", func(n *graph.Node, _ []port) { n.DropVal = true }, true},
		{"OutLevel", func(n *graph.Node, _ []port) { n.OutLevel = 1 }, true},
		{"input source node", func(_ *graph.Node, srcs []port) { srcs[2].node = 3 }, true},
		{"input source port", func(_ *graph.Node, srcs []port) { srcs[3].name = "ref0" }, true},
		{"unconnected input", func(_ *graph.Node, srcs []port) { srcs[0] = port{} }, true},
		{"adjacent strings shift", func(n *graph.Node, _ []port) { n.Tensor, n.TensorB = "BC", "" }, true},
		{"Label", func(n *graph.Node, _ []port) { n.Label = "Intersect j [lane 1]" }, false},
	}
	for _, tc := range cases {
		n, srcs := base()
		tc.edit(n, srcs)
		if got := key(n, srcs); (got != want) != tc.split {
			t.Errorf("%s: key split = %v, want %v", tc.name, got != want, tc.split)
		}
	}
}
