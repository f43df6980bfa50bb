package graph

import (
	"strings"
	"testing"

	"sam/internal/fiber"
)

// tinyGraph builds root -> scanner -> writer.
func tinyGraph() (*Graph, *Node, *Node, *Node) {
	g := &Graph{Name: "t"}
	root := g.AddNode(&Node{Kind: Root, Label: "Root B"})
	sc := g.AddNode(&Node{Kind: Scanner, Label: "Scanner B.i", Tensor: "B", Format: fiber.Compressed})
	wr := g.AddNode(&Node{Kind: CrdWriter, Label: "Writer X.i", Tensor: "X"})
	return g, root, sc, wr
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	g, root, sc, wr := tinyGraph()
	g.Connect(root, "ref", sc, "ref")
	g.Connect(sc, "crd", wr, "crd")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnconnectedInput(t *testing.T) {
	g, root, sc, _ := tinyGraph()
	g.Connect(root, "ref", sc, "ref")
	if err := g.Validate(); err == nil {
		t.Error("writer with no input accepted")
	}
}

func TestValidateRejectsDoubleDriver(t *testing.T) {
	g, root, sc, wr := tinyGraph()
	g.Connect(root, "ref", sc, "ref")
	g.Connect(sc, "crd", wr, "crd")
	g.Connect(sc, "ref", wr, "crd") // second driver on the same port
	if err := g.Validate(); err == nil {
		t.Error("doubly-driven input accepted")
	}
}

func TestValidateRejectsBadPorts(t *testing.T) {
	g, root, sc, wr := tinyGraph()
	g.Connect(root, "nope", sc, "ref")
	g.Connect(sc, "crd", wr, "crd")
	if err := g.Validate(); err == nil {
		t.Error("bad output port accepted")
	}
	g2, root2, sc2, wr2 := tinyGraph()
	g2.Connect(root2, "ref", sc2, "bogus")
	g2.Connect(sc2, "crd", wr2, "crd")
	if err := g2.Validate(); err == nil {
		t.Error("bad input port accepted")
	}
}

func TestPortTables(t *testing.T) {
	cases := []struct {
		node    *Node
		in, out int
	}{
		{&Node{Kind: Root}, 0, 1},
		{&Node{Kind: Scanner}, 1, 2},
		{&Node{Kind: Repeat}, 2, 1},
		{&Node{Kind: Intersect, Ways: 3}, 6, 4},
		{&Node{Kind: Union, Ways: 2}, 4, 3},
		{&Node{Kind: GallopIntersect}, 2, 3},
		{&Node{Kind: Locate}, 3, 3},
		{&Node{Kind: Array}, 1, 1},
		{&Node{Kind: ALU}, 2, 1},
		{&Node{Kind: Reduce, RedN: 0}, 1, 1},
		{&Node{Kind: Reduce, RedN: 1}, 2, 2},
		{&Node{Kind: Reduce, RedN: 2}, 3, 3},
		{&Node{Kind: CrdDrop}, 2, 2},
		{&Node{Kind: CrdDrop, Drop: DropVal}, 2, 2},
		{&Node{Kind: CrdDrop, Drop: DropOrphan}, 2, 2},
		{&Node{Kind: CrdWriter}, 1, 0},
		{&Node{Kind: ValsWriter}, 1, 0},
		{&Node{Kind: BVIntersect}, 4, 5},
		{&Node{Kind: VecLoad}, 3, 1},
		{&Node{Kind: Parallelize, Ways: 4}, 1, 4},
		{&Node{Kind: Serialize, Ways: 4, Level: -1}, 4, 1},
		// Deep joins (Level >= 0) carry per-lane rotation-driver ports.
		{&Node{Kind: Serialize, Ways: 4, Level: 0}, 8, 1},
		{&Node{Kind: SerializePair, Ways: 4, Level: -1}, 8, 2},
		{&Node{Kind: SerializePair, Ways: 4, Level: 1}, 12, 2},
	}
	for _, tc := range cases {
		if got := len(InPorts(tc.node)); got != tc.in {
			t.Errorf("%v: %d input ports, want %d", tc.node.Kind, got, tc.in)
		}
		if got := len(OutPorts(tc.node)); got != tc.out {
			t.Errorf("%v: %d output ports, want %d", tc.node.Kind, got, tc.out)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g, root, sc, wr := tinyGraph()
	g.Expr = "X(i) = B(i)"
	g.Connect(root, "ref", sc, "ref")
	g.Connect(sc, "crd", wr, "crd")
	dot := g.DOT()
	for _, want := range []string{"digraph", "Scanner B.i", "Writer X.i", "->", "X(i) = B(i)"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestCount(t *testing.T) {
	g, _, _, _ := tinyGraph()
	if g.Count(Scanner) != 1 || g.Count(Union) != 0 {
		t.Error("Count miscounts")
	}
}

// TestValidateErrorTexts pins Validate's four failure texts word for word:
// callers and the serving layer surface them unchanged.
func TestValidateErrorTexts(t *testing.T) {
	cases := []struct {
		name  string
		build func(g *Graph, root, sc, wr *Node)
		want  string
	}{
		{"missing node", func(g *Graph, root, sc, wr *Node) {
			g.Edges = append(g.Edges, &Edge{From: root.ID, FromPort: "ref", To: 7, ToPort: "ref"})
		}, `graph: edge references missing node: &{From:0 FromPort:ref To:7 ToPort:ref}`},
		{"no output port", func(g *Graph, root, sc, wr *Node) {
			g.Connect(root, "crd", sc, "ref")
		}, `graph: node 0 (Root B) has no output port "crd"`},
		{"no input port", func(g *Graph, root, sc, wr *Node) {
			g.Connect(root, "ref", sc, "ref")
			g.Connect(sc, "crd", wr, "val")
		}, `graph: node 2 (Writer X.i) has no input port "val"`},
		{"unconnected input", func(g *Graph, root, sc, wr *Node) {
			g.Connect(root, "ref", sc, "ref")
		}, `graph: node 2 (Writer X.i) input port "crd" has 0 drivers, want 1`},
		{"double driver", func(g *Graph, root, sc, wr *Node) {
			g.Connect(root, "ref", sc, "ref")
			g.Connect(sc, "crd", wr, "crd")
			g.Connect(sc, "ref", wr, "crd")
		}, `graph: node 2 (Writer X.i) input port "crd" has 2 drivers, want 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, root, sc, wr := tinyGraph()
			tc.build(g, root, sc, wr)
			err := g.Validate()
			if err == nil || err.Error() != tc.want {
				t.Errorf("Validate() = %v\nwant %s", err, tc.want)
			}
		})
	}
}
