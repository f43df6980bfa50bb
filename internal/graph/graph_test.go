package graph

import (
	"slices"
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

// TestWire pins the stream numbering both engines build from: streams by
// first appearance in edge order, one stream for a fan-out's edges, -1 for
// an output port that drives nothing, and each input port's feeding edge.
func TestWire(t *testing.T) {
	g := &Graph{Name: "w"}
	root := g.AddNode(&Node{Kind: Root, Label: "Root B"})
	sc := g.AddNode(&Node{Kind: Scanner, Label: "Scanner B.i", Tensor: "B"})
	wr := g.AddNode(&Node{Kind: CrdWriter, Label: "Writer X.i"})
	rep := g.AddNode(&Node{Kind: Repeat, Label: "Repeat c"})
	arr := g.AddNode(&Node{Kind: Array, Label: "Array c", Tensor: "c"})
	vals := g.AddNode(&Node{Kind: ValsWriter, Label: "Writer X.vals"})
	g.Connect(rep, "ref", arr, "ref")  // edge 0: stream 0
	g.Connect(root, "ref", sc, "ref")  // edge 1: stream 1
	g.Connect(sc, "crd", wr, "crd")    // edge 2: stream 2
	g.Connect(root, "ref", rep, "ref") // edge 3: stream 1, a fan-out
	g.Connect(sc, "crd", rep, "crd")   // edge 4: stream 2, a fan-out
	g.Connect(arr, "val", vals, "val") // edge 5: stream 3
	w, err := g.Wire()
	if err != nil {
		t.Fatal(err)
	}
	if w.Streams != 4 {
		t.Errorf("Streams = %d, want 4", w.Streams)
	}
	// Output ports: root.ref, sc.crd, sc.ref (drives nothing), rep.ref,
	// arr.val.
	if want := []int{1, 2, -1, 0, 3}; !slices.Equal(w.Stream, want) {
		t.Errorf("Stream = %v, want %v", w.Stream, want)
	}
	// Input ports: sc.ref, wr.crd, rep.crd, rep.ref, arr.ref, vals.val.
	if want := []int{1, 2, 4, 3, 0, 5}; !slices.Equal(w.Feed, want) {
		t.Errorf("Feed = %v, want %v", w.Feed, want)
	}
	if want := []int{0, 1, 2, 1, 2, 3}; !slices.Equal(w.EdgeStream, want) {
		t.Errorf("EdgeStream = %v, want %v", w.EdgeStream, want)
	}
	for _, tc := range []struct {
		node                 *Node
		in0, in1, out0, out1 int
	}{
		{root, 0, 0, 0, 1}, {sc, 0, 1, 1, 3}, {wr, 1, 2, 3, 3},
		{rep, 2, 4, 3, 4}, {arr, 4, 5, 4, 5}, {vals, 5, 6, 5, 5},
	} {
		in0, in1, out0, out1 := w.Ports.Span(tc.node.ID)
		if in0 != tc.in0 || in1 != tc.in1 || out0 != tc.out0 || out1 != tc.out1 {
			t.Errorf("Span(%s) = %d, %d, %d, %d, want %d, %d, %d, %d", tc.node.Label,
				in0, in1, out0, out1, tc.in0, tc.in1, tc.out0, tc.out1)
		}
	}
}
