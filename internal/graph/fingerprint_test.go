package graph_test

import (
	"testing"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

func compile(t *testing.T, expr string, formats lang.Formats, sched lang.Schedule) *graph.Graph {
	t.Helper()
	e, err := lang.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	g, err := custard.Compile(e, formats, sched)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return g
}

// TestFingerprintDistinguishesConfigurations compiles a battery of
// (expression, format, schedule) configurations — spanning loop orders, lane
// counts, storage formats, optimization rewrites, and the bitvector
// pipeline — and checks that every configuration fingerprints differently
// and that recompiling the same configuration reproduces the same
// fingerprint.
func TestFingerprintDistinguishesConfigurations(t *testing.T) {
	spmspm := "X(i,j) = B(i,k) * C(k,j)"
	spmv := "x(i) = B(i,j) * c(j)"
	type cfg struct {
		name    string
		compile func() *graph.Graph
	}
	cfgs := []cfg{
		{"spmv", func() *graph.Graph { return compile(t, spmv, nil, lang.Schedule{}) }},
		{"spmv-par2", func() *graph.Graph { return compile(t, spmv, nil, lang.Schedule{Par: 2}) }},
		{"spmv-par4", func() *graph.Graph { return compile(t, spmv, nil, lang.Schedule{Par: 4}) }},
		{"spmv-order-ji", func() *graph.Graph {
			return compile(t, spmv, nil, lang.Schedule{LoopOrder: []string{"j", "i"}})
		}},
		{"spmv-skip", func() *graph.Graph { return compile(t, spmv, nil, lang.Schedule{UseSkip: true}) }},
		{"spmv-csr", func() *graph.Graph {
			return compile(t, spmv, lang.Formats{"B": lang.CSR(2)}, lang.Schedule{})
		}},
		{"spmv-dense", func() *graph.Graph {
			return compile(t, spmv, lang.Formats{"B": lang.Uniform(2, fiber.Dense), "c": lang.Uniform(1, fiber.Dense)}, lang.Schedule{})
		}},
		{"spmspm-ijk", func() *graph.Graph {
			return compile(t, spmspm, nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}})
		}},
		{"spmspm-ikj", func() *graph.Graph {
			return compile(t, spmspm, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
		}},
		{"spmspm-ikj-par4", func() *graph.Graph {
			return compile(t, spmspm, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: 4})
		}},
		{"spmspm-locators", func() *graph.Graph {
			dense := lang.Formats{"B": lang.Uniform(2, fiber.Dense), "C": lang.Uniform(2, fiber.Dense)}
			return compile(t, spmspm, dense, lang.Schedule{UseLocators: true})
		}},
		{"elemmul-bitvector", func() *graph.Graph {
			e := lang.MustParse("x(i) = b(i) * c(i)")
			bv := lang.Formats{"b": lang.Uniform(1, fiber.Bitvector), "c": lang.Uniform(1, fiber.Bitvector)}
			g, err := custard.CompileBitvector(e, bv)
			if err != nil {
				t.Fatalf("compile bitvector: %v", err)
			}
			return g
		}},
	}
	seen := map[string]string{}
	for _, c := range cfgs {
		fp := c.compile().Fingerprint()
		if len(fp) != 32 {
			t.Fatalf("%s: fingerprint %q is not 128-bit hex", c.name, fp)
		}
		if prev, ok := seen[fp]; ok {
			t.Errorf("fingerprint collision: %s and %s both hash to %s", prev, c.name, fp)
		}
		seen[fp] = c.name
		if again := c.compile().Fingerprint(); again != fp {
			t.Errorf("%s: fingerprint unstable across recompiles: %s vs %s", c.name, fp, again)
		}
	}
}

// TestFingerprintSensitivity mutates individual fields of a compiled graph
// and checks the fingerprint moves; renaming the graph must not move it.
func TestFingerprintSensitivity(t *testing.T) {
	base := func() *graph.Graph { return compile(t, "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}) }
	fp := base().Fingerprint()

	g := base()
	g.Name = "renamed"
	if g.Fingerprint() != fp {
		t.Errorf("renaming the graph changed the fingerprint")
	}

	mutations := map[string]func(*graph.Graph){
		"node format":  func(g *graph.Graph) { g.Nodes[1].Format = fiber.Bitvector },
		"node level":   func(g *graph.Graph) { g.Nodes[1].Level++ },
		"edge port":    func(g *graph.Graph) { g.Edges[0].FromPort += "x" },
		"edge target":  func(g *graph.Graph) { g.Edges[0].To = (g.Edges[0].To + 1) % len(g.Nodes) },
		"binding mode": func(g *graph.Graph) { b := &g.Bindings[0]; b.ModeOrder = []int{1, 0} },
		"expr":         func(g *graph.Graph) { g.Expr += " " },
		"output tensor": func(g *graph.Graph) {
			g.OutputTensor = "y"
		},
	}
	for name, mutate := range mutations {
		m := base()
		mutate(m)
		if m.Fingerprint() == fp {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

// TestFingerprintNoFieldAliasing checks the length-prefixed serialization:
// shifting a character between adjacent string fields must change the hash.
func TestFingerprintNoFieldAliasing(t *testing.T) {
	g1 := &graph.Graph{Nodes: []*graph.Node{{Label: "ab", Tensor: "c"}}}
	g2 := &graph.Graph{Nodes: []*graph.Node{{Label: "a", Tensor: "bc"}}}
	if g1.Fingerprint() == g2.Fingerprint() {
		t.Fatalf("adjacent string fields alias in the fingerprint")
	}
}

// TestFingerprintPinned holds the fingerprints of three custard graphs to
// recorded literals: the digest is the compiled-program cache key and the
// identity embedded in every artifact, so its byte stream must not drift.
func TestFingerprintPinned(t *testing.T) {
	cases := []struct {
		name, expr string
		sched      lang.Schedule
		want       string
	}{
		{"SpMV/opt0", "x(i) = B(i,j) * c(j)", lang.Schedule{}, "93cc1107d277940909319caa3ce9e6e6"},
		{"SpMSpM-ikj/opt1", "X(i,j) = B(i,k) * C(k,j)", lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Opt: 1}, "a912cdcd03b088d587ce32af0acbaa9f"},
		{"SDDMM/par2", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", lang.Schedule{Par: 2}, "c5a3b547c20e9ad6491b7d89ee7813b4"},
	}
	for _, tc := range cases {
		if got := compile(t, tc.expr, nil, tc.sched).Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
