package custard

import (
	"strings"
	"testing"

	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// TestDiscordantModeOrderRejected checks the paper's concordance rule: a
// tensor whose declared mode order conflicts with the schedule's traversal
// order cannot be scanned and must be rejected with a clear error.
func TestDiscordantModeOrderRejected(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	formats := lang.Formats{
		"B": {Levels: []fiber.Format{fiber.Compressed, fiber.Compressed}, ModeOrder: []int{1, 0}},
	}
	_, err := Compile(e, formats, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err == nil {
		t.Fatal("discordant mode order accepted")
	}
	if !strings.Contains(err.Error(), "discordant") {
		t.Errorf("error does not mention discordance: %v", err)
	}
}

// TestConcordantModeOrderAccepted checks the matching explicit mode order.
func TestConcordantModeOrderAccepted(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	formats := lang.Formats{
		"B": {Levels: []fiber.Format{fiber.Compressed, fiber.Compressed}, ModeOrder: []int{0, 1}},
		"C": {Levels: []fiber.Format{fiber.Compressed, fiber.Compressed}, ModeOrder: []int{0, 1}},
	}
	if _, err := Compile(e, formats, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialReductionOutsideWiderVariable checks the loop-order rule no
// engine can do without: a variable reduced over only part of the
// expression may not be iterated outside a variable merged over more of it
// (the wider merge would see streams of different nesting depths — at run
// time, "Union i: done token while other inputs still streaming"). The
// rejection is the same at every lane count, and the legal order of each
// statement still compiles.
func TestPartialReductionOutsideWiderVariable(t *testing.T) {
	cases := []struct {
		expr       string
		bad, legal []string
	}{
		{"x(i) = b(i) - C(i,j) * d(j)", []string{"j", "i"}, []string{"i", "j"}},
		{"x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", []string{"j", "i"}, []string{"i", "j"}},
		{"X(k) = B(i,k) * c(i) + d(k)", []string{"i", "k"}, []string{"k", "i"}},
		{"X(i,j) = B(i,k) * C(k,j) + D(i,j)", []string{"i", "k", "j"}, []string{"i", "j", "k"}},
		{"x = B(i,j) * c(j) + d(i)", []string{"j", "i"}, []string{"i", "j"}},
	}
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		for _, par := range []int{1, 2} {
			_, err := Compile(e, nil, lang.Schedule{LoopOrder: tc.bad, Par: par})
			if err == nil || !strings.Contains(err.Error(), "reduced over only part of the expression but iterated outside") {
				t.Errorf("%s order %v par %d: err = %v, want the nesting rejection", tc.expr, tc.bad, par, err)
			}
			if _, err := Compile(e, nil, lang.Schedule{LoopOrder: tc.legal, Par: par}); err != nil {
				t.Errorf("%s order %v par %d: legal order rejected: %v", tc.expr, tc.legal, par, err)
			}
		}
	}
	// A reduction over the whole expression may sit anywhere.
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	for _, order := range [][]string{{"k", "i", "j"}, {"i", "k", "j"}, {"i", "j", "k"}} {
		if _, err := Compile(e, nil, lang.Schedule{LoopOrder: order}); err != nil {
			t.Errorf("SpM*SpM order %v: %v", order, err)
		}
	}
}

// TestFormatArityChecked checks level-count validation.
func TestFormatArityChecked(t *testing.T) {
	e := lang.MustParse("x(i) = B(i,j) * c(j)")
	if _, err := Compile(e, lang.Formats{"B": lang.Uniform(3, fiber.Compressed)}, lang.Schedule{}); err == nil {
		t.Error("format with wrong level count accepted")
	}
	if _, err := Compile(e, lang.Formats{"x": lang.Uniform(2, fiber.Compressed)}, lang.Schedule{}); err == nil {
		t.Error("output format with wrong level count accepted")
	}
}

// TestBitvectorLevelsRejectedInGeneralPath checks the guidance error.
func TestBitvectorLevelsRejectedInGeneralPath(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	_, err := Compile(e, lang.Formats{"B": lang.Uniform(2, fiber.Bitvector)}, lang.Schedule{})
	if err == nil {
		t.Fatal("bitvector operand accepted in the general lowering path")
	}
	if !strings.Contains(err.Error(), "CompileBitvector") {
		t.Errorf("error does not point at CompileBitvector: %v", err)
	}
}

// TestDenseOutputRejected checks that unsupported writer formats error.
func TestDenseOutputRejected(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,j) + C(i,j)")
	_, err := Compile(e, lang.Formats{"X": lang.Uniform(2, fiber.Dense)}, lang.Schedule{})
	if err == nil {
		t.Error("dense output format accepted")
	}
}

// TestLinkedListOutputAccepted checks the OuterSPACE-style writer format.
func TestLinkedListOutputAccepted(t *testing.T) {
	e := lang.MustParse("Y(i,k,j) = B(i,k) * C(k,j)")
	formats := lang.Formats{
		"Y": {Levels: []fiber.Format{fiber.Compressed, fiber.LinkedList, fiber.Compressed}},
	}
	g, err := Compile(e, formats, lang.Schedule{LoopOrder: []string{"k", "i", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range g.Nodes {
		if n.Kind == graph.CrdWriter && n.Format == fiber.LinkedList {
			found = true
		}
	}
	if !found {
		t.Error("no linked-list writer in the graph")
	}
}

// TestCompileBitvectorErrors checks the bitvector pipeline's guards.
func TestCompileBitvectorErrors(t *testing.T) {
	for _, expr := range []string{
		"x(i) = b(i) + c(i)",       // not a multiplication
		"x = b(i) * c(i)",          // reduction
		"x(i) = a * b(i) * c(i)",   // more than two operands
		"X(i,j) = B(i,k) * C(k,j)", // not elementwise
	} {
		if _, err := CompileBitvector(lang.MustParse(expr), nil); err == nil {
			t.Errorf("CompileBitvector accepted %q", expr)
		}
	}
	if _, err := CompileBitvector(lang.MustParse("x(i) = b(i) * c(i)"),
		lang.Formats{"b": lang.Uniform(1, fiber.Compressed)}); err == nil {
		t.Error("CompileBitvector accepted a compressed operand")
	}
}

// TestGallopRewriteOnlyForCompressedPairs checks that the skip schedule
// falls back to plain intersection when a side is dense.
func TestGallopRewriteOnlyForCompressedPairs(t *testing.T) {
	e := lang.MustParse("x(i) = b(i) * c(i)")
	g, err := Compile(e, lang.Formats{"c": lang.Uniform(1, fiber.Dense)}, lang.Schedule{UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Count(graph.GallopIntersect) != 0 {
		t.Error("gallop unit built over a dense level")
	}
	if g.Count(graph.Intersect) != 1 {
		t.Error("expected a plain intersecter fallback")
	}

	g2, err := Compile(e, nil, lang.Schedule{UseSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Count(graph.GallopIntersect) != 1 {
		t.Error("compressed pair not fused into a gallop unit")
	}
}

// TestRepeatedTensorGetsDistinctBindings checks that a tensor appearing
// twice compiles to two operands with separate bindings.
func TestRepeatedTensorGetsDistinctBindings(t *testing.T) {
	e := lang.MustParse("X(i,j) = B(i,k) * B(k,j)")
	g, err := Compile(e, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Bindings) != 2 {
		t.Fatalf("got %d bindings, want 2", len(g.Bindings))
	}
	if g.Bindings[0].Operand == g.Bindings[1].Operand {
		t.Error("operand names collide for a repeated tensor")
	}
	for _, b := range g.Bindings {
		if b.Source != "B" {
			t.Errorf("binding source = %q, want B", b.Source)
		}
	}
}
