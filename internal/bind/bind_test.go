package bind

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// compile lowers a statement for binding tests.
func compile(t *testing.T, expr string, formats lang.Formats) *graph.Graph {
	t.Helper()
	e := lang.MustParse(expr)
	g, err := custard.Compile(e, formats, lang.Schedule{})
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	return g
}

// TestOperandsBindsEveryAccess checks storage is built per operand, in the
// scheduled mode order and with the requested level formats.
func TestOperandsBindsEveryAccess(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := compile(t, "X(i,j) = B(i,k) * C(k,j)", lang.Formats{
		"B": {Levels: []fiber.Format{fiber.Dense, fiber.Compressed}},
	})
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", r, 40, 10, 8),
		"C": tensor.UniformRandom("C", r, 40, 8, 12),
	}
	bound, err := NewPlan(g).Operands(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bound) != 2 {
		t.Fatalf("bound %d operands, want 2", len(bound))
	}
	b, ok := bound["B"]
	if !ok {
		t.Fatal("operand B not bound")
	}
	if len(b.Levels) != 2 {
		t.Fatalf("B has %d levels", len(b.Levels))
	}
	if b.Levels[0].Kind() != fiber.Dense || b.Levels[1].Kind() != fiber.Compressed {
		t.Errorf("B level kinds = %v, %v", b.Levels[0].Kind(), b.Levels[1].Kind())
	}
	if got := len(bound["C"].Levels); got != 2 {
		t.Errorf("C has %d levels", got)
	}
}

// TestOperandsRepeatedTensor checks a tensor accessed twice binds once per
// occurrence under distinct operand names.
func TestOperandsRepeatedTensor(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := compile(t, "x(i) = B(i,j) * B(i,j)", nil)
	inputs := map[string]*tensor.COO{"B": tensor.UniformRandom("B", r, 20, 8, 8)}
	bound, err := NewPlan(g).Operands(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bound) != 2 {
		t.Fatalf("bound %d operands, want 2 (one per occurrence)", len(bound))
	}
	if _, ok := bound["B#2"]; !ok {
		t.Errorf("second occurrence not bound under a unique name; bound: %v", keys(bound))
	}
}

// TestOperandsUnsortedInput checks that an input fiber.Build finds out of
// order binds as its sorted, duplicate-summed copy would, and is left as
// it was.
func TestOperandsUnsortedInput(t *testing.T) {
	g := compile(t, "x(i) = B(i,j) * c(j)", nil)
	pts := []tensor.Point{{Crd: []int64{2, 1}, Val: 1}, {Crd: []int64{0, 0}, Val: 2}, {Crd: []int64{2, 1}, Val: 3}, {Crd: []int64{1, 0}, Val: 4}}
	unsorted := &tensor.COO{Name: "B", Dims: []int{3, 2}, Pts: slices.Clone(pts)}
	sorted := &tensor.COO{Name: "B", Dims: []int{3, 2}, Pts: []tensor.Point{{Crd: []int64{0, 0}, Val: 2}, {Crd: []int64{1, 0}, Val: 4}, {Crd: []int64{2, 1}, Val: 4}}}
	c := tensor.NewCOO("c", 2)
	c.Append(5, 1)
	got, err := NewPlan(g).Operands(map[string]*tensor.COO{"B": unsorted, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPlan(g).Operands(map[string]*tensor.COO{"B": sorted, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got["B"], want["B"]) {
		t.Errorf("unsorted B bound to %+v, want %+v", got["B"], want["B"])
	}
	if !reflect.DeepEqual(unsorted.Pts, pts) {
		t.Errorf("binding changed the input: %v", unsorted.Pts)
	}
}

// TestEquivalentBindingsShareStorage checks a tensor accessed twice with the
// same mode order and formats is built once and bound to both operands,
// while accesses in different mode orders each get their own tree.
func TestEquivalentBindingsShareStorage(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	inputs := map[string]*tensor.COO{"B": tensor.UniformRandom("B", r, 20, 8, 8)}
	for _, tc := range []struct {
		expr  string
		share bool
	}{
		{"X(i,j) = B(i,j) * B(i,j)", true},
		{"x(i) = B(i,j) * B(j,i)", false},
	} {
		bound, err := NewPlan(compile(t, tc.expr, nil)).Operands(inputs)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		first, second := bound["B"], bound["B#2"]
		if first == nil || second == nil {
			t.Fatalf("%s: bound %v, want B and B#2", tc.expr, keys(bound))
		}
		if (first == second) != tc.share {
			t.Errorf("%s: B and B#2 share storage = %v, want %v", tc.expr, first == second, tc.share)
		}
	}
}

// TestOperandsMissingTensor checks the unbound-input diagnostic names the
// missing tensor.
func TestOperandsMissingTensor(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := compile(t, "x(i) = B(i,j) * c(j)", nil)
	_, err := NewPlan(g).Operands(map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", r, 20, 8, 8),
	})
	if err == nil || !strings.Contains(err.Error(), `"c"`) {
		t.Errorf("missing input error = %v, want mention of c", err)
	}
}

// TestOperandsOrderZeroScalar checks order-0 operands bind as scalars.
func TestOperandsOrderZeroScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := compile(t, "x(i) = alpha * B(i,j)", nil)
	alpha := tensor.NewCOO("alpha")
	alpha.Append(2.5)
	bound, err := NewPlan(g).Operands(map[string]*tensor.COO{
		"alpha": alpha,
		"B":     tensor.UniformRandom("B", r, 20, 8, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := bound["alpha"]
	if !ok {
		t.Fatal("alpha not bound")
	}
	if len(a.Levels) != 0 || len(a.Vals) != 1 || a.Vals[0] != 2.5 {
		t.Errorf("alpha bound as %d levels, vals %v", len(a.Levels), a.Vals)
	}
}

// TestOutputDims resolves output dimensions from the referenced inputs and
// rejects missing or undersized references.
func TestOutputDims(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := compile(t, "X(i,j) = B(i,k) * C(k,j)", nil)
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", r, 40, 10, 8),
		"C": tensor.UniformRandom("C", r, 40, 8, 12),
	}
	dims, err := NewPlan(g).OutputDims(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0] != 10 || dims[1] != 12 {
		t.Errorf("dims = %v, want [10 12]", dims)
	}

	if _, err := NewPlan(g).OutputDims(map[string]*tensor.COO{"B": inputs["B"]}); err == nil {
		t.Error("missing dimension reference accepted")
	}
	bad := &graph.Graph{OutputDims: []graph.DimRef{{Tensor: "B", Mode: 9}}}
	if _, err := NewPlan(bad).OutputDims(inputs); err == nil {
		t.Error("out-of-range mode accepted")
	}
	neg := &graph.Graph{OutputDims: []graph.DimRef{{Tensor: "B", Mode: -5}}}
	if _, err := NewPlan(neg).OutputDims(inputs); err == nil {
		t.Error("negative mode accepted")
	}
}

func keys(m map[string]*fiber.Tensor) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
