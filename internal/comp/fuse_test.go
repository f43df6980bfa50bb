package comp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/tensor"
	"sam/internal/token"
)

// Materialize fuses scanner + scanner + two-way intersect into one
// co-iteration step (fuse.go). These tests pin where the pass fires, that it
// leaves the IR alone, and that the streams which survive it are token for
// token what the unfused steps write.

// table1Kernels are the seven small-output Table 1 kernels the benchmark's
// warm workloads run.
var table1Kernels = []struct{ name, expr string }{
	{"SpMV", "x(i) = B(i,j) * c(j)"},
	{"SDDMM", "X(i,j) = B(i,j) * C(i,k) * D(j,k)"},
	{"InnerProd", "x = B(i,j,k) * C(i,j,k)"},
	{"TTV", "X(i,j) = B(i,j,k) * c(k)"},
	{"MTTKRP", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)"},
	{"Residual", "x(i) = b(i) - C(i,j) * d(j)"},
	{"MatTransMul", "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)"},
}

// sharedScanExpr at Opt 1 shares one B.i scanner between "Intersect i" and
// "Union i" — a scanner whose outputs have a second reader — and feeds the
// j-level intersect the union's references, N tokens included.
const sharedScanExpr = "X(i,j) = B(i,j) + B(i,j) * C(i,j)"

func lowerCase(t testing.TB, expr string, formats lang.Formats, sched lang.Schedule) (*graph.Graph, *comp.IR) {
	t.Helper()
	g, err := custard.Compile(lang.MustParse(expr), formats, sched)
	if err != nil {
		t.Fatalf("custard %q: %v", expr, err)
	}
	ir, err := comp.Lower(g)
	if err != nil {
		t.Fatalf("lower %q: %v", expr, err)
	}
	return g, ir
}

func countKind(steps []comp.StepIR, k graph.Kind) int {
	n := 0
	for i := range steps {
		if steps[i].Kind == k {
			n++
		}
	}
	return n
}

func stepLabeled(t *testing.T, steps []comp.StepIR, label string) *comp.StepIR {
	t.Helper()
	for i := range steps {
		if steps[i].Label == label {
			return &steps[i]
		}
	}
	t.Fatalf("no step labeled %q", label)
	return nil
}

// TestFusionActivates pins the pass's coverage, beside TestLanePlanActivates:
// every Intersect of the seven Table 1 kernels runs as the fused step, at
// the default schedule and at Par 4; the shapes outside the pattern stay as
// lowered; and the IR a program reports is untouched by the pass.
func TestFusionActivates(t *testing.T) {
	for _, par := range []int{1, 4} {
		total := 0
		for _, k := range table1Kernels {
			name := fmt.Sprintf("%s par%d", k.name, par)
			_, ir := lowerCase(t, k.expr, nil, lang.Schedule{Par: par})
			want := prog.EncodeIR(ir)
			p, err := comp.Materialize(ir)
			if err != nil {
				t.Fatalf("%s: materialize: %v", name, err)
			}
			steps := comp.ExecSteps(ir)
			n := countKind(ir.Steps, graph.Intersect)
			total += n
			if n == 0 {
				t.Errorf("%s: lowered IR has no Intersect; the case pins nothing", name)
			}
			if left := countKind(steps, graph.Intersect); left != 0 {
				t.Errorf("%s: %d of %d Intersect steps left unfused", name, left, n)
			}
			if got := countKind(steps, graph.GallopIntersect); got != n {
				t.Errorf("%s: %d fused steps for %d Intersects", name, got, n)
			}
			if got, want := countKind(steps, graph.Scanner), countKind(ir.Steps, graph.Scanner)-2*n; got != want {
				t.Errorf("%s: %d scanners execute, want %d", name, got, want)
			}
			if got, want := countKind(steps, graph.Union), countKind(ir.Steps, graph.Union); got != want {
				t.Errorf("%s: %d unions execute, want %d", name, got, want)
			}
			if got, want := p.Parallel(), par > 1; got != want {
				t.Errorf("%s: Parallel() = %v, want %v", name, got, want)
			}

			// The pass copies: the program's IR and its encoding are those of
			// a build without it.
			_, fresh := lowerCase(t, k.expr, nil, lang.Schedule{Par: par})
			u, err := comp.MaterializeUnfused(fresh)
			if err != nil {
				t.Fatalf("%s: materialize unfused: %v", name, err)
			}
			if !reflect.DeepEqual(p.IR(), u.IR()) {
				t.Errorf("%s: Materialize changed the IR", name)
			}
			if got := prog.EncodeIR(p.IR()); !bytes.Equal(got, want) || !bytes.Equal(got, prog.EncodeIR(u.IR())) {
				t.Errorf("%s: Materialize changed the IR's encoding", name)
			}
		}
		if par == 1 && total != 13 {
			t.Errorf("Table 1 kernels lower to %d Intersect steps at the default schedule, want 13", total)
		}
	}

	// A scanner with a second reader stays, and so does its intersect; the
	// next level's intersect, fed by the union, still fuses.
	_, ir := lowerCase(t, sharedScanExpr, nil, lang.Schedule{Opt: 1})
	steps := comp.ExecSteps(ir)
	if k := stepLabeled(t, steps, "Intersect i").Kind; k != graph.Intersect {
		t.Errorf("shared scanner: Intersect i executes as %v, want it unfused", k)
	}
	stepLabeled(t, steps, "Scanner B.i")
	stepLabeled(t, steps, "Scanner C.i")
	if k := stepLabeled(t, steps, "Intersect j").Kind; k != graph.GallopIntersect {
		t.Errorf("shared scanner: Intersect j executes as %v, want it fused", k)
	}

	// A 3-way intersect and a union are outside the pattern altogether.
	for _, expr := range []string{"X(i,j) = B(i,j) * C(i,j) * D(i,j)", "X(i,j) = B(i,j) + C(i,j)"} {
		_, ir := lowerCase(t, expr, nil, lang.Schedule{})
		if steps := comp.ExecSteps(ir); !reflect.DeepEqual(steps, ir.Steps) {
			t.Errorf("%s: the pass rewrote a step list with nothing to fuse", expr)
		}
	}
}

// runStreams materializes ir with build, runs it once on a fresh context and
// returns the stream table the run left behind with the assembled output.
func runStreams(build func(*comp.IR) (*comp.Program, error), ir *comp.IR, bound map[string]*fiber.Tensor, dims []int) ([]token.Stream, *tensor.COO, error) {
	p, err := build(ir)
	if err != nil {
		return nil, nil, err
	}
	rc := p.NewCtx()
	out, err := p.RunPooled(rc, bound, dims)
	return rc.Streams(), out, err
}

// compareFusion runs one configuration fused and unfused and demands that
// every stream slot the fused step list still writes is identical, that the
// fused-away slots stay empty, and that the outputs agree bit for bit.
func compareFusion(t *testing.T, name, expr string, formats lang.Formats, sched lang.Schedule, inputs map[string]*tensor.COO) (fusedSteps int) {
	t.Helper()
	g, err := custard.Compile(lang.MustParse(expr), formats, sched)
	if err != nil {
		if sched.Par > 1 {
			return 0 // kernel not parallelizable under this loop order
		}
		t.Fatalf("%s: custard: %v", name, err)
	}
	ir, err := comp.Lower(g)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	bound, err := bind.Operands(g, inputs)
	if err != nil {
		t.Fatalf("%s: bind: %v", name, err)
	}
	dims, err := bind.OutputDims(g, inputs)
	if err != nil {
		t.Fatalf("%s: output dims: %v", name, err)
	}
	want, wantOut, errU := runStreams(comp.MaterializeUnfused, ir, bound, dims)
	got, gotOut, errF := runStreams(comp.Materialize, ir, bound, dims)
	if (errU == nil) != (errF == nil) {
		t.Errorf("%s: run-failure parity broken: unfused err=%v, fused err=%v", name, errU, errF)
		return 0
	}
	if errU != nil {
		return 0
	}
	if err := tensor.IdenticalBits(wantOut, gotOut); err != nil {
		t.Errorf("%s: fused output differs from unfused: %v", name, err)
	}
	steps := comp.ExecSteps(ir)
	survives := make([]bool, ir.NSlot)
	for i := range steps {
		for _, s := range steps[i].Outs {
			if s >= 0 {
				survives[s] = true
			}
		}
	}
	for s := range survives {
		switch {
		case survives[s] && !token.Equal(got[s], want[s]):
			t.Errorf("%s: slot %d differs\n  fused   %v\n  unfused %v", name, s, got[s], want[s])
		case !survives[s] && (len(got[s]) != 0 || len(want[s]) == 0):
			t.Errorf("%s: fused-away slot %d holds %d tokens fused, %d unfused; want 0 and some", name, s, len(got[s]), len(want[s]))
		}
	}
	return countKind(steps, graph.GallopIntersect) - countKind(ir.Steps, graph.GallopIntersect)
}

// TestFusionSlotIdentical is the fused-vs-unfused battery: the differential
// kernels across Opt 0/1 and Par 1/2/4, on random operands, on the disjoint
// supports that empty every intersection, and on operands with no entries at
// all. The formats cover both merge loops (compressed × compressed, and the
// Level-interface fallback on a dense level) and empty fibers (CSR rows).
func TestFusionSlotIdentical(t *testing.T) {
	cases := []struct {
		name    string
		expr    string
		formats lang.Formats
		sched   lang.Schedule
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}},
		{"spmv-csr", "x(i) = B(i,j) * c(j)", lang.Formats{"B": lang.CSR(2)}, lang.Schedule{}},
		{"spmv-dense-c", "x(i) = B(i,j) * c(j)", lang.Formats{"c": lang.Uniform(1, fiber.Dense)}, lang.Schedule{}},
		{"spmv-skip", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{UseSkip: true}},
		{"spmspm-ikj", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
		{"spmspm-ijk", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "j", "k"}}},
		{"spmspm-kij", "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"k", "i", "j"}}},
		{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, lang.Schedule{}},
		{"ttv", "X(i,j) = B(i,j,k) * c(k)", nil, lang.Schedule{}},
		{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", nil, lang.Schedule{}},
		{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil, lang.Schedule{}},
		{"innerprod", "x = B(i,j,k) * C(i,j,k)", nil, lang.Schedule{}},
		{"residual", "x(i) = b(i) - C(i,j) * d(j)", nil, lang.Schedule{}},
		{"mattransmul", "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", nil, lang.Schedule{}},
		{"hadamard-square", "X(i,j) = B(i,j) * B(i,j)", nil, lang.Schedule{}},
		{"shared-scan", sharedScanExpr, nil, lang.Schedule{}},
		{"deep-reduce", "X(i,j,k) = B(i,j,k,l) * c(l)", nil, lang.Schedule{LoopOrder: []string{"l", "i", "j", "k"}}},
	}
	dimOf := map[string]int{"i": 24, "j": 20, "k": 14, "l": 10}
	rng := rand.New(rand.NewSource(43))
	fused := 0
	for _, tc := range cases {
		e := lang.MustParse(tc.expr)
		random := randomInputs(rng, e, func(v string) int { return dimOf[v] })
		disjoint, none := map[string]*tensor.COO{}, map[string]*tensor.COO{}
		for n, a := range e.Accesses() {
			if len(a.Idx) == 0 {
				disjoint[a.Tensor], none[a.Tensor] = random[a.Tensor], random[a.Tensor]
				continue
			}
			ds := make([]int, len(a.Idx))
			crd := make([]int64, len(a.Idx))
			for i := range ds {
				ds[i] = 8
				crd[i] = int64(n % 2) // disjoint even/odd supports
			}
			one := tensor.NewCOO(a.Tensor, ds...)
			one.Append(float64(n+1), crd...)
			disjoint[a.Tensor] = one
			none[a.Tensor] = tensor.NewCOO(a.Tensor, ds...)
		}
		for _, in := range []struct {
			name   string
			inputs map[string]*tensor.COO
		}{{"random", random}, {"disjoint", disjoint}, {"all-empty", none}} {
			for _, par := range []int{1, 2, 4} {
				for _, opt := range []int{0, 1} {
					s := tc.sched
					s.Par, s.Opt = par, opt
					name := fmt.Sprintf("%s/%s par%d O%d", tc.name, in.name, par, opt)
					fused += compareFusion(t, name, tc.expr, tc.formats, s, in.inputs)
				}
			}
		}
	}
	if fused == 0 {
		t.Error("no configuration fused a step; the battery compared a program with itself")
	}
}

// TestFiberRefOutOfRange crafts IRs that pass Validate but aim a level walk
// at the wrong level — the shape of a corrupt-but-checksummed artifact — so
// stream references index past the level's fibers. The run must end in an
// error on the fused kernel, the scanner and the locator alike, not in an
// index panic that nothing above comp recovers.
func TestFiberRefOutOfRange(t *testing.T) {
	// aimAtTop points a level-1 walk at its operand's one-fiber top level.
	aimAtTop := func(label string) func(*testing.T, []comp.StepIR) {
		return func(t *testing.T, steps []comp.StepIR) { stepLabeled(t, steps, label).Level = 0 }
	}
	cases := []struct {
		name    string
		expr    string
		formats lang.Formats
		sched   lang.Schedule
		corrupt func(*testing.T, []comp.StepIR)
		build   func(*comp.IR) (*comp.Program, error)
	}{
		{"fused", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}, aimAtTop("Scanner B.j"), comp.Materialize},
		{"scanner", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{}, aimAtTop("Scanner B.j"), comp.MaterializeUnfused},
		{"gallop", "x(i) = B(i,j) * c(j)", nil, lang.Schedule{UseSkip: true}, aimAtTop("GallopIntersect B.j ∩ c.j"), comp.Materialize},
		{"locate", "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
			lang.Formats{"C": lang.Uniform(2, fiber.Dense), "D": lang.Uniform(2, fiber.Dense)},
			lang.Schedule{UseLocators: true},
			// Select fibers of B's top level with B.i's child references,
			// one per row.
			func(t *testing.T, steps []comp.StepIR) {
				rows := stepLabeled(t, steps, "Scanner B.i").Outs[1]
				loc := stepLabeled(t, steps, "Locator D.j")
				loc.Tensor, loc.Level, loc.Ins = "B", 0, []int{loc.Ins[0], loc.Ins[1], rows}
			}, comp.Materialize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ir := lowerCase(t, tc.expr, tc.formats, tc.sched)
			bad := *ir
			bad.Steps = slices.Clone(ir.Steps)
			tc.corrupt(t, bad.Steps)
			if err := bad.Validate(); err != nil {
				t.Fatalf("crafted IR no longer validates (%v); the case tests nothing", err)
			}
			p, err := tc.build(&bad)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			rng := rand.New(rand.NewSource(5))
			inputs := randomInputs(rng, lang.MustParse(tc.expr), func(string) int { return 12 })
			bound, err := bind.Operands(g, inputs)
			if err != nil {
				t.Fatal(err)
			}
			dims, err := bind.OutputDims(g, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(bound, dims); err == nil || !strings.Contains(err.Error(), "outside level") {
				t.Errorf("run on out-of-range fiber references: err = %v, want a fiber-reference error", err)
			}
		})
	}
}
