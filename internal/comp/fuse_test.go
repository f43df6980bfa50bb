package comp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	"sam/internal/obs"
	"sam/internal/prog"
	"sam/internal/sim"
	"sam/internal/tensor"
	"sam/internal/token"
)

// Materialize fuses scanner + scanner + two-way intersect into one
// co-iteration step, and then each leaf level — co-iteration, Repeats, Array
// loads, ALU tree, scalar reducer — into one step (fuse.go). These tests pin
// where the passes fire, that they leave the IR alone, and that the streams
// which survive them are token for token what the unfused steps write.

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

// hoistedAbsentExpr hoists b and e over the j loop with references from
// "Union i": where only one of them stores i the other's reference is an N
// token, which the leaf step must treat as the ALU does.
const hoistedAbsentExpr = "x(i) = (b(i) + e(i)) * C(i,j) * d(j)"

// sharedScanExpr reads B twice. testdata/shared_scan_O1.sambc is its
// artifact as written at Opt 1 when that level still rewrote graphs: one B.i
// scanner shared between "Intersect i" and "Union i" — a scanner whose
// outputs have a second reader — and a j-level intersect fed the union's
// references, N tokens included. testdata/shared_load_O1.sambc is
// sharedLoadExpr's, with one c load shared between two ALUs. No compile
// emits either shape now; disk caches and user artifacts still carry them.
const (
	sharedScanExpr = "X(i,j) = B(i,j) + B(i,j) * C(i,j)"
	sharedLoadExpr = "x(i) = B(i,j) * c(j) * c(j)"
)

// sharedFixtures maps each recorded artifact to its statement.
var sharedFixtures = []struct{ file, expr string }{
	{"shared_scan_O1.sambc", sharedScanExpr},
	{"shared_load_O1.sambc", sharedLoadExpr},
}

// decodeFixture decodes one recorded artifact under testdata/.
func decodeFixture(t *testing.T, file string) *prog.Program {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Decode(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", file, err)
	}
	return p
}

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

// leafReducers returns the labels of the lowered scalar reducers that sum an
// ALU's or an Array's values: the reducers at the bottom of a loop nest.
func leafReducers(ir *comp.IR) []string {
	producer := map[int]graph.Kind{}
	for i := range ir.Steps {
		for _, s := range ir.Steps[i].Outs {
			producer[s] = ir.Steps[i].Kind
		}
	}
	var out []string
	for i := range ir.Steps {
		st := &ir.Steps[i]
		if st.Kind != graph.Reduce || st.RedN != 0 {
			continue
		}
		if k := producer[st.Ins[0]]; k == graph.ALU || k == graph.Array {
			out = append(out, st.Label)
		}
	}
	return out
}

// TestFusionActivates pins the passes' coverage: every Intersect of the seven Table 1 kernels runs fused — as a co-iteration
// step, or inside the leaf step that swallowed it — and every leaf reducer
// runs as the fused leaf step under its own label, at the default schedule
// and at Par 4, where the lanes collapse first and the executed steps are
// Par 1's, lane 0's keeping their labels; the shapes outside the patterns
// stay as lowered; and the IR a program reports is untouched by the passes.
func TestFusionActivates(t *testing.T) {
	// Executed steps per kernel at the default schedule: 12/23/17/15/28/17/26
	// as lowered, 10/17/11/13/22/15/24 after the scanner pass alone.
	wantSteps := []int{6, 10, 7, 9, 15, 11, 17}
	for _, par := range []int{1, 4} {
		total := 0
		for ki, k := range table1Kernels {
			name := fmt.Sprintf("%s par%d", k.name, par)
			_, ir := lowerCase(t, k.expr, nil, lang.Schedule{Par: par})
			want := prog.EncodeIR(ir)
			p, err := comp.Materialize(ir)
			if err != nil {
				t.Fatalf("%s: materialize: %v", name, err)
			}
			run, err := comp.Collapse(ir)
			if err != nil {
				t.Fatalf("%s: collapse: %v", name, err)
			}
			if par > 1 && len(run.Steps) >= len(ir.Steps) {
				t.Errorf("%s: the lanes did not collapse: %d steps of %d lowered", name, len(run.Steps), len(ir.Steps))
			}
			steps, leaf := comp.ExecSteps(ir)
			n := countKind(run.Steps, graph.Intersect)
			total += n
			if n == 0 {
				t.Errorf("%s: lowered IR has no Intersect; the case pins nothing", name)
			}
			if left := countKind(steps, graph.Intersect); left != 0 {
				t.Errorf("%s: %d of %d Intersect steps left unfused", name, left, n)
			}
			if got, want := countKind(steps, graph.Scanner), countKind(run.Steps, graph.Scanner)-2*n; got != want {
				t.Errorf("%s: %d scanners execute, want %d", name, got, want)
			}
			if got, want := countKind(steps, graph.Union), countKind(run.Steps, graph.Union); got != want {
				t.Errorf("%s: %d unions execute, want %d", name, got, want)
			}
			if len(steps) != wantSteps[ki] {
				t.Errorf("%s: %d steps execute, want %d", name, len(steps), wantSteps[ki])
			}

			// Every leaf reducer is a fused leaf step: same label, same output,
			// reading reference streams — two for the co-iteration it swallowed,
			// one more per hoisted operand — where it read a value stream.
			leaves := leafReducers(run)
			if len(leaves) == 0 {
				t.Errorf("%s: lowered IR has no leaf reducer; the case pins nothing", name)
			}
			fused := 0
			for i := range leaf {
				if leaf[i] {
					fused++
				}
			}
			if fused != len(leaves) {
				t.Errorf("%s: %d fused leaf steps for %d leaf reducers", name, fused, len(leaves))
			}
			for _, label := range leaves {
				if lane := strings.Contains(label, "[lane "); lane != (par > 1) || lane && !strings.HasSuffix(label, " [lane 0]") {
					t.Errorf("%s: leaf reducer %q executes; want lane 0's label at Par > 1 and no lane at Par 1", name, label)
				}
				low := stepLabeled(t, run.Steps, label)
				i := slices.IndexFunc(steps, func(st comp.StepIR) bool { return st.Label == label })
				if i < 0 || !leaf[i] || len(steps[i].Ins) < 2 || !slices.Equal(steps[i].Outs, low.Outs) {
					t.Errorf("%s: %q does not execute as the fused leaf step writing %v (step %d of %+v)", name, label, low.Outs, i, steps)
				}
			}
			if got, want := countKind(steps, graph.GallopIntersect), n-fused; got != want {
				t.Errorf("%s: %d co-iteration steps execute beside %d leaf steps, want %d", name, got, fused, want)
			}

			// The passes copy: the program's IR and its encoding are those of
			// a build without them.
			_, fresh := lowerCase(t, k.expr, nil, lang.Schedule{Par: par})
			u, err := comp.MaterializeUnfused(fresh)
			if err != nil {
				t.Fatalf("%s: materialize unfused: %v", name, err)
			}
			if !reflect.DeepEqual(p.IR(), u.IR()) || !reflect.DeepEqual(p.IR(), fresh) {
				t.Errorf("%s: Materialize changed the IR", name)
			}
			if got := prog.EncodeIR(p.IR()); !bytes.Equal(got, want) || !bytes.Equal(got, prog.EncodeIR(u.IR())) {
				t.Errorf("%s: Materialize changed the IR's encoding", name)
			}
		}
		if total != 13 {
			t.Errorf("Table 1 kernels at Par %d execute %d Intersect steps before fusion, want 13", par, total)
		}
	}

	// A scanner with a second reader stays, and so does its intersect; the
	// next level's intersect, fed by the union, still fuses. Its matches are
	// written, not reduced, so there is no leaf step.
	steps, leaf := comp.ExecSteps(decodeFixture(t, "shared_scan_O1.sambc").IR())
	if k := stepLabeled(t, steps, "Intersect i").Kind; k != graph.Intersect {
		t.Errorf("shared scanner: Intersect i executes as %v, want it unfused", k)
	}
	stepLabeled(t, steps, "Scanner B.i")
	stepLabeled(t, steps, "Scanner C.i")
	if k := stepLabeled(t, steps, "Intersect j").Kind; k != graph.GallopIntersect {
		t.Errorf("shared scanner: Intersect j executes as %v, want it fused", k)
	}
	if slices.Contains(leaf, true) {
		t.Errorf("shared scanner: a leaf step fused where the leaf level is written, not reduced")
	}

	// A 3-way intersect and a union are outside both patterns altogether.
	for _, expr := range []string{"X(i,j) = B(i,j) * C(i,j) * D(i,j)", "X(i,j) = B(i,j) + C(i,j)"} {
		_, ir := lowerCase(t, expr, nil, lang.Schedule{})
		if steps, _ := comp.ExecSteps(ir); !reflect.DeepEqual(steps, ir.Steps) {
			t.Errorf("%s: the passes rewrote a step list with nothing to fuse", expr)
		}
	}

	// Outside the leaf pattern: a vector reducer (SpM*SpM ikj), a scalar
	// reducer over a union-fed add, and a load shared between two ALUs (the
	// recorded artifact). Their Arrays, ALUs and reducers execute as lowered.
	_, spmspm := lowerCase(t, "X(i,j) = B(i,k) * C(k,j)", nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	_, unionAdd := lowerCase(t, "x(i) = B(i,j) + C(i,j)", nil, lang.Schedule{})
	for _, ir := range []*comp.IR{spmspm, unionAdd, decodeFixture(t, "shared_load_O1.sambc").IR()} {
		steps, leaf := comp.ExecSteps(ir)
		if slices.Contains(leaf, true) {
			t.Errorf("%s: a leaf step fused outside the pattern", ir.Expr)
		}
		for _, k := range []graph.Kind{graph.Array, graph.ALU, graph.Reduce} {
			if got, want := countKind(steps, k), countKind(ir.Steps, k); got != want || want == 0 {
				t.Errorf("%s: %d %v steps execute, want the %d lowered (and some)", ir.Expr, got, k, want)
			}
		}
	}
}

// TestSharedFixturesRun runs each recorded shared-stream artifact on random
// operands and demands its output be bit-identical to a fresh compile of the
// same statement on the comp and event engines, at Par 1 and 2, and its
// fused streams identical to its unfused ones.
func TestSharedFixturesRun(t *testing.T) {
	dims := map[string]int{"i": 24, "j": 20}
	rng := rand.New(rand.NewSource(47))
	for _, fx := range sharedFixtures {
		p := decodeFixture(t, fx.file)
		e := lang.MustParse(fx.expr)
		if p.IR().Expr != e.String() {
			t.Fatalf("%s: artifact holds %q, want %q", fx.file, p.IR().Expr, e.String())
		}
		for seed := 0; seed < 4; seed++ {
			inputs := randomInputs(rng, e, func(v string) int { return dims[v] })
			got, err := p.Run(inputs)
			if err != nil {
				t.Fatalf("%s: run: %v", fx.file, err)
			}
			compareLowered(t, fmt.Sprintf("%s seed %d", fx.file, seed), p.IR(), p.Plan(), inputs)
			for _, par := range []int{1, 2} {
				g, err := custard.Compile(e, nil, lang.Schedule{Par: par})
				if err != nil {
					t.Fatalf("%s par%d: compile: %v", fx.expr, par, err)
				}
				for _, eng := range []sim.EngineKind{sim.EngineComp, sim.EngineEvent} {
					ref, err := sim.Run(g, inputs, sim.Options{Engine: eng})
					if err != nil {
						t.Fatalf("%s par%d %s: run: %v", fx.expr, par, eng, err)
					}
					if err := tensor.IdenticalBits(ref.Output, got); err != nil {
						t.Errorf("%s seed %d: artifact output differs from a fresh par%d %s run: %v", fx.file, seed, par, eng, err)
					}
				}
			}
		}
	}
}

// runStreams materializes ir with build, runs it once on a fresh context and
// returns the stream table the run left behind with the assembled output,
// and whether one of its co-iterations probed.
func runStreams(build func(*comp.IR) (*comp.Program, error), ir *comp.IR, bound map[string]*fiber.Tensor, dims []int) ([]token.Stream, *tensor.COO, bool, error) {
	p, err := build(ir)
	if err != nil {
		return nil, nil, false, err
	}
	rc := new(comp.RunCtx)
	out, err := p.RunPooled(rc, bound, dims)
	return rc.Streams(), out, rc.Probed(), err
}

// compareFusion compiles and lowers one configuration and compares it
// fused and unfused with compareLowered.
func compareFusion(t *testing.T, name, expr string, formats lang.Formats, sched lang.Schedule, inputs map[string]*tensor.COO) (fusedSteps int, probed bool) {
	t.Helper()
	g, err := custard.Compile(lang.MustParse(expr), formats, sched)
	if err != nil {
		if sched.Par > 1 {
			return 0, false // kernel not parallelizable under this loop order
		}
		t.Fatalf("%s: custard: %v", name, err)
	}
	ir, err := comp.Lower(g)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	return compareLowered(t, name, ir, bind.NewPlan(g), inputs)
}

// compareLowered runs a lowered program fused and unfused — both with its
// lanes collapsed — and demands that every stream slot the fused step list
// still writes is identical, that the fused-away slots stay empty, that the
// slots the collapse dropped stay empty on both, and that the outputs agree
// bit for bit. It returns how many steps fusion removed and whether a
// co-iteration of the fused run probed.
func compareLowered(t *testing.T, name string, ir *comp.IR, plan *bind.Plan, inputs map[string]*tensor.COO) (fusedSteps int, probed bool) {
	t.Helper()
	bound, err := plan.Operands(inputs)
	if err != nil {
		t.Fatalf("%s: bind: %v", name, err)
	}
	dims, err := plan.OutputDims(inputs)
	if err != nil {
		t.Fatalf("%s: output dims: %v", name, err)
	}
	want, wantOut, _, errU := runStreams(comp.MaterializeUnfused, ir, bound, dims)
	got, gotOut, probed, errF := runStreams(comp.Materialize, ir, bound, dims)
	if (errU == nil) != (errF == nil) {
		t.Errorf("%s: run-failure parity broken: unfused err=%v, fused err=%v", name, errU, errF)
		return 0, false
	}
	if errU != nil {
		return 0, false
	}
	if err := tensor.IdenticalBits(wantOut, gotOut); err != nil {
		t.Errorf("%s: fused output differs from unfused: %v", name, err)
	}
	run, err := comp.Collapse(ir)
	if err != nil {
		t.Fatalf("%s: collapse: %v", name, err)
	}
	steps, _ := comp.ExecSteps(ir)
	written := func(steps []comp.StepIR) []bool {
		w := make([]bool, ir.NSlot)
		for i := range steps {
			for _, s := range steps[i].Outs {
				if s >= 0 {
					w[s] = true
				}
			}
		}
		return w
	}
	survives, unfused := written(steps), written(run.Steps)
	for s := range survives {
		switch {
		case survives[s] && !slices.Equal(got[s], want[s]):
			t.Errorf("%s: slot %d differs\n  fused   %v\n  unfused %v", name, s, got[s], want[s])
		case !survives[s] && unfused[s] && (len(got[s]) != 0 || len(want[s]) == 0):
			t.Errorf("%s: fused-away slot %d holds %d tokens fused, %d unfused; want 0 and some", name, s, len(got[s]), len(want[s]))
		case !unfused[s] && (len(got[s]) != 0 || len(want[s]) != 0):
			t.Errorf("%s: collapsed-away slot %d holds %d tokens fused, %d unfused; want 0 on both", name, s, len(got[s]), len(want[s]))
		}
	}
	return len(run.Steps) - len(steps), probed
}

// TestFusionSlotIdentical is the fused-vs-unfused battery: the differential
// kernels across Par 1/2/4, on random operands, on the disjoint
// supports that empty every intersection, and on operands with no entries at
// all. The formats cover both merge loops (compressed × compressed, and the
// Level-interface fallback on a dense level) and empty fibers (CSR rows); the
// last cases cover the leaf step's corners: hoisted operands whose references
// a union left absent on either side of an add, and the probe.
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
		{"hoisted-absent", hoistedAbsentExpr, nil, lang.Schedule{}},
		{"union-fed-term", "x(i) = b(i) * C(i,j) * d(j) + e(i)", nil, lang.Schedule{}},
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
				s := tc.sched
				s.Par = par
				name := fmt.Sprintf("%s/%s par%d", tc.name, in.name, par)
				n, _ := compareFusion(t, name, tc.expr, tc.formats, s, in.inputs)
				fused += n
			}
		}
	}
	if fused == 0 {
		t.Error("no configuration fused a step; the battery compared a program with itself")
	}

	// Operands sized so the probe engages: one long fiber, repeated, against
	// many short ones. The repeated fiber is the co-iteration's second input
	// (c under B's rows), its first (c named first), and a row of C that
	// changes with every i while B's (i,j) fibers come and go under it — so
	// the table is cleared and rebuilt mid-stream, and a stale entry would
	// show as a wrong match.
	sparse := func(name string, nnz int, dims ...int) *tensor.COO {
		c := tensor.UniformRandom(name, rng, nnz, dims...)
		tensor.QuantizeInts(rng, 7, c)
		return c
	}
	for _, tc := range []struct {
		name, expr string
		inputs     map[string]*tensor.COO
	}{
		{"probe-second", "x(i) = B(i,j) * c(j)", map[string]*tensor.COO{"B": sparse("B", 120, 40, 64), "c": sparse("c", 40, 64)}},
		{"probe-first", "x(i) = c(j) * B(i,j)", map[string]*tensor.COO{"B": sparse("B", 120, 40, 64), "c": sparse("c", 40, 64)}},
		{"probe-rebuilt", "X(i,j) = B(i,j,k) * C(i,k)", map[string]*tensor.COO{"B": sparse("B", 400, 12, 16, 48), "C": sparse("C", 400, 12, 48)}},
	} {
		for _, par := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s par%d", tc.name, par)
			if n, probed := compareFusion(t, name, tc.expr, nil, lang.Schedule{Par: par}, tc.inputs); n == 0 || !probed {
				t.Errorf("%s: %d steps fused away, probed = %v; the case wants both", name, n, probed)
			}
		}
	}
}

// TestRunTracedStepSpans pins what a traced run shows of the machine: under
// "run", one span per executed step in execution order, named by its block
// label — the fused leaf level one line under its reducer's label, and at
// Par > 1 lane 0's steps under their "… [lane 0]" labels, the other lanes
// collapsed away. Children sit inside their parents.
func TestRunTracedStepSpans(t *testing.T) {
	for _, par := range []int{1, 2} {
		g, ir := lowerCase(t, "x(i) = B(i,j) * c(j)", nil, lang.Schedule{Par: par})
		p, err := comp.Materialize(ir)
		if err != nil {
			t.Fatal(err)
		}
		inputs := randomInputs(rand.New(rand.NewSource(9)), lang.MustParse("x(i) = B(i,j) * c(j)"), func(string) int { return 12 })
		bound, err := bind.NewPlan(g).Operands(inputs)
		if err != nil {
			t.Fatal(err)
		}
		dims, err := bind.NewPlan(g).OutputDims(inputs)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		if _, err := p.RunTraced(bound, dims, tr); err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		if len(spans) < 2 || spans[0].Name != "run" || spans[0].Parent != -1 || spans[len(spans)-1].Name != "assemble" || spans[len(spans)-1].Parent != -1 {
			t.Fatalf("par%d: top-level spans are not run … assemble: %+v", par, spans)
		}
		// One span per executed step and none for a step fused away: the
		// leaf level is one line, under its reducer's label.
		steps, _ := comp.ExecSteps(ir)
		if got := len(spans) - 2; got != len(steps) {
			t.Errorf("par%d: %d step spans, want one per executed step (%d)", par, got, len(steps))
		}
		run, lanes := spans[0], 0
		for i, sp := range spans[1 : len(spans)-1] {
			if sp.Parent != 0 {
				t.Errorf("par%d: step span %q has parent %d, want run", par, sp.Name, sp.Parent)
			}
			if sp.StartNS < run.StartNS || sp.StartNS+sp.DurNS > run.StartNS+run.DurNS {
				t.Errorf("par%d: span %q [%d, +%d] leaves run [%d, +%d]", par, sp.Name, sp.StartNS, sp.DurNS, run.StartNS, run.DurNS)
			}
			if i < len(steps) && sp.Name != steps[i].Label {
				t.Errorf("par%d: span %d is %q, want step %d's label %q", par, i, sp.Name, i, steps[i].Label)
			}
			if strings.Contains(sp.Name, "[lane ") {
				lanes++
				if !strings.HasSuffix(sp.Name, " [lane 0]") {
					t.Errorf("par%d: span %q runs a lane past lane 0", par, sp.Name)
				}
			}
		}
		if (lanes > 0) != (par > 1) {
			t.Errorf("par%d: %d lane 0 step spans", par, lanes)
		}
	}
}

// TestFiberRefOutOfRange crafts IRs that pass Validate but aim a level walk
// or an Array load at the wrong storage — the shape of a corrupt-but-
// checksummed artifact — and operands whose levels lie about their size, so
// stream references, match positions and probed coordinates index past what
// they name. The run must end in an error on the fused kernels, the scanner
// and the locator alike, not in an index panic that nothing above comp
// recovers. Two more crafted IRs wire a merge's coordinate input and a
// coordinate dropper's inner input to a union's reference output, which
// carries N: the block must name the token, as core.Merger and core.Dropper
// do, before anything downstream trips over it.
func TestFiberRefOutOfRange(t *testing.T) {
	const spmv = "x(i) = B(i,j) * c(j)"
	// aimAtTop points a level-1 walk at its operand's one-fiber top level.
	aimAtTop := func(label string) func(*testing.T, []comp.StepIR) {
		return func(t *testing.T, steps []comp.StepIR) { stepLabeled(t, steps, label).Level = 0 }
	}
	// loadFromC aims B's Array load at c's shorter Vals.
	loadFromC := func(t *testing.T, steps []comp.StepIR) { stepLabeled(t, steps, "Array B vals").Tensor = "c" }
	cases := []struct {
		name    string
		expr    string
		formats lang.Formats
		sched   lang.Schedule
		corrupt func(*testing.T, []comp.StepIR)
		build   func(*comp.IR) (*comp.Program, error)
		// inputs, when set, replaces the random operands; shrink, when set,
		// names an operand whose top level then claims a dimension of 2.
		inputs map[string]*tensor.COO
		shrink string
		want   string
	}{
		{name: "fused", expr: spmv, corrupt: aimAtTop("Scanner B.j"), build: comp.Materialize, want: "outside level"},
		{name: "scanner", expr: spmv, corrupt: aimAtTop("Scanner B.j"), build: comp.MaterializeUnfused, want: "outside level"},
		{name: "gallop", expr: spmv, sched: lang.Schedule{UseSkip: true}, corrupt: aimAtTop("GallopIntersect B.j ∩ c.j"), build: comp.Materialize, want: "outside level"},
		{name: "locate", expr: "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
			formats: lang.Formats{"C": lang.Uniform(2, fiber.Dense), "D": lang.Uniform(2, fiber.Dense)},
			sched:   lang.Schedule{UseLocators: true},
			// Select fibers of B's top level with B.i's child references,
			// one per row.
			corrupt: func(t *testing.T, steps []comp.StepIR) {
				rows := stepLabeled(t, steps, "Scanner B.i").Outs[1]
				loc := stepLabeled(t, steps, "Locator D.j")
				loc.Tensor, loc.Level, loc.Ins = "B", 0, []int{loc.Ins[0], loc.Ins[1], rows}
			}, build: comp.Materialize, want: "outside level"},
		// The leaf step's loads, through a compressed level (checked once per
		// fiber) and through the Level interface (checked per match); the
		// unfused Array fails the same way.
		{name: "leaf-array", expr: spmv, corrupt: loadFromC, build: comp.Materialize, want: "Array B vals: reference"},
		{name: "leaf-array-dense", expr: spmv, formats: lang.Formats{"c": lang.Uniform(1, fiber.Dense)}, corrupt: loadFromC, build: comp.Materialize, want: "Array B vals: reference"},
		{name: "array", expr: spmv, corrupt: loadFromC, build: comp.MaterializeUnfused, want: "Array B vals: reference"},
		// A hoisted load: alpha's one value, indexed by B's row references.
		{name: "leaf-hoisted", expr: "x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", corrupt: func(t *testing.T, steps []comp.StepIR) {
			stepLabeled(t, steps, "Repeater alpha over j").Ins[1] = stepLabeled(t, steps, "Union i").Outs[1]
		}, build: comp.Materialize, want: "Array alpha vals: reference"},
		// The probe: c stores coordinates up to 11 in a level that says 2. It
		// engages from the second one-entry row on (c is 8 long), and the
		// build stops at the first coordinate the table has no entry for.
		{name: "probe-build", expr: spmv, corrupt: func(*testing.T, []comp.StepIR) {}, build: comp.Materialize,
			inputs: map[string]*tensor.COO{"B": diagonal("B", 12), "c": everyOther("c", 12)}, shrink: "c", want: "outside level of size 2"},
		{name: "merge-crd-from-ref", expr: "x(i) = (a(i) + b(i)) * c(i)", corrupt: func(t *testing.T, steps []comp.StepIR) {
			stepLabeled(t, steps, "Intersect i").Ins[0] = stepLabeled(t, steps, "Union i").Outs[1]
		}, build: comp.Materialize, want: "Intersect i: unexpected token N on coordinate input"},
		// The same N on a coordinate-mode dropper's inner input: the dropper
		// names it, as core.Dropper does, instead of skipping it and leaving
		// assembly to find an out-of-range coordinate.
		{name: "drop-crd-from-ref", expr: "X(i,j) = B(i,j) * (C(i,j) + D(i,j))", corrupt: func(t *testing.T, steps []comp.StepIR) {
			stepLabeled(t, steps, "CrdDrop i").Ins[1] = stepLabeled(t, steps, "Union j").Outs[1]
		}, build: comp.Materialize, want: "CrdDrop i: unexpected token N on inner input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ir := lowerCase(t, tc.expr, tc.formats, tc.sched)
			bad := *ir
			bad.Steps = slices.Clone(ir.Steps)
			for i := range bad.Steps {
				bad.Steps[i].Ins = slices.Clone(bad.Steps[i].Ins)
			}
			tc.corrupt(t, bad.Steps)
			if err := bad.Validate(); err != nil {
				t.Fatalf("crafted IR no longer validates (%v); the case tests nothing", err)
			}
			p, err := tc.build(&bad)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			inputs := tc.inputs
			if inputs == nil {
				rng := rand.New(rand.NewSource(5))
				inputs = randomInputs(rng, lang.MustParse(tc.expr), func(string) int { return 12 })
			}
			bound, err := bind.NewPlan(g).Operands(inputs)
			if err != nil {
				t.Fatal(err)
			}
			dims, err := bind.NewPlan(g).OutputDims(inputs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.shrink != "" {
				bound[tc.shrink].Levels[0].(*fiber.CompressedLevel).N = 2
			}
			if _, err := p.Run(bound, dims); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run on out-of-range references: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestDeepJoinNeedsDrivers checks a lane join below the fork's depth cannot
// be materialized without its driver slots, on both join kinds: the error
// names the step, and no run gets to guess the chunk boundaries.
func TestDeepJoinNeedsDrivers(t *testing.T) {
	_, ir := lowerCase(t, "X(i,j,k) = B(i,j,k) + C(i,j,k)", nil, lang.Schedule{Par: 2})
	for _, label := range []string{"Serializer j", "Serializer k vals"} {
		bad := *ir
		bad.Steps = slices.Clone(ir.Steps)
		join := stepLabeled(t, bad.Steps, label)
		if join.Level < 0 {
			t.Fatalf("%q joins at level %d, want a deep join", label, join.Level)
		}
		join.Ins = join.Ins[:len(join.Ins)-join.Ways]
		if _, err := comp.Materialize(&bad); err == nil || !strings.Contains(err.Error(), label) {
			t.Errorf("%q without drivers: Materialize err = %v, want one naming the step", label, err)
		}
	}
}

// diagonal is the n×n matrix with a 1 at every (i,i); everyOther the
// n-vector with a 1 at every odd coordinate and at 0.
func diagonal(name string, n int) *tensor.COO {
	c := tensor.NewCOO(name, n, n)
	for i := 0; i < n; i++ {
		c.Append(1, int64(i), int64(i))
	}
	return c
}

func everyOther(name string, n int) *tensor.COO {
	c := tensor.NewCOO(name, n)
	c.Append(1, 0)
	for i := 1; i < n; i += 2 {
		c.Append(1, int64(i))
	}
	return c
}
