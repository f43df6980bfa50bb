package comp_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
)

// dataflow is a step list in a form that forgets labels, slot numbers and
// step order: each step is named by the interned signature of its kind, its
// parameters, how many readers each output has (a discarded output is -1),
// and the producers its inputs come from, port by port; the writers by
// their level and producer. Two step lists are the same dataflow when their
// sorted names and writers agree.
type dataflow struct {
	steps   []int
	writers []string
}

// flowOf names every step of steps (fused[i] marks a fused leaf step) and
// the writers of run, interning signatures in intern so two programs' names
// compare.
func flowOf(intern map[string]int, run *comp.IR, steps []comp.StepIR, fused []bool) dataflow {
	producer := map[int][2]int{} // slot -> step, output port
	readers := map[int]int{}
	for i := range steps {
		for k, s := range steps[i].Outs {
			if s >= 0 {
				producer[s] = [2]int{i, k}
			}
		}
		for _, s := range steps[i].Ins {
			readers[s]++
		}
	}
	for _, w := range append(slices.Clone(run.CrdWr), run.ValsWr) {
		readers[w.Slot]++
	}
	names := make([]int, len(steps))
	for i := range names {
		names[i] = -1
	}
	var name func(i int) int
	source := func(s int) string {
		p, ok := producer[s]
		if !ok {
			return "?"
		}
		return fmt.Sprintf("%d.%d", name(p[0]), p[1])
	}
	name = func(i int) int {
		if names[i] >= 0 {
			return names[i]
		}
		si := &steps[i]
		var b strings.Builder
		fmt.Fprintf(&b, "%v %s/%d %s/%d ways=%d op=%v n=%d drop=%v leaf=%v outs=", si.Kind, si.Tensor, si.Level, si.TensorB, si.LevelB, si.Ways, si.Op, si.RedN, si.Drop, fused[i])
		for _, s := range si.Outs {
			if s < 0 {
				b.WriteString("-1,")
			} else {
				fmt.Fprintf(&b, "%d,", readers[s])
			}
		}
		b.WriteString(" ins=")
		for _, s := range si.Ins {
			b.WriteString(source(s) + ",")
		}
		sig := b.String()
		id, ok := intern[sig]
		if !ok {
			id = len(intern)
			intern[sig] = id
		}
		names[i] = id
		return id
	}
	var f dataflow
	for i := range steps {
		f.steps = append(f.steps, name(i))
	}
	slices.Sort(f.steps)
	for _, w := range run.CrdWr {
		f.writers = append(f.writers, fmt.Sprintf("level %d <- %s", w.Level, source(w.Slot)))
	}
	f.writers = append(f.writers, "vals <- "+source(run.ValsWr.Slot))
	return f
}

// flowDiff lists the signatures one dataflow has more of than the other.
func flowDiff(intern map[string]int, a, b dataflow) string {
	sigs := make([]string, len(intern))
	for sig, id := range intern {
		sigs[id] = sig
	}
	count := map[int]int{}
	for _, id := range a.steps {
		count[id]++
	}
	for _, id := range b.steps {
		count[id]--
	}
	var out []string
	for id, n := range count {
		if n != 0 {
			out = append(out, fmt.Sprintf("%+d × [%d] %s", n, id, sigs[id]))
		}
	}
	slices.Sort(out)
	return strings.Join(out, "\n  ")
}

// TestCollapseIsPar1 holds the lane collapse to its claim: for every
// statement of TestLoopOrderSweep, the Table 1 kernels and two reductions no
// intersection feeds (no dropper filters their explicit zeros), every loop
// order custard accepts and Par 2, 3, 4 and 8, the steps comp executes —
// before fusion and after it — are Par 1's as a dataflow: the same kinds,
// parameters and wiring, discarded outputs included, with labels dropped and
// slots renamed. They are compared as graphs, not as sequences: the
// collapsed steps may run in another topological order than Par 1's. A
// Par 1 IR passes through as it is, with nothing allocated.
func TestCollapseIsPar1(t *testing.T) {
	exprs := []string{
		"X(i,j,k) = B(i,j,l) * C(k,l)",
		"X(i,j,k) = B(i,l,j) * C(l,k)",
		"X(i,j,k) = B(l,j,k) * C(i,l)",
		"X(i,j) = B(i,k,l) * C(k,j) * D(l,j)",
		"X(i,j) = B(i,k) * C(k,j) * D(i,j)",
		"X(i,j) = B(i,k) * C(k,j) * D(l,j)",
		"X(i,j,k,m) = B(i,j,l) * C(k,m,l)",
		"x(i) = B(i,j)",
		"x(i) = B(i,j) + C(i,j)",
	}
	for _, k := range table1Kernels {
		exprs = append(exprs, k.expr)
	}
	intern := map[string]int{}
	flows := func(ir *comp.IR) (lowered, executed dataflow) {
		run, err := comp.Collapse(ir)
		if err != nil {
			t.Fatalf("%s: collapse: %v", ir.Expr, err)
		}
		steps, leaf := comp.ExecSteps(ir)
		return flowOf(intern, run, run.Steps, make([]bool, len(run.Steps))), flowOf(intern, run, steps, leaf)
	}
	pairs := 0
	for _, expr := range exprs {
		e := lang.MustParse(expr)
		for _, order := range permutations(e.AllVars()) {
			sched := lang.Schedule{LoopOrder: order}
			if _, err := custard.Compile(e, nil, sched); err != nil {
				continue // an order custard refuses has nothing to run
			}
			_, ir1 := lowerCase(t, expr, nil, sched)
			if run, err := comp.Collapse(ir1); run != ir1 || err != nil {
				t.Fatalf("%s order %v: Collapse rewrote an IR without a fork (err %v)", expr, order, err)
			}
			if n := testing.AllocsPerRun(5, func() { comp.Collapse(ir1) }); n != 0 {
				t.Fatalf("%s order %v: Collapse allocated %.0f objects on an IR without a fork", expr, order, n)
			}
			low1, exec1 := flows(ir1)
			for _, par := range []int{2, 3, 4, 8} {
				s := sched
				s.Par = par
				if _, err := custard.Compile(e, nil, s); err != nil {
					continue // a partly reduced outermost variable: Par refuses
				}
				_, ir := lowerCase(t, expr, nil, s)
				name := fmt.Sprintf("%s order %v par%d", expr, order, par)
				if countKind(ir.Steps, graph.Parallelize) == 0 {
					t.Fatalf("%s: lowered IR has no fork; the case pins nothing", name)
				}
				low, exec := flows(ir)
				for _, c := range []struct {
					what      string
					par1, got dataflow
				}{{"collapsed", low1, low}, {"executed", exec1, exec}} {
					if !slices.Equal(c.got.steps, c.par1.steps) {
						t.Errorf("%s: %s steps are not Par 1's:\n  %s", name, c.what, flowDiff(intern, c.got, c.par1))
					}
					if !slices.Equal(c.got.writers, c.par1.writers) {
						t.Errorf("%s: %s writers %v, Par 1's %v", name, c.what, c.got.writers, c.par1.writers)
					}
				}
				pairs++
			}
		}
	}
	if pairs < 1000 {
		t.Errorf("compared %d (statement, order, Par) pairs; the sweep should reach 1000", pairs)
	}
	t.Logf("%d (statement, order, Par) pairs execute Par 1's dataflow", pairs)
}
