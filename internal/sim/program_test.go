package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/prog"
	"sam/internal/tensor"
)

// identical fails unless two results carry bit-identical outputs (same
// dimensions, points, and values — no tolerance) and equal cycle counts.
func identical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d != %d", label, got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(got.Output.Dims, want.Output.Dims) {
		t.Fatalf("%s: dims %v != %v", label, got.Output.Dims, want.Output.Dims)
	}
	if !reflect.DeepEqual(got.Output.Pts, want.Output.Pts) {
		t.Fatalf("%s: output points differ", label)
	}
}

// TestProgramDifferential proves cached-program execution is bit-identical
// to uncached sim.Run: for a battery of kernels, every engine, and Par in
// {1, 4}, a Program built once and run repeatedly (the cache hit path) must
// reproduce the fresh-compile path exactly, including cycle counts on the
// cycle engines.
func TestProgramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := tensor.UniformRandom("B", rng, 300, 60, 50)
	c := tensor.UniformRandom("c", rng, 25, 50)
	cc := tensor.UniformRandom("C", rng, 300, 50, 60)
	kernels := []struct {
		name   string
		expr   string
		inputs map[string]*tensor.COO
	}{
		{"spmv", "x(i) = B(i,j) * c(j)", map[string]*tensor.COO{"B": b, "c": c}},
		{"spmspm", "X(i,j) = B(i,k) * C(k,j)", map[string]*tensor.COO{"B": b, "C": cc}},
	}
	for _, k := range kernels {
		e := lang.MustParse(k.expr)
		for _, par := range []int{1, 4} {
			g, err := custard.Compile(e, nil, lang.Schedule{Par: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", k.name, par, err)
			}
			prog, err := NewProgram(g)
			if err != nil {
				t.Fatalf("%s par=%d: NewProgram: %v", k.name, par, err)
			}
			for _, kind := range Engines() {
				label := fmt.Sprintf("%s par=%d %s", k.name, par, kind)
				opt := Options{Engine: kind}
				fresh, err := Run(g, k.inputs, opt)
				if err != nil {
					t.Fatalf("%s: uncached: %v", label, err)
				}
				// Two cached runs: the second exercises genuine reuse.
				for trial := 0; trial < 2; trial++ {
					cached, err := prog.Run(k.inputs, opt)
					if err != nil {
						t.Fatalf("%s: cached run %d: %v", label, trial, err)
					}
					identical(t, label, cached, fresh)
				}
			}
		}
	}
}

// TestProgramConcurrentRuns shares one Program across goroutines (the
// serving cache does exactly this) and checks, under -race, that concurrent
// runs neither interfere nor diverge.
func TestProgramConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 200, 40, 40),
		"c": tensor.UniformRandom("c", rng, 20, 40),
	}
	g, err := custard.Compile(lang.MustParse("x(i) = B(i,j) * c(j)"), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Run(inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := prog.Run(inputs, Options{})
			if err != nil {
				errs[i] = err
				return
			}
			if res.Cycles != want.Cycles || !reflect.DeepEqual(res.Output.Pts, want.Output.Pts) {
				errs[i] = fmt.Errorf("run %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestProgramBatch runs one precompiled program from several goroutines, as a
// batch of requests sharing it does, and checks each result against Run on
// its graph.
func TestProgramBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := map[string]*tensor.COO{
		"B": tensor.UniformRandom("B", rng, 200, 40, 40),
		"c": tensor.UniformRandom("c", rng, 20, 40),
	}
	g, err := custard.Compile(lang.MustParse("x(i) = B(i,j) * c(j)"), nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 6)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = prog.Run(inputs, Options{})
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		identical(t, fmt.Sprintf("run %d", i), res, want)
	}
}

// TestProgramArtifactIsTheCompiledForm pins the one-lowering contract: a
// Program's Artifact bytes are exactly prog.Encode of its graph, obtaining
// them (before or after a comp run) builds no second comp.Program, and the
// graph-backed program and its decoded artifact produce bit-identical comp
// output while the artifact rejects the cycle engines.
func TestProgramArtifactIsTheCompiledForm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := tensor.UniformRandom("B", rng, 200, 40, 30)
	c := tensor.UniformRandom("C", rng, 200, 30, 35)
	tensor.QuantizeInts(rng, 7, b, c)
	inputs := map[string]*tensor.COO{"B": b, "C": c}
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	for _, par := range []int{1, 4} {
		g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}, Par: par, Opt: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProgram(g)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := p.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		want, err := prog.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("par=%d: Artifact() bytes differ from prog.Encode(g)", par)
		}
		cp := p.compProg
		if cp == nil {
			t.Fatalf("par=%d: Artifact() left no compiled program behind", par)
		}
		direct, err := p.Run(inputs, Options{Engine: EngineComp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Artifact(); err != nil {
			t.Fatal(err)
		}
		if p.compProg != cp {
			t.Errorf("par=%d: a comp run or second Artifact() rebuilt the compiled program", par)
		}

		bp, err := prog.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := NewProgramFromArtifact(bp)
		if err != nil {
			t.Fatal(err)
		}
		if ap.compProg != bp.Compiled() {
			t.Errorf("par=%d: artifact-backed program does not run the decoded program's closures", par)
		}
		loaded, err := ap.Run(inputs, Options{Engine: EngineComp})
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.IdenticalBits(direct.Output, loaded.Output); err != nil {
			t.Errorf("par=%d: artifact output differs from graph-backed comp: %v", par, err)
		}
		again, err := ap.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Errorf("par=%d: artifact-backed Artifact() is not the canonical bytes", par)
		}
		for _, kind := range []EngineKind{"", EngineEvent, EngineNaive} {
			if _, err := ap.Run(inputs, Options{Engine: kind}); err == nil {
				t.Errorf("par=%d: cycle engine %q accepted an artifact-backed program", par, kind)
			}
		}
	}
}

// TestNewProgramRejectsInvalid checks validation happens at program build
// time, not mid-run.
func TestNewProgramRejectsInvalid(t *testing.T) {
	if _, err := NewProgram(nil); err == nil {
		t.Errorf("NewProgram(nil) = nil error")
	}
	g := &graph.Graph{Name: "broken"}
	n := g.AddNode(&graph.Node{Kind: graph.Repeat, Label: "rep"})
	_ = n
	if _, err := NewProgram(g); err == nil {
		t.Errorf("NewProgram on a graph with unconnected ports = nil error")
	}
}

// TestDeepJoinNeedsDrivers checks a lane join below the fork's depth whose
// driver edge is missing fails at program build time with an error naming
// the node, on both join kinds: no engine guesses the chunk boundaries.
func TestDeepJoinNeedsDrivers(t *testing.T) {
	g, err := custard.Compile(lang.MustParse("X(i,j,k) = B(i,j,k) + C(i,j,k)"), nil, lang.Schedule{Par: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"Serializer j", "Serializer k vals"} {
		bad := *g
		bad.Edges = nil
		found := false
		for _, e := range g.Edges {
			if g.Nodes[e.To].Label == label && e.ToPort == "drv1" {
				if k := g.Nodes[e.To]; k.Level < 0 {
					t.Fatalf("%q joins at level %d, want a deep join", label, k.Level)
				}
				found = true
				continue
			}
			bad.Edges = append(bad.Edges, e)
		}
		if !found {
			t.Fatalf("%q has no drv1 edge to drop", label)
		}
		if _, err := NewProgram(&bad); err == nil || !strings.Contains(err.Error(), label) {
			t.Errorf("%q without drv1: NewProgram err = %v, want one naming the node", label, err)
		}
	}
}

// coldShape is one uncached program key: a statement and its schedule.
type coldShape struct {
	e     *lang.Einsum
	sched lang.Schedule
}

// coldShapes lists the repository benchmark's cold-compile program keys
// without its tensor renaming: twelve statements, every loop order custard
// accepts for them (a statement that reduces j over only part of itself
// keeps j inner), Opt 0 and 1, Par 1 and 2.
func coldShapes(tb testing.TB) []coldShape {
	tb.Helper()
	stmts := []struct {
		expr  string
		order []string // nil is every permutation
	}{
		{"x(i) = B(i,j) * c(j)", nil},
		{"X(i,j) = B(i,k) * C(k,j)", nil},
		{"X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil},
		{"x = B(i,j,k) * C(i,j,k)", nil},
		{"X(i,j) = B(i,j,k) * c(k)", nil},
		{"X(i,j,k) = B(i,j,l) * C(k,l)", nil},
		{"X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", nil},
		{"x(i) = b(i) - C(i,j) * d(j)", []string{"i", "j"}},
		{"x(i) = alpha * B^T(i,j) * c(j) + beta * d(i)", []string{"i", "j"}},
		{"X(i,j) = B(i,j) + C(i,j)", nil},
		{"X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil},
		{"X(i,j,k) = B(i,j,k) + C(i,j,k)", nil},
	}
	var shapes []coldShape
	for _, st := range stmts {
		e, err := lang.Parse(st.expr)
		if err != nil {
			tb.Fatalf("parse %q: %v", st.expr, err)
		}
		orders := [][]string{st.order}
		if st.order == nil {
			vars := e.AllVars()
			sort.Strings(vars)
			orders = permutations(vars)
		}
		for _, order := range orders {
			for level := 0; level <= 1; level++ {
				for par := 1; par <= 2; par++ {
					shapes = append(shapes, coldShape{e, lang.Schedule{LoopOrder: order, Opt: level, Par: par}})
				}
			}
		}
	}
	return shapes
}

// permutations lists every ordering of vars.
func permutations(vars []string) [][]string {
	if len(vars) <= 1 {
		return [][]string{append([]string(nil), vars...)}
	}
	var out [][]string
	for i, v := range vars {
		rest := append(append([]string(nil), vars[:i]...), vars[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{v}, p...))
		}
	}
	return out
}

// coldCompile is the uncached request's compile path for one shape: custard,
// program build, then the comp lowering the
// serving layer's comp requests build on first run.
func coldCompile(s coldShape) error {
	g, err := custard.Compile(s.e, nil, s.sched)
	if err != nil {
		return err
	}
	p, err := NewProgram(g)
	if err != nil {
		return err
	}
	_, err = p.compProgram()
	return err
}

// BenchmarkRequestColdSetup measures the compile path of the uncached
// request, cycling the cold-compile program keys (see coldShapes) with
// their statements parsed up front: one op is one shape through custard,
// NewProgram and comp.Compile. Compare with
// BenchmarkRequestWarmSetup.
func BenchmarkRequestColdSetup(b *testing.B) {
	shapes := coldShapes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coldCompile(shapes[i%len(shapes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// coldCompileAllocCeiling bounds the mean allocations of one cold compile
// over the cold-compile shapes: 685 when it was set (2,546 while the compile
// path still formatted port names and keys through fmt), plus headroom.
const coldCompileAllocCeiling = 750

// TestColdCompileAllocs gates the compile path's allocations: validation,
// fingerprinting and wiring must not fall back to building
// names and keys through fmt. Skipped under -race, which perturbs counts.
func TestColdCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	shapes := coldShapes(t)
	total := 0.0
	for _, s := range shapes {
		var err error
		total += testing.AllocsPerRun(1, func() { err = coldCompile(s) })
		if err != nil {
			t.Fatalf("%s %+v: %v", s.e, s.sched, err)
		}
	}
	mean := total / float64(len(shapes))
	t.Logf("%d shapes, %.0f allocs/op", len(shapes), mean)
	if mean > coldCompileAllocCeiling {
		t.Errorf("cold compile: %.0f allocs/op, ceiling %d", mean, coldCompileAllocCeiling)
	}
}

// BenchmarkRequestWarmSetup measures the cache-hit path's setup: a canonical
// key computation (what the serving cache pays before its map lookup).
func BenchmarkRequestWarmSetup(b *testing.B) {
	e := lang.MustParse("x(i) = B(i,j) * c(j)")
	for i := 0; i < b.N; i++ {
		_ = lang.CanonicalKey(e, nil, lang.Schedule{})
	}
}
