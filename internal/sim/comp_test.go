package sim

import (
	"math/rand"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/tensor"
)

// TestCompEngineRuns checks the compiled engine end to end through the
// public sim entry points: identical output to the event engine, zero
// cycles.
func TestCompEngineRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := lang.MustParse("X(i,j) = B(i,k) * C(k,j)")
	g, err := custard.Compile(e, nil, lang.Schedule{LoopOrder: []string{"i", "k", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	b := tensor.UniformRandom("B", rng, 80, 30, 20)
	c := tensor.UniformRandom("C", rng, 80, 20, 25)
	tensor.QuantizeInts(rng, 7, b, c)
	inputs := map[string]*tensor.COO{"B": b, "C": c}

	ref, err := Run(g, inputs, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, inputs, Options{Engine: EngineComp})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != 0 {
		t.Errorf("comp engine reported %d cycles, want 0", got.Cycles)
	}
	if err := tensor.IdenticalBits(ref.Output, got.Output); err != nil {
		t.Errorf("comp output differs from event: %v", err)
	}
}

// TestCompEngineRejectsBitvector checks the rejection contract: a graph
// outside the compiled block set (the bitvector pipeline) fails under comp
// with comp.Check's error, both up front in CheckEngine and in Run, while the
// event engine still runs it.
func TestCompEngineRejectsBitvector(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := lang.MustParse("x(i) = b(i) * c(i)")
	g, err := custard.CompileBitvector(e, lang.Formats{
		"b": lang.Uniform(1, fiber.Bitvector),
		"c": lang.Uniform(1, fiber.Bitvector),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := comp.Check(g)
	if want == nil {
		t.Fatal("comp.Check accepted a bitvector graph")
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckEngine(EngineComp); err == nil || err.Error() != want.Error() {
		t.Errorf("CheckEngine(comp) = %v, want %v", err, want)
	}
	if err := p.CheckEngine(EngineEvent); err != nil {
		t.Errorf("CheckEngine(event) = %v, want nil", err)
	}
	b := tensor.UniformRandom("b", rng, 40, 200)
	c := tensor.UniformRandom("c", rng, 40, 200)
	inputs := map[string]*tensor.COO{"b": b, "c": c}

	if _, err := Run(g, inputs, Options{Engine: EngineComp}); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("Run on comp = %v, want %v", err, want)
	}
	ref, err := Run(g, inputs, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles == 0 || ref.Output.NNZ() == 0 {
		t.Errorf("event run: %d cycles, %d nonzeros; want both positive", ref.Cycles, ref.Output.NNZ())
	}
}

// TestCompProgramReuse checks the lazy comp lowering is cached on the
// Program and concurrent-safe: repeated and parallel RunProgram calls return
// identical outputs.
func TestCompProgramReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := lang.MustParse("x(i) = B(i,j) * c(j)")
	g, err := custard.Compile(e, nil, lang.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	b := tensor.UniformRandom("B", rng, 60, 20, 15)
	c := tensor.UniformRandom("c", rng, 10, 15)
	tensor.QuantizeInts(rng, 7, b, c)
	inputs := map[string]*tensor.COO{"B": b, "c": c}

	first, err := p.Run(inputs, Options{Engine: EngineComp})
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			res, err := p.Run(inputs, Options{Engine: EngineComp})
			if err == nil {
				err = tensor.IdenticalBits(first.Output, res.Output)
			}
			results <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-results; err != nil {
			t.Errorf("concurrent comp run %d: %v", i, err)
		}
	}
}

// TestEngineRegistry checks the registered engine list and the unknown-
// engine error: user-facing tools print this list, so it must name every
// engine including comp.
func TestEngineRegistry(t *testing.T) {
	kinds := Engines()
	want := []EngineKind{EngineEvent, EngineNaive, EngineComp}
	if len(kinds) != len(want) {
		t.Fatalf("Engines() = %v, want %v", kinds, want)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Errorf("Engines()[%d] = %q, want %q", i, kinds[i], k)
		}
		if err := CheckEngineKind(k, kinds); err != nil {
			t.Errorf("CheckEngineKind(%q): %v", k, err)
		}
	}
	err := CheckEngineKind("bogus", kinds)
	if err == nil {
		t.Fatal("CheckEngineKind(bogus) = nil error")
	}
	for _, k := range want {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("unknown-engine error %q does not list %q", err, k)
		}
	}
	// The removed kinds are unknown, not aliased.
	for _, gone := range []EngineKind{"flow", "byte"} {
		if err := CheckEngineKind(gone, kinds); err == nil {
			t.Errorf("CheckEngineKind(%q) = nil error, want unknown engine", gone)
		}
	}
}
