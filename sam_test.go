package sam

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/lang"
)

// TestFacadeQuickstart exercises the public API end to end.
func TestFacadeQuickstart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	B := RandomTensor("B", rng, 200, 50, 40)
	c := RandomTensor("c", rng, 10, 40)
	g, err := Compile("x(i) = B(i,j) * c(j)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, Inputs{"B": B, "c": c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate("x(i) = B(i,j) * c(j)", Inputs{"B": B, "c": c})
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(res.Output, want, 1e-9); err != nil {
		t.Error(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
	if !strings.Contains(g.DOT(), "digraph") {
		t.Error("DOT export broken")
	}
}

// TestFacadeFormatsAndSchedules exercises formats, loop orders and rewrites
// through the facade.
func TestFacadeFormatsAndSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	B := RandomTensor("B", rng, 300, 60, 30)
	C := RandomTensor("C", rng, 300, 30, 60)
	in := Inputs{"B": B, "C": C}
	want, err := Evaluate("X(i,j) = B(i,k) * C(k,j)", in)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{
		{},
		{LoopOrder: []string{"i", "k", "j"}},
		{LoopOrder: []string{"k", "i", "j"}},
		{UseSkip: true},
	} {
		g, err := Compile("X(i,j) = B(i,k) * C(k,j)", nil, sched)
		if err != nil {
			t.Fatalf("%+v: %v", sched, err)
		}
		res, err := Simulate(g, in, Options{})
		if err != nil {
			t.Fatalf("%+v: %v", sched, err)
		}
		if err := Equal(res.Output, want, 1e-9); err != nil {
			t.Errorf("%+v: %v", sched, err)
		}
	}
}

// TestFacadeScalarTensor exercises order-0 operands.
func TestFacadeScalarTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := RandomTensor("b", rng, 20, 50)
	a := ScalarTensor("a", 2.5)
	g, err := Compile("x(i) = a * b(i)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, Inputs{"a": a, "b": b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate("x(i) = a * b(i)", Inputs{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(res.Output, want, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestFacadeErrors checks user-facing error paths.
func TestFacadeErrors(t *testing.T) {
	if _, err := Compile("garbage(((", nil, Schedule{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := Compile("x(i) = b(i)", nil, Schedule{LoopOrder: []string{"z"}}); err == nil {
		t.Error("bad loop order not surfaced")
	}
	g, err := Compile("x(i) = b(i) * c(i)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(g, Inputs{}, Options{}); err == nil {
		t.Error("missing inputs not surfaced")
	}
}

// TestSimulateBatchFigure12 runs the Figure 12 six-permutation SpM*SpM
// study concurrently through SimulateBatch and checks the results are
// identical to sequential Simulate calls.
func TestSimulateBatchFigure12(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := RandomTensor("B", rng, 300, 60, 25)
	c := RandomTensor("C", rng, 300, 25, 60)
	inputs := Inputs{"B": b, "C": c}
	var jobs []Job
	var seq []*Result
	for _, order := range [][]string{
		{"i", "j", "k"}, {"j", "i", "k"}, {"i", "k", "j"}, {"j", "k", "i"}, {"k", "i", "j"}, {"k", "j", "i"},
	} {
		g, err := Compile("X(i,j) = B(i,k) * C(k,j)", nil, Schedule{LoopOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(g, inputs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Name: order[0] + order[1] + order[2], Graph: g, Inputs: inputs})
		seq = append(seq, res)
	}
	batch, err := SimulateBatch(jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if batch[i].Cycles != seq[i].Cycles {
			t.Errorf("%s: batch cycles %d, sequential %d", jobs[i].Name, batch[i].Cycles, seq[i].Cycles)
		}
		if err := Equal(batch[i].Output, seq[i].Output, 0); err != nil {
			t.Errorf("%s: batch output differs: %v", jobs[i].Name, err)
		}
	}
}

// TestFacadeEngines checks engine selection through the public Options.
func TestFacadeEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := RandomTensor("B", rng, 120, 40, 30)
	c := RandomTensor("c", rng, 20, 30)
	inputs := Inputs{"B": b, "c": c}
	g, err := Compile("x(i) = B(i,j) * c(j)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	event, err := Simulate(g, inputs, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Simulate(g, inputs, Options{Engine: EngineNaive})
	if err != nil {
		t.Fatal(err)
	}
	if event.Cycles != naive.Cycles {
		t.Errorf("engines disagree on cycles: event %d, naive %d", event.Cycles, naive.Cycles)
	}
	comp, err := Simulate(g, inputs, Options{Engine: EngineComp})
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(comp.Output, event.Output, 1e-9); err != nil {
		t.Errorf("comp engine output differs: %v", err)
	}
	if _, err := Simulate(g, inputs, Options{Engine: "warp"}); err == nil {
		t.Error("unknown engine not surfaced")
	}
}

// TestFacadeCompRejectsBitvector checks that comp rejects the bitvector
// pipeline up front, with comp.Check's message, while the event engine runs
// it and matches the dense reference.
func TestFacadeCompRejectsBitvector(t *testing.T) {
	const expr = "x(i) = b(i) * c(i)"
	rng := rand.New(rand.NewSource(13))
	inputs := Inputs{"b": RandomTensor("b", rng, 60, 300), "c": RandomTensor("c", rng, 60, 300)}
	g, err := CompileBitvector(expr, Formats{"b": Uniform(1, Bitvector), "c": Uniform(1, Bitvector)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	want := comp.Check(g)
	if want == nil {
		t.Fatal("comp.Check accepted a bitvector graph")
	}
	if err := p.CheckEngine(EngineComp); err == nil || err.Error() != want.Error() {
		t.Errorf("CheckEngine(comp) = %v, want %v", err, want)
	}
	if err := p.CheckEngine(EngineEvent); err != nil {
		t.Fatalf("CheckEngine(event) = %v", err)
	}
	res, err := p.Run(inputs, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	gold, err := lang.Gold(lang.MustParse(expr), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(res.Output, gold, 1e-9); err != nil {
		t.Errorf("event output differs from gold: %v", err)
	}
}

// TestFacadeArtifacts exercises the artifact surface: EncodeProgram is
// deterministic, DecodeProgram yields a graph-less Program that runs on the
// comp engine with output identical to the event engine on the source graph,
// and engines needing the graph reject it.
func TestFacadeArtifacts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	B := RandomTensor("B", rng, 150, 40, 30)
	c := RandomTensor("c", rng, 15, 30)
	inputs := Inputs{"B": B, "c": c}

	g, err := Compile("x(i) = B(i,j) * c(j)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeProgram(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("two encodings of one graph differ")
	}
	p, err := DecodeProgram(enc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != g.Fingerprint() {
		t.Errorf("artifact fingerprint %q differs from graph %q", p.Fingerprint(), g.Fingerprint())
	}
	want, err := Simulate(g, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(inputs, Options{Engine: EngineComp})
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(got.Output, want.Output, 0); err != nil {
		t.Errorf("artifact output differs from event: %v", err)
	}
	if _, err := p.Run(inputs, Options{Engine: EngineEvent}); err == nil {
		t.Error("cycle engine accepted an artifact-backed program")
	}
	if _, err := DecodeProgram(enc[:len(enc)/2]); err == nil {
		t.Error("DecodeProgram accepted truncated bytes")
	}
}

// TestFacadeProgramAndServer exercises the serving surface: a compiled
// Program reused across runs matches one-shot Simulate exactly, the
// fingerprint is stable, CheckEngine validates up front, and a Server
// round-trips one HTTP evaluation.
func TestFacadeProgramAndServer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	B := RandomTensor("B", rng, 150, 40, 30)
	c := RandomTensor("c", rng, 15, 30)
	inputs := Inputs{"B": B, "c": c}

	p, err := CompileProgram("x(i) = B(i,j) * c(j)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fingerprint()) != 32 {
		t.Errorf("fingerprint %q", p.Fingerprint())
	}
	g, err := Compile("x(i) = B(i,j) * c(j)", nil, Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != p.Fingerprint() {
		t.Errorf("program and graph fingerprints differ")
	}
	want, err := Simulate(g, inputs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		got, err := p.Run(inputs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles {
			t.Errorf("trial %d: cycles %d != %d", trial, got.Cycles, want.Cycles)
		}
		if err := Equal(got.Output, want.Output, 0); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
	if err := p.CheckEngine(EngineComp); err != nil {
		t.Errorf("CheckEngine(comp) on a graph-backed program = %v", err)
	}
	if err := p.CheckEngine("flow"); err == nil {
		t.Error(`CheckEngine("flow") = nil, want unknown engine`)
	}

	srv := NewServer(ServerConfig{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"expr": "x(i) = b(i) * c(i)", "inputs": {
	  "b": {"dims": [3], "coords": [[0],[2]], "values": [2,3]},
	  "c": {"dims": [3], "coords": [[1],[2]], "values": [5,7]}}}`
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(out), `"values":[21]`) {
		t.Errorf("evaluate status %d body %s", resp.StatusCode, out)
	}
}
