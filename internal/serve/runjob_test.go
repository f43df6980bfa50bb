package serve

import (
	"math/rand"
	"testing"
	"time"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// TestRunJobAccounting hands prepared jobs straight to the worker's runJob
// and checks each outcome on its own: a successful job records its engine in
// its response and engine_runs, and a job that fails at sim time carries
// "<job id>: " plus the engine's own error, counts in sam_jobs_failed_total
// and adds nothing to engine_runs, on comp and on event.
func TestRunJobAccounting(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()

	prep := func(seed int64, engine string) *prepared {
		req, _ := spmvRequest(seed, 0, engine)
		p, err := s.prepare(decoded(req), nil)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		return p
	}
	// The HTTP compiler never emits bitvector graphs, the one block set comp
	// cannot lower, so build that program by hand: comp rejects it at run
	// time with comp.Check's error.
	bv, err := custard.CompileBitvector(lang.MustParse("x(i) = b(i) * c(i)"), lang.Formats{
		"b": lang.Uniform(1, fiber.Bitvector),
		"c": lang.Uniform(1, fiber.Bitvector),
	})
	if err != nil {
		t.Fatal(err)
	}
	bvProg, err := sim.NewProgram(bv)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	bvJob := &prepared{
		prog: bvProg,
		inputs: map[string]*tensor.COO{
			"b": tensor.UniformRandom("b", rng, 40, 200),
			"c": tensor.UniformRandom("c", rng, 40, 200),
		},
		opt: sim.Options{Engine: sim.EngineComp}, engine: "comp", begin: time.Now(),
	}
	// Two sim-time failures with distinct causes: prepare validated these
	// inputs, so break the bindings afterwards the way a validation gap
	// would — each must surface its own operand.
	badB := prep(4, "comp")
	badB.inputs = map[string]*tensor.COO{"c": badB.inputs["c"]}
	badC := prep(5, "event")
	badC.inputs = map[string]*tensor.COO{"B": badC.inputs["B"]}

	for _, tc := range []struct {
		id     string
		prep   *prepared
		engine string // of a successful job's response
		errMsg string // of a failed job, exact
	}{
		{id: "job-comp", prep: prep(1, "comp"), engine: "comp"},
		{id: "job-event", prep: prep(3, "event"), engine: "event"},
		{id: "job-bitvector", prep: bvJob, errMsg: "job-bitvector: sim: " + bv.Name + ": " + comp.Check(bv).Error()},
		{id: "job-bad-B", prep: badB, errMsg: `job-bad-B: bind: no input bound for tensor "B"`},
		{id: "job-bad-c", prep: badC, errMsg: `job-bad-c: bind: no input bound for tensor "c"`},
	} {
		j := &job{id: tc.id, prep: tc.prep, start: time.Now(), done: make(chan struct{})}
		s.runJob(j)
		if tc.errMsg != "" {
			if j.status != "failed" || j.errMsg != tc.errMsg {
				t.Errorf("%s: status %q, error %q, want failed with %q", tc.id, j.status, j.errMsg, tc.errMsg)
			}
			continue
		}
		if j.status != "done" || j.resp == nil {
			t.Errorf("%s: status %q (err %q), want done", tc.id, j.status, j.errMsg)
			continue
		}
		if j.resp.Engine != tc.engine {
			t.Errorf("%s: response engine = %q, want %q", tc.id, j.resp.Engine, tc.engine)
		}
	}

	st := s.Stats()
	wantRuns := map[string]int64{"comp": 1, "event": 1}
	if len(st.EngineRuns) != len(wantRuns) {
		t.Errorf("engine_runs = %v, want %v", st.EngineRuns, wantRuns)
	}
	for eng, n := range wantRuns {
		if st.EngineRuns[eng] != n {
			t.Errorf("engine_runs[%q] = %d, want %d", eng, st.EngineRuns[eng], n)
		}
	}
	if st.Failures != 3 {
		t.Errorf("failures = %d, want 3", st.Failures)
	}
}
