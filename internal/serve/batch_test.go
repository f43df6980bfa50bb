package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sam/internal/tensor"
)

// batchJob builds an admitted-shaped job directly from a prepared request,
// so tests can hand runBatch a deterministic micro-batch without racing the
// queue's drain timing.
func batchJob(id string, prep *prepared) *job {
	return &job{id: id, prep: prep, start: time.Now(), done: make(chan struct{})}
}

// TestRunBatchPerJobAccounting drives one micro-batch (BatchMax > 1 shape)
// through the server's batch runner and checks per-job outcomes: each
// successful job records the engine that executed it in both its response
// and engine_runs, and each failed job gets its own error message — one
// job's failure must not relabel its batchmates.
func TestRunBatchPerJobAccounting(t *testing.T) {
	s := NewServer(Config{Workers: 1, BatchMax: 4})
	defer s.Close()

	prep := func(seed int64, engine string) *prepared {
		req, _ := spmvRequest(seed, 0, engine)
		p, err := s.prepare(decoded(req), nil)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		return p
	}
	okComp1 := prep(1, "comp")
	okComp2 := prep(2, "comp")
	okEvent := prep(3, "event")
	// Two sim-time failures with distinct causes: prepare validated these
	// inputs, so break the bindings afterwards the way a buggy client or a
	// future validation gap would — each must surface its own operand.
	badB := prep(4, "comp")
	badB.inputs = map[string]*tensor.COO{"c": badB.inputs["c"]}
	badC := prep(5, "comp")
	badC.inputs = map[string]*tensor.COO{"B": badC.inputs["B"]}

	batch := []*job{
		batchJob("job-ok-1", okComp1),
		batchJob("job-bad-B", badB),
		batchJob("job-ok-event", okEvent),
		batchJob("job-bad-c", badC),
		batchJob("job-ok-2", okComp2),
	}
	s.runBatch(batch)

	for _, tc := range []struct {
		j      *job
		engine string
	}{
		{batch[0], "comp"}, {batch[2], "event"}, {batch[4], "comp"},
	} {
		if tc.j.status != "done" || tc.j.resp == nil {
			t.Errorf("%s: status %q (err %q), want done", tc.j.id, tc.j.status, tc.j.errMsg)
			continue
		}
		if tc.j.resp.Engine != tc.engine {
			t.Errorf("%s: response engine = %q, want %q", tc.j.id, tc.j.resp.Engine, tc.engine)
		}
	}
	for _, tc := range []struct {
		j       *job
		operand string
	}{
		{batch[1], "B"}, {batch[3], "c"},
	} {
		if tc.j.status != "failed" || tc.j.errMsg == "" {
			t.Errorf("%s: status %q, want failed with message", tc.j.id, tc.j.status)
			continue
		}
		if !strings.Contains(tc.j.errMsg, fmt.Sprintf("%q", tc.operand)) {
			t.Errorf("%s: error %q does not name its own missing operand %q", tc.j.id, tc.j.errMsg, tc.operand)
		}
	}
	if batch[1].errMsg == batch[3].errMsg {
		t.Errorf("failed batchmates share one error message: %q", batch[1].errMsg)
	}

	st := s.Stats()
	wantRuns := map[string]int64{"comp": 2, "event": 1}
	for eng, n := range wantRuns {
		if st.EngineRuns[eng] != n {
			t.Errorf("engine_runs[%q] = %d, want %d", eng, st.EngineRuns[eng], n)
		}
	}
	if st.EngineFallbacks != 0 {
		t.Errorf("engine_fallbacks = %d, want 0", st.EngineFallbacks)
	}
	if st.Failures != 2 {
		t.Errorf("failures = %d, want 2", st.Failures)
	}
}
