package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"sam/internal/tensor"
)

// doJSON issues a request with a JSON body (or nil) and decodes the reply.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding reply: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// sameWire is bitwise tensor equality: same dims, coords, and float bits.
func sameWire(a, b WireTensor) bool {
	return reflect.DeepEqual(a.Dims, b.Dims) &&
		reflect.DeepEqual(a.Coords, b.Coords) &&
		reflect.DeepEqual(a.Values, b.Values)
}

// TestTensorEndpoints drives the PUT/GET/DELETE /v1/tensors/{name} CRUD
// surface end to end.
func TestTensorEndpoints(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	url := ts.URL + "/v1/tensors/m"

	m := tensor.NewCOO("m", 4, 4)
	m.Append(2, 0, 1)
	m.Append(3, 2, 0)
	m.Append(5, 3, 3)
	wire := ToWire(m)

	var info TensorInfo
	if code := doJSON(t, http.MethodPut, url, wire, &info); code != http.StatusOK {
		t.Fatalf("PUT status %d", code)
	}
	if info.Name != "m" || info.Version != 1 || info.NNZ != 3 || info.Fingerprint == "" {
		t.Fatalf("PUT info = %+v", info)
	}
	if !reflect.DeepEqual(info.Dims, []int{4, 4}) {
		t.Fatalf("PUT dims = %v", info.Dims)
	}

	var got TensorInfo
	if code := doJSON(t, http.MethodGet, url, nil, &got); code != http.StatusOK {
		t.Fatalf("GET status %d", code)
	}
	if got.Data != nil {
		t.Fatal("GET without ?data=1 included tensor data")
	}
	if got.Version != info.Version || got.Fingerprint != info.Fingerprint {
		t.Fatalf("GET info = %+v, want the PUT stamp %+v", got, info)
	}
	var withData TensorInfo
	if code := doJSON(t, http.MethodGet, url+"?data=1", nil, &withData); code != http.StatusOK {
		t.Fatalf("GET ?data=1 status %d", code)
	}
	if withData.Data == nil || !sameWire(*withData.Data, wire) {
		t.Fatalf("GET ?data=1 did not round-trip the upload: %+v", withData.Data)
	}

	// Replacement bumps the version and changes the fingerprint with content.
	m2 := tensor.NewCOO("m", 4, 4)
	m2.Append(7, 1, 1)
	var info2 TensorInfo
	if code := doJSON(t, http.MethodPut, url, ToWire(m2), &info2); code != http.StatusOK {
		t.Fatalf("re-PUT status %d", code)
	}
	if info2.Version != 2 || info2.Fingerprint == info.Fingerprint {
		t.Fatalf("re-PUT info = %+v", info2)
	}

	// Upload bodies must be inline: a ref is rejected.
	if code := doJSON(t, http.MethodPut, url, WireTensor{Ref: "other"}, nil); code != http.StatusBadRequest {
		t.Fatalf("PUT with ref: status %d, want 400", code)
	}

	if code := doJSON(t, http.MethodDelete, url, nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE status %d, want 204", code)
	}
	if code := doJSON(t, http.MethodGet, url, nil, &struct{}{}); code != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, url, nil, &struct{}{}); code != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d, want 404", code)
	}
}

// TestEvaluateByRef checks {"ref": name} inputs: bit-identical output to the
// same evaluation with inline operands, version/fingerprint stamps in the
// response, and warm-reference bind reuse visible in stats and /metrics.
func TestEvaluateByRef(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(7, 1, "")
	var infoB, infoC TensorInfo
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tensors/B", req.Inputs["B"], &infoB); code != http.StatusOK {
		t.Fatalf("PUT B status %d", code)
	}
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tensors/c", req.Inputs["c"], &infoC); code != http.StatusOK {
		t.Fatalf("PUT c status %d", code)
	}

	var inline EvaluateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", req, &inline); code != http.StatusOK {
		t.Fatalf("inline evaluate status %d", code)
	}
	if inline.Tensors != nil {
		t.Fatalf("inline evaluate stamped tensors: %+v", inline.Tensors)
	}

	byRef := &EvaluateRequest{
		Expr: req.Expr,
		Inputs: map[string]WireTensor{
			"B": {Ref: "B"},
			"c": {Ref: "c"},
		},
	}
	var first EvaluateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", byRef, &first); code != http.StatusOK {
		t.Fatalf("by-ref evaluate status %d", code)
	}
	if !sameWire(first.Output, inline.Output) {
		t.Fatal("by-ref output differs from inline output")
	}
	if first.Cycles != inline.Cycles {
		t.Fatalf("by-ref cycles %d, inline %d", first.Cycles, inline.Cycles)
	}
	wantStamps := map[string]TensorRef{
		"B": {Version: infoB.Version, Fingerprint: infoB.Fingerprint},
		"c": {Version: infoC.Version, Fingerprint: infoC.Fingerprint},
	}
	if !reflect.DeepEqual(first.Tensors, wantStamps) {
		t.Fatalf("response stamps = %+v, want %+v", first.Tensors, wantStamps)
	}

	// A second by-ref evaluation reuses the fibertrees built by the first.
	var second EvaluateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", byRef, &second); code != http.StatusOK {
		t.Fatalf("second by-ref evaluate status %d", code)
	}
	if !sameWire(second.Output, inline.Output) {
		t.Fatal("second by-ref output differs")
	}
	st := s.Stats()
	if st.TensorsStored != 2 || st.TensorsPuts != 2 {
		t.Fatalf("stats stored %d puts %d, want 2 and 2", st.TensorsStored, st.TensorsPuts)
	}
	if st.TensorsRefHits != 4 {
		t.Fatalf("stats ref hits %d, want 4 (two evals x two refs)", st.TensorsRefHits)
	}
	if st.TensorsBindBuilds == 0 || st.TensorsBindHits == 0 {
		t.Fatalf("bind counters: builds %d hits %d, want both > 0", st.TensorsBindBuilds, st.TensorsBindHits)
	}

	_, exp := fetchText(t, ts.URL+"/metrics")
	if got := metricValue(t, exp, `sam_tensor_store_ops_total{op="put"}`); got != 2 {
		t.Fatalf(`ops_total{op="put"} = %v, want 2`, got)
	}
	if got := metricValue(t, exp, `sam_tensor_store_ops_total{op="ref_hit"}`); got != float64(st.TensorsRefHits) {
		t.Fatalf(`ops_total{op="ref_hit"} = %v, want %d`, got, st.TensorsRefHits)
	}
	if got := metricValue(t, exp, "sam_tensor_store_tensors"); got != 2 {
		t.Fatalf("sam_tensor_store_tensors = %v, want 2", got)
	}
	if got := metricValue(t, exp, "sam_tensor_store_bytes"); got != float64(st.TensorsBytes) {
		t.Fatalf("sam_tensor_store_bytes = %v, want %d", got, st.TensorsBytes)
	}
}

// TestEvaluateRefErrors checks the malformed-reference rejections.
func TestEvaluateRefErrors(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(11, 1, "")
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tensors/B", req.Inputs["B"], nil); code != http.StatusOK {
		t.Fatalf("PUT status %d", code)
	}

	// A ref to a tensor nobody uploaded is a client error, and a miss.
	bad := &EvaluateRequest{Expr: req.Expr, Inputs: map[string]WireTensor{
		"B": {Ref: "B"}, "c": {Ref: "nope"},
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", bad, &struct{}{}); code != http.StatusBadRequest {
		t.Fatalf("missing ref: status %d, want 400", code)
	}

	// Carrying both a ref and inline data is ambiguous: rejected.
	both := &EvaluateRequest{Expr: req.Expr, Inputs: map[string]WireTensor{
		"B": {Ref: "B", Dims: []int{30, 25}}, "c": req.Inputs["c"],
	}}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", both, &struct{}{}); code != http.StatusBadRequest {
		t.Fatalf("ref+inline: status %d, want 400", code)
	}

	if st := s.Stats(); st.TensorsRefMisses != 1 {
		t.Fatalf("ref misses = %d, want 1", st.TensorsRefMisses)
	}
	// Failed requests must not leak pins: the stored tensor stays evictable.
	s.tensors.mu.Lock()
	for _, el := range s.tensors.elem {
		if e := el.Value.(*storedTensor); e.pins != 0 {
			s.tensors.mu.Unlock()
			t.Fatalf("tensor %q still pinned (%d) after rejected requests", e.name, e.pins)
		}
	}
	s.tensors.mu.Unlock()
}

// pagerankRequest builds a column-stochastic link matrix over n nodes plus a
// uniform starting vector, and the fixpoint spec to iterate it.
func pagerankRequest(n, iters int) *EvaluateRequest {
	m := tensor.NewCOO("M", n, n)
	for j := 0; j < n; j++ {
		outs := []int{(j + 1) % n, (j*7 + 3) % n}
		if outs[0] == outs[1] {
			outs = outs[:1]
		}
		w := 1 / float64(len(outs))
		for _, i := range outs {
			m.Append(w, int64(i), int64(j))
		}
	}
	m.Sort()
	x := tensor.NewCOO("x", n)
	for i := 0; i < n; i++ {
		x.Append(1/float64(n), int64(i))
	}
	return &EvaluateRequest{
		Expr:     "y(i) = M(i,j) * x(j)",
		Inputs:   map[string]WireTensor{"M": ToWire(m), "x": ToWire(x)},
		Fixpoint: &WireFixpoint{Var: "x", MaxIters: iters, Mode: "pagerank", Damping: 0.85},
	}
}

// TestFixpointPageRankByRef is the acceptance scenario: a PageRank fixpoint
// against the server with the link matrix uploaded once and referenced by
// name across >= 10 iterations, bit-identical to the same iterations run
// with inline operands.
func TestFixpointPageRankByRef(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const iters = 12
	req := pagerankRequest(40, iters)

	var inline EvaluateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", req, &inline); code != http.StatusOK {
		t.Fatalf("inline fixpoint status %d", code)
	}
	if inline.Fixpoint == nil || inline.Fixpoint.Iterations != iters {
		t.Fatalf("inline fixpoint info = %+v, want %d iterations", inline.Fixpoint, iters)
	}
	if len(inline.Fixpoint.Deltas) != iters {
		t.Fatalf("inline deltas = %d entries, want %d", len(inline.Fixpoint.Deltas), iters)
	}
	// A damped PageRank vector over a column-stochastic matrix sums to ~1.
	var sum float64
	for _, v := range inline.Output.Values {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("pagerank mass = %v, want ~1", sum)
	}

	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/tensors/links", req.Inputs["M"], nil); code != http.StatusOK {
		t.Fatalf("PUT links status %d", code)
	}
	byRef := &EvaluateRequest{
		Expr: req.Expr,
		Inputs: map[string]WireTensor{
			"M": {Ref: "links"},
			"x": req.Inputs["x"],
		},
		Fixpoint: req.Fixpoint,
	}
	var ref EvaluateResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", byRef, &ref); code != http.StatusOK {
		t.Fatalf("by-ref fixpoint status %d", code)
	}
	if !sameWire(ref.Output, inline.Output) {
		t.Fatal("by-ref fixpoint output differs from inline")
	}
	if !reflect.DeepEqual(ref.Fixpoint, inline.Fixpoint) {
		t.Fatalf("fixpoint info differs: %+v vs %+v", ref.Fixpoint, inline.Fixpoint)
	}
	if _, ok := ref.Tensors["M"]; !ok {
		t.Fatalf("by-ref fixpoint response missing tensor stamp: %+v", ref.Tensors)
	}
	// The static operand binds once; every later iteration reuses the tree.
	if st := s.Stats(); st.TensorsBindHits < iters-1 {
		t.Fatalf("bind hits = %d across %d iterations, want >= %d", st.TensorsBindHits, iters, iters-1)
	}
}

// TestFixpointAsyncJob runs a fixpoint through the async job API.
func TestFixpointAsyncJob(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	var jr JobResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", pagerankRequest(20, 5), &jr); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var poll JobResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jr.ID, nil, &poll); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if poll.Status == "done" {
			if poll.Result == nil || poll.Result.Fixpoint == nil || poll.Result.Fixpoint.Iterations != 5 {
				t.Fatalf("job result = %+v, want fixpoint info with 5 iterations", poll.Result)
			}
			break
		}
		if poll.Status == "failed" {
			t.Fatalf("job failed: %s", poll.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", poll.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFixpointValidation checks the malformed-fixpoint rejections.
func TestFixpointValidation(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		mut  func(r *EvaluateRequest)
	}{
		{"var not an input", func(r *EvaluateRequest) { r.Fixpoint.Var = "z" }},
		{"var not order-1", func(r *EvaluateRequest) { r.Fixpoint.Var = "M" }},
		{"missing var", func(r *EvaluateRequest) { r.Fixpoint.Var = "" }},
		{"zero max_iters", func(r *EvaluateRequest) { r.Fixpoint.MaxIters = 0 }},
		{"unknown mode", func(r *EvaluateRequest) { r.Fixpoint.Mode = "warp" }},
		{"bad damping", func(r *EvaluateRequest) { r.Fixpoint.Damping = 1.5 }},
	}
	for _, tc := range cases {
		req := pagerankRequest(10, 3)
		tc.mut(req)
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", req, &struct{}{}); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
	}
}

// blockServerQueue swaps the server's queue for one whose single worker
// blocks on gate before running each job, so tests can observe jobs in the
// queued and running states. Call after NewServer and before any traffic.
func blockServerQueue(s *Server, depth int, gate <-chan struct{}, started chan<- string) {
	s.queue.drain() // retire the original workers
	s.queue = newQueue(1, depth, func(j *job) {
		if started != nil {
			started <- j.id
		}
		<-gate
		s.runJob(j)
	})
}

// TestQueueGaugesDuringRun pins the sam_queue_depth bugfix at the server
// level: with one job running and one queued, the depth gauge must report
// both and the running gauge the worker's one — the broken depth dropped the
// running job the moment the channel drained.
func TestQueueGaugesDuringRun(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan string, 8)
	blockServerQueue(s, 8, gate, started)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(3, 1, "")
	for i := 0; i < 2; i++ {
		var jr JobResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, &jr); code != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, code)
		}
	}
	<-started // one job on the worker, the other in the channel

	_, exp := fetchText(t, ts.URL+"/metrics")
	if got := metricValue(t, exp, "sam_queue_depth"); got != 2 {
		t.Fatalf("sam_queue_depth = %v with 1 running + 1 queued, want 2", got)
	}
	if got := metricValue(t, exp, "sam_queue_running"); got != 1 {
		t.Fatalf("sam_queue_running = %v, want 1", got)
	}
	st := s.Stats()
	if st.QueueDepth != 2 || st.QueueRunning != 1 {
		t.Fatalf("stats depth %d running %d, want 2 and 1", st.QueueDepth, st.QueueRunning)
	}

	close(gate)
	<-started
	s.queue.drain()
	if _, exp := fetchText(t, ts.URL+"/metrics"); metricValue(t, exp, "sam_queue_depth") != 0 {
		t.Fatal("sam_queue_depth nonzero after drain")
	}
}

// TestAdmitNoGhostJobs pins the admit/poll race fix: no id may ever be
// observable in the job registry unless its submission was accepted, and
// sync jobs must never be registered at all. The old order — register,
// submit, delete on rejection — left rejected ids visible to a concurrent
// poller.
func TestAdmitNoGhostJobs(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	gate := make(chan struct{})
	blockServerQueue(s, 2, gate, nil)
	defer close(gate)

	req, _ := spmvRequest(5, 1, "")
	prep, err := s.prepare(decoded(req), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Poller: continuously snapshot every id visible in the registry.
	seen := map[string]bool{}
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.mu.Lock()
			for id := range s.jobs {
				seen[id] = true
			}
			s.mu.Unlock()
		}
	}()

	// Admit from several goroutines against a tiny blocked queue: most
	// submissions reject. Collect the accepted ids.
	var mu sync.Mutex
	accepted := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if j, err := s.admit(prep, false); err == nil {
					mu.Lock()
					accepted[j.id] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// A sync admission's id must never appear in the registry either.
	var syncID string
	if j, err := s.admit(prep, true); err == nil {
		syncID = j.id
	}

	close(stop)
	pollWG.Wait()
	if len(accepted) == 0 || len(accepted) > 3 {
		// Depth 2 + one on the blocked worker: at most 3 can be in flight.
		t.Fatalf("accepted %d jobs, want 1..3", len(accepted))
	}
	for id := range seen {
		if !accepted[id] {
			t.Fatalf("ghost job %s observed in the registry (accepted: %v)", id, accepted)
		}
	}
	if syncID != "" && seen[syncID] {
		t.Fatalf("sync job %s observed in the registry", syncID)
	}
	s.mu.Lock()
	if _, ok := s.jobs[syncID]; ok {
		s.mu.Unlock()
		t.Fatalf("sync job %s registered", syncID)
	}
	s.mu.Unlock()
}

// TestFinishedJobArchive covers the finished-job window: beyond finishedCap
// completed async jobs, the oldest records fall out (404) while the newest
// stay resolvable, and sync evaluations never enter the archive.
func TestFinishedJobArchive(t *testing.T) {
	old := finishedCap
	finishedCap = 8
	t.Cleanup(func() { finishedCap = old })

	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(9, 1, "")
	var ids []string
	for i := 0; i < 12; i++ {
		var jr JobResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, &jr); code != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, code)
		}
		ids = append(ids, jr.ID)
		// Complete each job before the next so archive order is the
		// submission order.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var poll JobResponse
			doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jr.ID, nil, &poll)
			if poll.Status == "done" {
				break
			}
			if poll.Status == "failed" {
				t.Fatalf("job %s failed: %s", jr.ID, poll.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck", jr.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// A sync evaluation in the middle must leave no archive record.
		if i == 5 {
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", req, &struct{}{}); code != http.StatusOK {
				t.Fatalf("sync evaluate status %d", code)
			}
		}
	}

	for i, id := range ids {
		var poll JobResponse
		code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &poll)
		if i < 4 {
			if code != http.StatusNotFound {
				t.Fatalf("job %d (%s): status %d, want 404 past the archive window", i, id, code)
			}
			continue
		}
		if code != http.StatusOK || poll.Status != "done" || poll.Result == nil {
			t.Fatalf("job %d (%s): status %d %q, want an archived done record", i, id, code, poll.Status)
		}
	}
	s.mu.Lock()
	nJobs, nFin := len(s.jobs), len(s.finished)
	s.mu.Unlock()
	if nJobs != 8 || nFin != 8 {
		t.Fatalf("registry %d archive %d after 12 async + 1 sync jobs, want 8 and 8", nJobs, nFin)
	}
}
