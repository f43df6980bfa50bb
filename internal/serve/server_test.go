package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sam/internal/lang"
	"sam/internal/tensor"
)

// decoded runs the decode phase on a request that never was a body.
func decoded(wire *EvaluateRequest) *request {
	req := &request{wire: *wire, begin: time.Now()}
	req.convertOperands()
	return req
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, buf)
}

func postRaw(t *testing.T, url string, buf []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// spmvRequest builds a small randomized SpMV request.
func spmvRequest(seed int64, par int, engine string) (*EvaluateRequest, map[string]*tensor.COO) {
	rng := rand.New(rand.NewSource(seed))
	b := tensor.UniformRandom("B", rng, 120, 30, 25)
	c := tensor.UniformRandom("c", rng, 12, 25)
	req := &EvaluateRequest{
		Expr:   "x(i) = B(i,j) * c(j)",
		Inputs: map[string]WireTensor{"B": ToWire(b), "c": ToWire(c)},
	}
	if par > 1 {
		req.Schedule = &WireSchedule{Par: par}
	}
	if engine != "" {
		req.Options = &WireOptions{Engine: engine}
	}
	return req, map[string]*tensor.COO{"B": b, "c": c}
}

// wireToCOO converts a response tensor back for gold comparison.
func wireToCOO(t *testing.T, w WireTensor) *tensor.COO {
	t.Helper()
	out, err := w.toCOO("x")
	if err != nil {
		t.Fatalf("response tensor invalid: %v", err)
	}
	return out
}

// TestEvaluateRoundTrip drives POST /v1/evaluate across engines and Par
// lanes and checks every response against the dense gold evaluator, that
// repeated requests hit the cache, and that the fingerprint is stable.
func TestEvaluateRoundTrip(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, engine := range []string{"", "event", "comp"} {
		for _, par := range []int{1, 4} {
			req, inputs := spmvRequest(42, par, engine)
			want, err := lang.Gold(lang.MustParse(req.Expr), inputs)
			if err != nil {
				t.Fatal(err)
			}
			var fingerprint string
			for trial := 0; trial < 2; trial++ {
				resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("engine %q par %d: status %d: %s", engine, par, resp.StatusCode, body)
				}
				var er EvaluateResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatal(err)
				}
				if err := tensor.Equal(wireToCOO(t, er.Output), want, 1e-9); err != nil {
					t.Fatalf("engine %q par %d trial %d: output differs from gold: %v", engine, par, trial, err)
				}
				if engine == "comp" && er.Cycles != 0 {
					t.Errorf("comp engine reported %d cycles, want 0", er.Cycles)
				}
				if engine != "comp" && er.Cycles == 0 {
					t.Errorf("engine %q reported 0 cycles", engine)
				}
				if trial == 0 {
					fingerprint = er.Fingerprint
				} else {
					if er.Cache != "hit" {
						t.Errorf("engine %q par %d: second request was a %s, want hit", engine, par, er.Cache)
					}
					if er.Fingerprint != fingerprint {
						t.Errorf("fingerprint changed across requests: %s vs %s", fingerprint, er.Fingerprint)
					}
				}
			}
		}
	}
	// Engine choice must not affect the program cache key: all engine
	// variants of par=1 share one compiled program.
	st := s.Stats()
	if st.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2 (one per Par value)", st.CacheMisses)
	}
	if st.CacheHits < 6 {
		t.Errorf("cache hits = %d, want >= 6", st.CacheHits)
	}
}

// TestJobLifecycle submits an async job, polls it to completion, and checks
// the result and the terminal states of the API.
func TestJobLifecycle(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, inputs := spmvRequest(7, 1, "")
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID == "" || jr.Status != "queued" {
		t.Fatalf("submit response %+v", jr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var poll JobResponse
		if code := getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &poll); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if poll.Status == "done" {
			want, err := lang.Gold(lang.MustParse(req.Expr), inputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := tensor.Equal(wireToCOO(t, poll.Result.Output), want, 1e-9); err != nil {
				t.Fatalf("job result differs from gold: %v", err)
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
	var missing ErrorResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", &missing); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d", code)
	}
}

// TestValidationErrors checks the API rejects malformed requests with 400
// and a descriptive message, before any simulation runs.
func TestValidationErrors(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	good, _ := spmvRequest(1, 1, "")
	cases := []struct {
		name   string
		mutate func(*EvaluateRequest)
	}{
		{"empty expr", func(r *EvaluateRequest) { r.Expr = "" }},
		{"parse error", func(r *EvaluateRequest) { r.Expr = "x(i) = *" }},
		{"missing input", func(r *EvaluateRequest) { delete(r.Inputs, "c") }},
		{"unused input", func(r *EvaluateRequest) { r.Inputs["Z"] = r.Inputs["B"] }},
		{"order mismatch", func(r *EvaluateRequest) { r.Inputs["c"] = r.Inputs["B"] }},
		{"bad engine", func(r *EvaluateRequest) { r.Options = &WireOptions{Engine: "warp"} }},
		{"negative par", func(r *EvaluateRequest) { r.Schedule = &WireSchedule{Par: -2} }},
		{"negative max_cycles", func(r *EvaluateRequest) { r.Options = &WireOptions{MaxCycles: -1} }},
		{"bad format name", func(r *EvaluateRequest) {
			r.Formats = map[string]WireFormat{"B": {Levels: []string{"sparse"}}}
		}},
		{"format for unnamed tensor", func(r *EvaluateRequest) {
			// Typo'd tensor name: would otherwise silently compile with
			// defaults and fragment the cache key.
			r.Formats = map[string]WireFormat{"b": {Levels: []string{"dense", "compressed"}}}
		}},
		{"coord out of range", func(r *EvaluateRequest) {
			w := r.Inputs["c"]
			w.Coords = append(w.Coords, []int64{999})
			w.Values = append(w.Values, 1)
			r.Inputs["c"] = w
		}},
		{"coord/value length mismatch", func(r *EvaluateRequest) {
			w := r.Inputs["c"]
			w.Values = append(w.Values, 1)
			r.Inputs["c"] = w
		}},
	}
	for _, c := range cases {
		req, _ := spmvRequest(1, 1, "")
		c.mutate(req)
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
	}
	// Unknown JSON fields are rejected too.
	resp, _ := http.Post(ts.URL+"/v1/evaluate", "application/json",
		bytes.NewReader([]byte(`{"expr":"x(i)=b(i)*c(i)","inputz":{}}`)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if st := s.Stats(); st.Requests != 0 {
		t.Errorf("invalid requests were admitted: %+v", st)
	}
	_ = good
}

// TestBackpressure429 floods a Workers=1, QueueDepth=1 server with
// concurrent evaluations of a non-trivial kernel and checks that admission
// control rejects the overflow with 429 while admitted requests succeed.
func TestBackpressure429(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	rng := rand.New(rand.NewSource(5))
	b := tensor.UniformRandom("B", rng, 3000, 250, 100)
	c := tensor.UniformRandom("C", rng, 3000, 100, 250)
	req := &EvaluateRequest{
		Expr:   "X(i,j) = B(i,k) * C(k,j)",
		Inputs: map[string]WireTensor{"B": ToWire(b), "C": ToWire(c)},
	}
	const n = 12
	codes := make([]int, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, _ := postJSON(t, ts.URL+"/v1/evaluate", req)
			codes[i] = resp.StatusCode
		}(i)
	}
	start.Done()
	done.Wait()
	var ok200, ok429 int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			ok429++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok200 == 0 {
		t.Errorf("no request succeeded")
	}
	if ok429 == 0 {
		t.Errorf("no request was rejected with 429 (got %d successes)", ok200)
	}
	st := s.Stats()
	if st.Rejected != int64(ok429) {
		t.Errorf("stats.Rejected = %d, want %d", st.Rejected, ok429)
	}
}

// TestStats checks the counters the API reports: admissions, cache
// hits/misses, simulated cycles, and latency percentiles.
func TestStats(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(9, 1, "")
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Requests != 3 || st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.CyclesSimulated <= 0 {
		t.Errorf("cycles_simulated = %d", st.CyclesSimulated)
	}
	if st.LatencyP50MS <= 0 || st.LatencyP99MS < st.LatencyP50MS ||
		math.IsNaN(st.LatencyP50MS) {
		t.Errorf("latency percentiles p50=%v p99=%v", st.LatencyP50MS, st.LatencyP99MS)
	}
	if st.CachePrograms != 1 || st.Workers != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSyncJobsNotRetained checks synchronous evaluations do not pin their
// results in the job registry (their ids are never returned to callers),
// while async jobs stay pollable.
func TestSyncJobsNotRetained(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(13, 1, "")
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	if retained != 0 {
		t.Fatalf("%d sync job records retained, want 0", retained)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var poll JobResponse
		getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &poll)
		if poll.Status == "done" {
			break
		}
		if poll.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %+v", poll)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.mu.Lock()
	retained = len(s.jobs)
	s.mu.Unlock()
	if retained != 1 {
		t.Fatalf("%d async job records retained, want 1", retained)
	}
}

// TestGracefulDrain checks Close waits for in-flight jobs and subsequent
// submissions get 503.
func TestGracefulDrain(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(3, 1, "")
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	s.Close() // must wait for the submitted job
	var poll JobResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &poll); code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	if poll.Status != "done" {
		t.Fatalf("after drain, job status %q want done (err %q)", poll.Status, poll.Error)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp2.StatusCode)
	}
}

// TestSetupSpeedup checks the tentpole claim at the API level: warm-cache
// setup must be at least 2x cheaper than cold setup on repeated SpMV
// requests (in practice it is orders of magnitude cheaper, since a hit
// skips compilation and program construction).
func TestSetupSpeedup(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(21, 1, "")
	var cold int64
	warm := int64(math.MaxInt64)
	for i := 0; i < 6; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var er EvaluateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if er.Cache != "miss" {
				t.Fatalf("first request was a %s", er.Cache)
			}
			cold = er.SetupNS
			continue
		}
		if er.Cache != "hit" {
			t.Fatalf("request %d was a %s", i, er.Cache)
		}
		// Take the fastest warm setup to damp scheduler noise.
		if er.SetupNS < warm {
			warm = er.SetupNS
		}
	}
	if warm <= 0 || cold <= 0 {
		t.Fatalf("setup times cold=%d warm=%d", cold, warm)
	}
	if ratio := float64(cold) / float64(warm); ratio < 2 {
		t.Errorf("warm setup only %.2fx cheaper than cold (cold %dns, warm %dns)", ratio, cold, warm)
	}
}

// TestMethodRouting checks the mux rejects wrong methods/paths.
func TestMethodRouting(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope status %d", resp.StatusCode)
	}
}
