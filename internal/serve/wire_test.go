package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// validWireRequest is the baseline request every wire error case mutates.
func validWireRequest() *EvaluateRequest {
	return &EvaluateRequest{
		Expr: "x(i) = B(i,j) * c(j)",
		Inputs: map[string]WireTensor{
			"B": {Dims: []int{3, 2}, Coords: [][]int64{{0, 0}, {2, 1}}, Values: []float64{1, 2}},
			"c": {Dims: []int{2}, Coords: [][]int64{{0}, {1}}, Values: []float64{3, 4}},
		},
	}
}

// wireErrorCases is the request-validation error table of the wire format:
// TestWireFormatErrorPaths holds a shard to it, and
// TestRouterWireErrorParity replays it through a router.
var wireErrorCases = []struct {
	name    string
	mutate  func(r *EvaluateRequest)
	status  int
	wantMsg string
}{
	{
		name: "coords values length mismatch",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["B"] = WireTensor{Dims: []int{3, 2}, Coords: [][]int64{{0, 0}}, Values: []float64{1, 2}}
		},
		status: http.StatusBadRequest, wantMsg: "1 coords but 2 values",
	},
	{
		name: "coord arity under rank",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["B"] = WireTensor{Dims: []int{3, 2}, Coords: [][]int64{{0}, {2, 1}}, Values: []float64{1, 2}}
		},
		status: http.StatusBadRequest, wantMsg: "arity 1, want 2",
	},
	{
		name: "coordinate outside dimension",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["B"] = WireTensor{Dims: []int{3, 2}, Coords: [][]int64{{0, 0}, {3, 1}}, Values: []float64{1, 2}}
		},
		status: http.StatusBadRequest, wantMsg: "outside [0,3)",
	},
	{
		name: "negative coordinate",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["B"] = WireTensor{Dims: []int{3, 2}, Coords: [][]int64{{-1, 0}, {2, 1}}, Values: []float64{1, 2}}
		},
		status: http.StatusBadRequest, wantMsg: "outside [0,3)",
	},
	{
		name: "duplicate coordinates",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["B"] = WireTensor{Dims: []int{3, 2}, Coords: [][]int64{{2, 1}, {2, 1}}, Values: []float64{1, 2}}
		},
		status: http.StatusBadRequest, wantMsg: "duplicates coord",
	},
	{
		name: "non-positive dimension",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["B"] = WireTensor{Dims: []int{3, 0}, Coords: [][]int64{{0, 0}}, Values: []float64{1}}
		},
		status: http.StatusBadRequest, wantMsg: "non-positive dimension",
	},
	{
		name: "scalar with coords",
		mutate: func(r *EvaluateRequest) {
			r.Expr = "x(i) = alpha * b(i)"
			r.Inputs = map[string]WireTensor{
				"alpha": {Coords: [][]int64{{0}}, Values: []float64{2}},
				"b":     {Dims: []int{3}, Coords: [][]int64{{1}}, Values: []float64{1}},
			}
		},
		status: http.StatusBadRequest, wantMsg: "order-0",
	},
	{
		name: "rank mismatch against access",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["c"] = WireTensor{Dims: []int{2, 2}, Coords: [][]int64{{0, 0}}, Values: []float64{3}}
		},
		status: http.StatusBadRequest, wantMsg: "order 2",
	},
	{
		name: "shared index dimension mismatch",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["c"] = WireTensor{Dims: []int{5}, Coords: [][]int64{{0}}, Values: []float64{3}}
		},
		status: http.StatusBadRequest, wantMsg: "index \"j\"",
	},
	{
		name:   "missing input",
		mutate: func(r *EvaluateRequest) { delete(r.Inputs, "c") },
		status: http.StatusBadRequest, wantMsg: "no input for tensor \"c\"",
	},
	{
		name: "unreferenced input",
		mutate: func(r *EvaluateRequest) {
			r.Inputs["Z"] = WireTensor{Dims: []int{2}, Coords: [][]int64{{0}}, Values: []float64{1}}
		},
		status: http.StatusBadRequest, wantMsg: "not referenced",
	},
	{
		name:   "unknown opt level",
		mutate: func(r *EvaluateRequest) { lvl := 7; r.Schedule = &WireSchedule{Opt: &lvl} },
		status: http.StatusBadRequest, wantMsg: "unknown opt level 7",
	},
	{
		name:   "negative opt level",
		mutate: func(r *EvaluateRequest) { lvl := -1; r.Schedule = &WireSchedule{Opt: &lvl} },
		status: http.StatusBadRequest, wantMsg: "unknown opt level -1",
	},
	{
		// Residual with j outermost: a schedule no engine can run is a
		// 400 from the compiler, not a 500 from the run.
		name: "partial reduction outside a wider variable",
		mutate: func(r *EvaluateRequest) {
			r.Expr = "x(i) = b(i) - C(i,j) * d(j)"
			r.Schedule = &WireSchedule{LoopOrder: []string{"j", "i"}}
			r.Inputs = map[string]WireTensor{
				"b": {Dims: []int{3}, Coords: [][]int64{{0}, {2}}, Values: []float64{1, 2}},
				"C": {Dims: []int{3, 2}, Coords: [][]int64{{0, 0}, {2, 1}}, Values: []float64{1, 2}},
				"d": {Dims: []int{2}, Coords: [][]int64{{0}, {1}}, Values: []float64{3, 4}},
			}
		},
		status:  http.StatusBadRequest,
		wantMsg: `variable "j" is reduced over only part of the expression but iterated outside "i"`,
	},
	{
		name:    "removed engine flow",
		mutate:  func(r *EvaluateRequest) { r.Options = &WireOptions{Engine: "flow"} },
		status:  http.StatusBadRequest,
		wantMsg: `unknown engine "flow" (registered engines: "event", "comp")`,
	},
	{
		name:    "removed engine byte",
		mutate:  func(r *EvaluateRequest) { r.Options = &WireOptions{Engine: "byte"} },
		status:  http.StatusBadRequest,
		wantMsg: `unknown engine "byte" (registered engines: "event", "comp")`,
	},
	{
		// The tick-all loop is the schedulers' in-process oracle; it is not
		// a wire value.
		name:    "engine naive",
		mutate:  func(r *EvaluateRequest) { r.Options = &WireOptions{Engine: "naive"} },
		status:  http.StatusBadRequest,
		wantMsg: `unknown engine "naive" (registered engines: "event", "comp")`,
	},
}

// TestWireFormatErrorPaths drives the request-validation error paths of the
// wire format table-style: every malformed body must come back 4xx with a
// diagnostic mentioning the offending piece, and must never reach the
// simulator.
func TestWireFormatErrorPaths(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, tc := range wireErrorCases {
		for _, path := range []string{"/v1/evaluate", "/v1/jobs"} {
			req := validWireRequest()
			tc.mutate(req)
			resp, body := postJSON(t, ts.URL+path, req)
			if resp.StatusCode != tc.status {
				t.Errorf("%s on %s: status %d, want %d (body %s)", tc.name, path, resp.StatusCode, tc.status, body)
				continue
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Errorf("%s on %s: non-JSON error body %q", tc.name, path, body)
				continue
			}
			if !strings.Contains(e.Error, tc.wantMsg) {
				t.Errorf("%s on %s: error %q does not mention %q", tc.name, path, e.Error, tc.wantMsg)
			}
		}
	}
}

// TestOversizedPayloadRejected bounds the request body: a payload past
// Config.MaxBodyBytes must come back 413 without being decoded.
func TestOversizedPayloadRejected(t *testing.T) {
	s := NewServer(Config{Workers: 1, MaxBodyBytes: 2048})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := &EvaluateRequest{Expr: "x(i) = B(i,j) * c(j)", Inputs: map[string]WireTensor{}}
	big := WireTensor{Dims: []int{100, 100}}
	for i := 0; i < 500; i++ {
		big.Coords = append(big.Coords, []int64{int64(i % 100), int64(i / 100)})
		big.Values = append(big.Values, float64(i))
	}
	req.Inputs["B"] = big
	req.Inputs["c"] = WireTensor{Dims: []int{100}, Coords: [][]int64{{0}}, Values: []float64{1}}
	for _, path := range []string{"/v1/evaluate", "/v1/jobs"} {
		resp, body := postJSON(t, ts.URL+path, req)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (body %s)", path, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "2048") {
			t.Errorf("%s: error body %q should name the limit", path, body)
		}
	}
	// A small request still passes through the same server.
	small := valid413Probe()
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", small)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small request after 413s: status %d (body %s)", resp.StatusCode, body)
	}
}

func valid413Probe() *EvaluateRequest {
	return &EvaluateRequest{
		Expr: "x(i) = B(i,j) * c(j)",
		Inputs: map[string]WireTensor{
			"B": {Dims: []int{3, 2}, Coords: [][]int64{{0, 0}, {2, 1}}, Values: []float64{1, 2}},
			"c": {Dims: []int{2}, Coords: [][]int64{{0}, {1}}, Values: []float64{3, 4}},
		},
	}
}

// TestOptLevelServing checks the serving path end to end at O1: the result
// matches O0 bit-for-bit, the two levels occupy distinct cache entries (no
// aliasing across opt levels), and a server-level DefaultOpt applies when
// the request omits the level.
func TestOptLevelServing(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	run := func(sched *WireSchedule) EvaluateResponse {
		req := valid413Probe()
		req.Schedule = sched
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate: status %d (body %s)", resp.StatusCode, body)
		}
		var out EvaluateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	lvl0, lvl1 := 0, 1
	r0 := run(&WireSchedule{Opt: &lvl0})
	r1 := run(&WireSchedule{Opt: &lvl1})
	if string(mustJSON(t, r0.Output)) != string(mustJSON(t, r1.Output)) {
		t.Errorf("O1 output differs from O0: %s vs %s", mustJSON(t, r1.Output), mustJSON(t, r0.Output))
	}
	if r0.Fingerprint == r1.Fingerprint {
		t.Errorf("O0 and O1 share fingerprint %s; opt level must change the compiled graph", r0.Fingerprint)
	}
	if r1.Cycles > r0.Cycles {
		t.Errorf("O1 simulated %d cycles, O0 %d; optimization must not slow the graph", r1.Cycles, r0.Cycles)
	}
	st := s.Stats()
	if st.CachePrograms != 2 {
		t.Errorf("cache holds %d programs, want 2 (one per opt level)", st.CachePrograms)
	}

	// DefaultOpt fills omitted levels: same cache entry as explicit opt=1.
	sd := NewServer(Config{Workers: 1, DefaultOpt: 1})
	defer sd.Close()
	tsd := httptest.NewServer(sd)
	defer tsd.Close()
	req := valid413Probe()
	resp, body := postJSON(t, tsd.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DefaultOpt evaluate: status %d (body %s)", resp.StatusCode, body)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint != r1.Fingerprint {
		t.Errorf("DefaultOpt=1 fingerprint %s, want the explicit O1 fingerprint %s", out.Fingerprint, r1.Fingerprint)
	}

	// An out-of-range DefaultOpt clamps to the nearest known level instead
	// of 400ing every opt-omitting request.
	sc := NewServer(Config{Workers: 1, DefaultOpt: 99})
	defer sc.Close()
	tsc := httptest.NewServer(sc)
	defer tsc.Close()
	resp, body = postJSON(t, tsc.URL+"/v1/evaluate", valid413Probe())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DefaultOpt=99 evaluate: status %d (body %s)", resp.StatusCode, body)
	}
	var clamped EvaluateResponse
	if err := json.Unmarshal(body, &clamped); err != nil {
		t.Fatal(err)
	}
	if clamped.Fingerprint != r1.Fingerprint {
		t.Errorf("DefaultOpt=99 fingerprint %s, want the clamped O1 fingerprint %s", clamped.Fingerprint, r1.Fingerprint)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
