package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// decode unmarshals a JSON response body.
func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

// TestEngineCounters drives one request per engine through /v1/evaluate and
// checks GET /v1/stats reports per-engine run counts: the engine field of
// each response names the executor that ran, and engine_runs tallies by that
// executor.
func TestEngineCounters(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	engines := []string{"", "event", "comp", "comp", "naive"}
	wantRuns := map[string]int64{"event": 2, "comp": 2}
	for i, eng := range engines {
		req, _ := spmvRequest(int64(i+1), 0, eng)
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if eng == "naive" {
			// Not a wire value: refused before it can run or be counted.
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("engine %q: status %d, want 400: %s", eng, resp.StatusCode, body)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d: %s", eng, resp.StatusCode, body)
		}
		var er EvaluateResponse
		decode(t, body, &er)
		wantEng := eng
		if wantEng == "" {
			wantEng = "event"
		}
		if er.Engine != wantEng {
			t.Errorf("engine %q: response engine = %q, want %q", eng, er.Engine, wantEng)
		}
		if eng == "comp" && er.Cycles != 0 {
			t.Errorf("comp response reports %d cycles, want 0", er.Cycles)
		}
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if len(st.EngineRuns) != len(wantRuns) {
		t.Errorf("engine_runs = %v, want keys %v", st.EngineRuns, wantRuns)
	}
	for eng, n := range wantRuns {
		if st.EngineRuns[eng] != n {
			t.Errorf("engine_runs[%q] = %d, want %d", eng, st.EngineRuns[eng], n)
		}
	}
}

// TestUnknownEngineRejected checks an engine name the wire does not take —
// an unregistered one, or naive, the in-process reference loop — is a 400
// whose message lists the two it does.
func TestUnknownEngineRejected(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, eng := range []string{"bogus", "naive"} {
		req, _ := spmvRequest(1, 0, eng)
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d, want 400: %s", eng, resp.StatusCode, body)
		}
		if want := `(registered engines: \"event\", \"comp\")`; !strings.Contains(string(body), want) {
			t.Errorf("engine %q: error %s does not list %s", eng, body, want)
		}
	}
}

// TestEngineOutputEncoding holds the three engines' outputs to one another
// where tensor.IdenticalBits cannot look: nil against empty Dims, Pts and
// Crd. Each case runs on event, naive and comp; the outputs must be
// reflect.DeepEqual and encode through AppendEvaluateResponse to the same
// bytes. Last, a graph whose left-hand side names a variable its loop order
// lacks fails every engine, and comp's own build, with one text.
func TestEngineOutputEncoding(t *testing.T) {
	matrix := func(name string, vals ...float64) *tensor.COO {
		c := tensor.NewCOO(name, 2, 3)
		for k, v := range vals {
			if v != 0 {
				c.Append(v, int64(k/3), int64(k%3))
			}
		}
		return c
	}
	cases := []struct {
		name   string
		expr   string
		sched  lang.Schedule
		inputs map[string]*tensor.COO
		want   string // the encoded output, from "output": on
	}{
		{name: "scalar", expr: "x = B(i,j) * C(i,j)",
			inputs: map[string]*tensor.COO{"B": matrix("B", 1, 2), "C": matrix("C", 3, 4)},
			want:   `{"values":[11]}`},
		{name: "empty-order-2", expr: "X(i,j) = B(i,j) * C(i,j)",
			inputs: map[string]*tensor.COO{"B": matrix("B", 1, 0, 2), "C": matrix("C", 0, 5)},
			want:   `{"dims":[2,3]}`},
		{name: "explicit-zero", expr: "X(i,j) = B(i,j) + C(i,j)",
			inputs: map[string]*tensor.COO{"B": matrix("B", 1, 2), "C": matrix("C", -1, 3)},
			want:   `{"dims":[2,3],"coords":[[0,0],[0,1]],"values":[0,5]}`},
		{name: "lhs-permuted", expr: "X(i,j) = B(i,j) * C(i,j)", sched: lang.Schedule{LoopOrder: []string{"j", "i"}},
			inputs: map[string]*tensor.COO{"B": matrix("B", 1, 2, 0, 4), "C": matrix("C", 5, 6, 7, 8)},
			want:   `{"dims":[2,3],"coords":[[0,0],[0,1],[1,0]],"values":[5,12,32]}`},
	}
	engines := []sim.EngineKind{sim.EngineEvent, sim.EngineNaive, sim.EngineComp}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := custard.Compile(lang.MustParse(tc.expr), nil, tc.sched)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sched.LoopOrder != nil && reflect.DeepEqual(g.OutputVars, g.LHSVars) {
				t.Fatalf("loop order %v writes the output in left-hand-side order; the case permutes nothing", g.OutputVars)
			}
			var first *tensor.COO
			var firstBytes []byte
			for _, eng := range engines {
				res, err := sim.Run(g, tc.inputs, sim.Options{Engine: eng})
				if err != nil {
					t.Fatalf("%s: %v", eng, err)
				}
				b, err := AppendEvaluateResponse(nil, &EvaluateResponse{Output: ToWire(res.Output)})
				if err != nil {
					t.Fatalf("%s: %v", eng, err)
				}
				if first == nil {
					first, firstBytes = res.Output, b
					if !bytes.Contains(b, []byte(`"output":`+tc.want+`,`)) {
						t.Errorf("%s encodes %s, want output %s", eng, b, tc.want)
					}
					continue
				}
				if !reflect.DeepEqual(res.Output, first) {
					t.Errorf("%s output %#v, %s gives %#v", eng, res.Output, engines[0], first)
				}
				if !bytes.Equal(b, firstBytes) {
					t.Errorf("%s encodes %s, %s %s", eng, b, engines[0], firstBytes)
				}
			}
		})
	}

	t.Run("lhs-variable-missing", func(t *testing.T) {
		g, err := custard.Compile(lang.MustParse("X(i,j) = B(i,j) * C(i,j)"), nil, lang.Schedule{})
		if err != nil {
			t.Fatal(err)
		}
		g.LHSVars = []string{"i", "q"}
		const want = `tensor: output variable "q" missing from graph metadata`
		inputs := map[string]*tensor.COO{"B": matrix("B", 1), "C": matrix("C", 1)}
		for _, eng := range engines {
			if _, err := sim.Run(g, inputs, sim.Options{Engine: eng}); err == nil || err.Error() != want {
				t.Errorf("%s: error %v, want %q", eng, err, want)
			}
		}
		if _, err := comp.Compile(g); err == nil || err.Error() != want {
			t.Errorf("comp.Compile: error %v, want %q", err, want)
		}
	})
}
