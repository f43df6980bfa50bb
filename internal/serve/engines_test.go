package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
