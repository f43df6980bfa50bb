package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sam/internal/obs"
)

// fetchText GETs a URL and returns the body as a string.
func fetchText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// metricValue extracts one sample's value from Prometheus text exposition,
// matching the exact series name (with label set, if any).
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsAndStatsAgree drives a few evaluations and asserts /metrics and
// /v1/stats present the same counts from their shared registry: admitted
// requests, engine runs, cache resolutions, cycles.
func TestMetricsAndStatsAgree(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(7, 1, "")
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/evaluate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	code, exp := fetchText(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}

	if got := metricValue(t, exp, "sam_jobs_admitted_total"); got != float64(stats.Requests) {
		t.Errorf("admitted: /metrics %g, /v1/stats %d", got, stats.Requests)
	}
	if got := metricValue(t, exp, `sam_engine_runs_total{engine="event"}`); got != float64(stats.EngineRuns["event"]) {
		t.Errorf("engine runs: /metrics %g, /v1/stats %d", got, stats.EngineRuns["event"])
	}
	if got := metricValue(t, exp, "sam_cycles_simulated_total"); got != float64(stats.CyclesSimulated) {
		t.Errorf("cycles: /metrics %g, /v1/stats %d", got, stats.CyclesSimulated)
	}
	mem := metricValue(t, exp, `sam_cache_resolutions_total{tier="mem"}`)
	compile := metricValue(t, exp, `sam_cache_resolutions_total{tier="compile"}`)
	if mem != 2 || compile != 1 {
		t.Errorf("resolutions: mem %g compile %g, want 2 and 1", mem, compile)
	}
	if mem != float64(stats.CacheHits) || compile+metricValue(t, exp, `sam_cache_resolutions_total{tier="disk"}`) != float64(stats.CacheMisses) {
		t.Errorf("cache tiers disagree with stats: mem %g vs hits %d, compile %g vs misses %d",
			mem, stats.CacheHits, compile, stats.CacheMisses)
	}

	// Core families present with the shapes Prometheus expects.
	for _, want := range []string{
		"# TYPE sam_http_requests_total counter",
		`sam_http_requests_total{endpoint="/v1/evaluate",status="200"} 3`,
		"# TYPE sam_request_duration_seconds histogram",
		`sam_request_duration_seconds_bucket{endpoint="/v1/evaluate",le="+Inf"} 3`,
		`sam_request_duration_seconds_count{endpoint="/v1/evaluate"} 3`,
		"# TYPE sam_phase_duration_seconds histogram",
		`sam_phase_duration_seconds_count{phase="queue_wait"} 3`,
		"# TYPE sam_queue_depth gauge",
		"# TYPE sam_cache_programs gauge",
		"sam_cache_programs 1",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTraceColdCache asserts ?trace=1 on a cold-cache compiled-engine
// request returns a span breakdown containing the compile-vs-run split, with
// phase durations summing to within the request's total latency.
func TestTraceColdCache(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(11, 2, "comp")
	resp, body := postJSON(t, ts.URL+"/v1/evaluate?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID == "" {
		t.Fatal("traced response has no trace_id")
	}
	if len(er.Trace) == 0 {
		t.Fatal("traced response has no spans")
	}

	byName := map[string]obs.SpanData{}
	var topSum int64
	for _, sp := range er.Trace {
		byName[sp.Name] = sp
		if sp.Parent == -1 {
			topSum += sp.DurNS
		}
		if sp.DurNS < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.DurNS)
		}
	}
	for _, want := range []string{"decode", "admission", "compile", "queue_wait", "bind", "run", "assemble"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing span %q (got %v)", want, names(er.Trace))
		}
	}
	// The decode phase — body read, JSON, operands to COO — is the first
	// top-level span and is over before admission starts.
	dec := byName["decode"]
	if er.Trace[0].Name != "decode" || dec.Parent != -1 || dec.DurNS <= 0 {
		t.Errorf("decode span %+v is not the leading top-level span (spans: %v)", dec, names(er.Trace))
	}
	if adm := byName["admission"]; dec.StartNS+dec.DurNS > adm.StartNS {
		t.Errorf("decode (%d+%dns) overlaps admission (starts %dns)", dec.StartNS, dec.DurNS, adm.StartNS)
	}
	// The compile child nests under admission; the cold-cache split between
	// compile and run is visible as two distinct spans.
	adm := byName["admission"]
	comp := byName["compile"]
	if er.Trace[comp.Parent].Name != "admission" {
		t.Errorf("compile span's parent is %q, want admission", er.Trace[comp.Parent].Name)
	}
	if comp.DurNS > adm.DurNS {
		t.Errorf("compile (%dns) outlasted admission (%dns)", comp.DurNS, adm.DurNS)
	}
	// Top-level phases are disjoint and all inside the request window.
	if topSum > er.ElapsedNS {
		t.Errorf("top-level span sum %dns exceeds total elapsed %dns", topSum, er.ElapsedNS)
	}
	// A lane-parallel comp run (par=2) lists lane 0's steps directly under
	// run: comp collapses the other lanes.
	laneSeen := false
	for _, sp := range er.Trace {
		if !strings.Contains(sp.Name, "[lane ") {
			continue
		}
		laneSeen = true
		if sp.Parent < 0 || er.Trace[sp.Parent].Name != "run" {
			t.Errorf("lane step %q is not a child of run (spans: %v)", sp.Name, names(er.Trace))
		}
		if !strings.HasSuffix(sp.Name, " [lane 0]") {
			t.Errorf("lane step %q runs a lane past lane 0 (spans: %v)", sp.Name, names(er.Trace))
		}
	}
	if !laneSeen {
		t.Errorf("no lane step spans under run (spans: %v)", names(er.Trace))
	}

	// A warm repeat must not contain a compile span.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	var warm EvaluateResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	for _, sp := range warm.Trace {
		if sp.Name == "compile" {
			t.Error("warm cache-hit request recorded a compile span")
		}
	}

	// An untraced request reports no trace fields.
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status %d: %s", resp.StatusCode, body)
	}
	var plain EvaluateResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.TraceID != "" || plain.Trace != nil {
		t.Errorf("untraced response carries trace data: id %q, %d spans", plain.TraceID, len(plain.Trace))
	}
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTraceAsyncJob asserts ?trace=1 on POST /v1/jobs returns the trace ID
// immediately and the span breakdown with the finished job.
func TestTraceAsyncJob(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(13, 1, "")
	resp, body := postJSON(t, ts.URL+"/v1/jobs?trace=1", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.TraceID == "" {
		t.Fatal("traced submission has no trace_id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+jr.ID, &jr); code != http.StatusOK {
			t.Fatalf("job status %d", code)
		}
		if jr.Status == "done" || jr.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %q", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jr.Status != "done" {
		t.Fatalf("job failed: %s", jr.Error)
	}
	if jr.Result.TraceID != jr.TraceID {
		t.Errorf("result trace id %q differs from submission's %q", jr.Result.TraceID, jr.TraceID)
	}
	if len(jr.Result.Trace) == 0 {
		t.Error("finished traced job has no spans")
	} else if first := jr.Result.Trace[0]; first.Name != "decode" || first.Parent != -1 {
		t.Errorf("traced job's first span is %+v, want the top-level decode span", first)
	}
}

// syncWriter serializes concurrent access-log writes for test inspection.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestAccessLog asserts the per-request log line carries the structured
// fields: method, path, status, canonical key, engine, cache tier, duration,
// trace ID.
func TestAccessLog(t *testing.T) {
	var log syncWriter
	s := NewServer(Config{Workers: 1, AccessLog: &log})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := spmvRequest(17, 1, "comp")
	resp, body := postJSON(t, ts.URL+"/v1/evaluate?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	line := log.String()
	for _, want := range []string{
		"method=POST", "path=/v1/evaluate", "status=200",
		`key="x(i)`, "engine=comp", "cache=miss", "dur_ms=",
		"trace=" + er.TraceID,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q:\n%s", want, line)
		}
	}

	// Stats requests log too, with empty evaluation fields.
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if !strings.Contains(log.String(), "path=/v1/stats") {
		t.Errorf("stats request not logged:\n%s", log.String())
	}
}

// TestPprofGate asserts the profiling endpoints exist only behind
// Config.EnablePprof.
func TestPprofGate(t *testing.T) {
	off := httptest.NewServer(NewServer(Config{Workers: 1}))
	defer off.Close()
	if code, _ := fetchText(t, off.URL+"/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("pprof disabled: /debug/pprof/cmdline status %d, want 404", code)
	}

	on := httptest.NewServer(NewServer(Config{Workers: 1, EnablePprof: true}))
	defer on.Close()
	if code, _ := fetchText(t, on.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof enabled: /debug/pprof/cmdline status %d, want 200", code)
	}
}

// TestHTTPErrorStatusCounted asserts non-200 outcomes land in the labeled
// request counter.
func TestHTTPErrorStatusCounted(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/evaluate", &EvaluateRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request: status %d, want 400", resp.StatusCode)
	}
	_, exp := fetchText(t, ts.URL+"/metrics")
	if got := metricValue(t, exp, `sam_http_requests_total{endpoint="/v1/evaluate",status="400"}`); got != 1 {
		t.Errorf(`400 counter = %g, want 1`, got)
	}
}
