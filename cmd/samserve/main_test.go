package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing server output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSmokeServe boots the real server on an ephemeral port, runs one
// evaluation round-trip plus a stats read, then shuts it down via the
// signal path and checks the graceful-drain exit.
func TestSmokeServe(t *testing.T) {
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &stdout, &stderr, stop)
	}()

	re := regexp.MustCompile(`listening on (http://[^ ]+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// x(i) = B(i,j) * c(j) with B = [[1,2],[0,3]], c = [5,7] -> x = [19,21].
	body := `{
	  "expr": "x(i) = B(i,j) * c(j)",
	  "inputs": {
	    "B": {"dims": [2,2], "coords": [[0,0],[0,1],[1,1]], "values": [1,2,3]},
	    "c": {"dims": [2], "coords": [[0],[1]], "values": [5,7]}
	  }
	}`
	resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		Cycles int `json:"cycles"`
		Output struct {
			Dims   []int     `json:"dims"`
			Coords [][]int64 `json:"coords"`
			Values []float64 `json:"values"`
		} `json:"output"`
		Cache string `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	if er.Cycles <= 0 || er.Cache != "miss" {
		t.Errorf("response cycles=%d cache=%q", er.Cycles, er.Cache)
	}
	want := []float64{19, 21}
	if len(er.Output.Values) != 2 || er.Output.Values[0] != want[0] || er.Output.Values[1] != want[1] {
		t.Errorf("output = %+v, want values %v", er.Output, want)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Requests    int64 `json:"requests"`
		CacheMisses int64 `json:"cache_misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.CacheMisses != 1 {
		t.Errorf("stats = %+v", st)
	}

	stop <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after signal")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Errorf("missing drain message in output: %s", stdout.String())
	}
}

// TestSmokeArtifacts boots the server with -artifacts, serves one
// byte-engine request, and checks the artifact was persisted (disk_writes in
// stats and a .sambc file on disk).
func TestSmokeArtifacts(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-artifacts", dir}, &stdout, &stderr, stop)
	}()

	re := regexp.MustCompile(`listening on (http://[^ ]+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	body := `{
	  "expr": "x(i) = B(i,j) * c(j)",
	  "inputs": {
	    "B": {"dims": [2,2], "coords": [[0,0],[0,1],[1,1]], "values": [1,2,3]},
	    "c": {"dims": [2], "coords": [[0],[1]], "values": [5,7]}
	  },
	  "options": {"engine": "comp"}
	}`
	resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		Engine string `json:"engine"`
		Cache  string `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	if er.Engine != "comp" || er.Cache != "miss" {
		t.Errorf("response engine=%q cache=%q, want comp/miss", er.Engine, er.Cache)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		DiskWrites int64 `json:"disk_writes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.DiskWrites != 1 {
		t.Errorf("disk_writes = %d, want 1", st.DiskWrites)
	}
	files, err := filepath.Glob(filepath.Join(dir, "v*.sambc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("artifact dir holds %d .sambc files, want 1", len(files))
	}

	stop <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after signal")
	}
}

// TestBadFlags checks flag validation exits with usage errors. -batch was
// removed with micro-batching and is an undefined flag like any other.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-workers", "0"}, "must be positive"},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-batch", "2"}, "flag provided but not defined: -batch"},
	} {
		var stdout, stderr syncBuffer
		if code := realMain(tc.args, &stdout, &stderr, nil); code != 2 {
			t.Errorf("%v exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestRouterFlags checks mode separation: flags that size a local shard are
// rejected in router mode, router-only flags are rejected in server mode,
// and a router needs at least one shard URL.
func TestRouterFlags(t *testing.T) {
	routerOnly := [][]string{
		{"-probeinterval", "1s"},
		{"-tilethreshold", "1024"},
	}
	for _, args := range routerOnly {
		var stdout, stderr syncBuffer
		if code := realMain(args, &stdout, &stderr, nil); code != 2 {
			t.Errorf("server mode accepted %v (exit %d, want 2)", args, code)
		}
	}
	serverOnly := [][]string{
		{"-workers", "8"}, {"-queue", "16"}, {"-cache", "8"},
		{"-O", "1"}, {"-tensorbudget", "1024"}, {"-artifacts", "/tmp/x"},
		{"-pprof"}, {"-warm", "x(i) = B(i,j) * c(j)"},
	}
	for _, args := range serverOnly {
		var stdout, stderr syncBuffer
		args = append([]string{"-route", "http://127.0.0.1:1"}, args...)
		if code := realMain(args, &stdout, &stderr, nil); code != 2 {
			t.Errorf("router mode accepted %v (exit %d, want 2)", args, code)
		}
	}
	var stdout, stderr syncBuffer
	if code := realMain([]string{"-route", " , "}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("empty shard list exit %d, want 2", code)
	}
}

// TestSmokeRouter boots two real shards and a router over them, runs one
// evaluation through the routed path plus readiness and stats reads, then
// shuts all three down via the signal path.
func TestSmokeRouter(t *testing.T) {
	re := regexp.MustCompile(`(listening|routing) on (http://[^ ]+)`)
	boot := func(args ...string) (base string, stop chan os.Signal, exit chan int, stderr *syncBuffer) {
		var out syncBuffer
		stderr = &syncBuffer{}
		stop = make(chan os.Signal, 1)
		exit = make(chan int, 1)
		go func() { exit <- realMain(args, &out, stderr, stop) }()
		for deadline := time.Now().Add(10 * time.Second); ; {
			if m := re.FindStringSubmatch(out.String()); m != nil {
				return m[2], stop, exit, stderr
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never announced its address; stderr: %s", args, stderr.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	shard1, stop1, exit1, _ := boot("-addr", "127.0.0.1:0", "-workers", "2")
	shard2, stop2, exit2, _ := boot("-addr", "127.0.0.1:0", "-workers", "2")
	router, stopR, exitR, errR := boot("-addr", "127.0.0.1:0", "-route", shard1+","+shard2, "-probeinterval", "50ms")

	resp, err := http.Get(router + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz: status %d", resp.StatusCode)
	}

	body := `{
	  "expr": "x(i) = B(i,j) * c(j)",
	  "inputs": {
	    "B": {"dims": [2,2], "coords": [[0,0],[0,1],[1,1]], "values": [1,2,3]},
	    "c": {"dims": [2], "coords": [[0],[1]], "values": [5,7]}
	  }
	}`
	resp, err = http.Post(router+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		Output struct {
			Values []float64 `json:"values"`
		} `json:"output"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(er.Output.Values) != 2 || er.Output.Values[0] != 19 || er.Output.Values[1] != 21 {
		t.Fatalf("routed evaluate: status %d output %+v, want [19 21]", resp.StatusCode, er.Output.Values)
	}

	resp, err = http.Get(router + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ShardsLive int `json:"shards_live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ShardsLive != 2 {
		t.Fatalf("router stats shards_live %d, want 2", st.ShardsLive)
	}

	for _, s := range []chan os.Signal{stopR, stop1, stop2} {
		s <- os.Interrupt
	}
	for i, e := range []chan int{exitR, exit1, exit2} {
		select {
		case code := <-e:
			if code != 0 {
				t.Fatalf("process %d exit code %d; router stderr: %s", i, code, errR.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("process %d did not exit after signal", i)
		}
	}
}

// TestSmokeObservability boots the server with -pprof and -logrequests,
// checks the pprof index answers, scrapes /metrics for the core families,
// and verifies the access log carried a structured line for the request.
func TestSmokeObservability(t *testing.T) {
	var stdout, stderr syncBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-pprof", "-logrequests"}, &stdout, &stderr, stop)
	}()

	re := regexp.MustCompile(`listening on (http://[^ ]+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	body := `{
	  "expr": "x(i) = B(i,j) * c(j)",
	  "inputs": {
	    "B": {"dims": [2,2], "coords": [[0,0],[0,1],[1,1]], "values": [1,2,3]},
	    "c": {"dims": [2], "coords": [[0],[1]], "values": [5,7]}
	  }
	}`
	resp, err := http.Post(base+"/v1/evaluate?trace=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		TraceID string `json:"trace_id"`
		Trace   []struct {
			Name string `json:"name"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	if er.TraceID == "" || len(er.Trace) == 0 {
		t.Errorf("?trace=1 response trace_id=%q spans=%d, want id and spans", er.TraceID, len(er.Trace))
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	exposition := raw.String()
	for _, want := range []string{
		"sam_http_requests_total{",
		"sam_engine_runs_total{engine=",
		"sam_cache_resolutions_total{tier=",
		"sam_request_duration_seconds_bucket{",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d, want 200 with -pprof", resp.StatusCode)
	}

	log := stderr.String()
	if !strings.Contains(log, "method=POST path=/v1/evaluate status=200") {
		t.Errorf("access log missing evaluate line; stderr: %s", log)
	}
	if !strings.Contains(log, "trace="+er.TraceID) {
		t.Errorf("access log missing trace id %s; stderr: %s", er.TraceID, log)
	}

	stop <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after signal")
	}
}
