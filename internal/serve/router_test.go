package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sam/internal/obs"
	"sam/internal/tensor"
)

// TestRingDeterministicAndBalanced checks the consistent-hash ring's two
// load-bearing properties: the key→shard mapping is a pure function of the
// shard identity list (stable across rebuilds, i.e. router restarts), and
// virtual nodes spread a large keyspace without gross imbalance.
func TestRingDeterministicAndBalanced(t *testing.T) {
	ids := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r1, r2 := newRing(ids), newRing(ids)
	counts := make([]int, len(ids))
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("key-%d", i)
		a, b := r1.lookup(key, nil), r2.lookup(key, nil)
		if a != b {
			t.Fatalf("key %q: ring rebuild changed owner %d -> %d", key, a, b)
		}
		counts[a]++
	}
	for i, c := range counts {
		// Fair share is 5000; 128 virtual nodes should keep every shard
		// within a factor of two of it.
		if c < 2500 || c > 10000 {
			t.Errorf("shard %d owns %d of 20000 keys; imbalance beyond 2x fair share (split %v)", i, c, counts)
		}
	}
}

// TestRingEjectionRemapMinimal checks the minimal-remap property: ejecting
// one shard moves only that shard's keys — every key owned by a surviving
// shard keeps its owner, so ejection never invalidates the rest of the
// fleet's warm caches.
func TestRingEjectionRemapMinimal(t *testing.T) {
	ids := []string{"http://a:1", "http://b:2", "http://c:3"}
	r := newRing(ids)
	const dead = 1
	alive := func(i int) bool { return i != dead }
	moved := 0
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.lookup(key, nil)
		after := r.lookup(key, alive)
		if before != dead {
			if after != before {
				t.Fatalf("key %q owned by live shard %d moved to %d on shard %d's ejection", key, before, after, dead)
			}
			continue
		}
		if after == dead {
			t.Fatalf("key %q still maps to ejected shard %d", key, dead)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("ejected shard owned no keys; test proves nothing")
	}
}

// TestMergedHistogramQuantiles checks the stats-aggregation math: merging
// two shards' histogram snapshots bucket-wise and taking quantiles of the
// merge must agree exactly with one histogram that observed every sample —
// the property percentile averaging does not have.
func TestMergedHistogramQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h1 := reg.Histogram("h1", "", nil)
	h2 := reg.Histogram("h2", "", nil)
	all := reg.Histogram("all", "", nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		// A skewed mix: shard 1 fast, shard 2 slow — the case where
		// averaging per-shard p99s is most wrong.
		v := rng.Float64() * 0.01
		if i%10 == 0 {
			v = rng.Float64() * 5
		}
		if i%2 == 0 {
			h1.Observe(v)
		} else {
			h2.Observe(v)
		}
		all.Observe(v)
	}
	snap := func(h *obs.Histogram) *HistogramSnapshot {
		return &HistogramSnapshot{Buckets: obs.DefBuckets, Counts: h.BucketCounts(), Sum: h.Sum(), Count: h.Count()}
	}
	merged := mergeHist(nil, snap(h1))
	merged = mergeHist(merged, snap(h2))
	if merged.Count != all.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count, all.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := obs.QuantileFromBuckets(merged.Buckets, merged.Counts, q)
		want := all.Quantile(q)
		if got != want {
			t.Errorf("q%g: merged %v, single histogram %v", q*100, got, want)
		}
	}
	// Mismatched layouts must be skipped, not mis-merged.
	bad := &HistogramSnapshot{Buckets: []float64{1, 2}, Counts: []int64{1, 1, 1}, Count: 3}
	if out := mergeHist(merged, bad); out.Count != merged.Count {
		t.Error("mergeHist merged a histogram with a different bucket layout")
	}
}

// startShardOn boots one real shard on addr ("127.0.0.1:0" for any port),
// returning its base URL and a stop function. Restarting a killed shard on
// its concrete address is what the recovery tests need — httptest servers
// cannot rebind.
func startShardOn(t *testing.T, addr string, cfg Config) (string, func()) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := NewServer(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		s.Close()
	}
}

// startRouter boots a router over the given shards behind httptest.
func startRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

// requestOwnedBy returns an evaluation whose routing key the given shard
// owns. The key is lang.CanonicalKey — expression, formats and schedule,
// never tensor data — and the ring is built over the shards' ephemeral
// ports, so the search walks schedules (lanes, opt level, gallop, locators:
// 256 distinct keys, each a fresh coin flip) until one lands there.
func requestOwnedBy(t *testing.T, rt *Router, url string) *EvaluateRequest {
	t.Helper()
	for par := 1; par <= 32; par++ {
		for variant := 0; variant < 8; variant++ {
			req, _ := spmvRequest(1, 1, "")
			opt := variant & 1
			req.Schedule = &WireSchedule{Par: par, Opt: &opt, UseSkip: variant&2 != 0, UseLocators: variant&4 != 0}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if sh := rt.route(routingKey(readEnvelope(body), body)); sh != nil && sh.url == url {
				return req
			}
		}
	}
	t.Fatalf("no schedule of 256 routed to shard %s", url)
	return nil
}

// scrubTiming zeroes the fields that legitimately differ between two runs
// of the same request (wall-clock measurements), leaving everything the
// differential test demands be identical.
func scrubTiming(er *EvaluateResponse) {
	er.SetupNS = 0
	er.ElapsedNS = 0
}

// TestRouterDifferential drives the same requests against a single-node
// server and a 2-shard router and requires identical answers: evaluation
// results (timing scrubbed), every error body byte-for-byte, and the
// tensor-store endpoints. This is the acceptance bar for the router being
// a transparent front: shard count is a deployment detail, not an API.
func TestRouterDifferential(t *testing.T) {
	single := httptest.NewServer(NewServer(Config{Workers: 2}))
	defer single.Close()
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop2()
	_, router := startRouter(t, RouterConfig{Shards: []string{u1, u2}})

	t.Run("evaluate", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			for _, engine := range []string{"", "event", "comp"} {
				req, _ := spmvRequest(seed, 1, engine)
				resp1, body1 := postJSON(t, single.URL+"/v1/evaluate", req)
				resp2, body2 := postJSON(t, router.URL+"/v1/evaluate", req)
				if resp1.StatusCode != resp2.StatusCode {
					t.Fatalf("seed %d engine %q: status %d vs %d", seed, engine, resp1.StatusCode, resp2.StatusCode)
				}
				var e1, e2 EvaluateResponse
				if err := json.Unmarshal(body1, &e1); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(body2, &e2); err != nil {
					t.Fatal(err)
				}
				scrubTiming(&e1)
				scrubTiming(&e2)
				// Cache provenance differs only in that the router's shard is
				// its own process; first sights are misses on both. Compare
				// everything.
				j1, _ := json.Marshal(e1)
				j2, _ := json.Marshal(e2)
				if string(j1) != string(j2) {
					t.Fatalf("seed %d engine %q: single-node and routed responses differ:\n%s\n%s", seed, engine, j1, j2)
				}
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		bad := []any{
			map[string]any{"expr": "x(i) = B(i,j) *", "inputs": map[string]any{}},
			map[string]any{"expr": "x(i) = B(i,j) * c(j)", "inputs": map[string]any{}},
			map[string]any{"expr": "x(i) = B(i,j) * c(j)", "options": map[string]any{"engine": "warp"}, "inputs": map[string]any{}},
			map[string]any{"nonsense": true},
		}
		for i, req := range bad {
			resp1, body1 := postJSON(t, single.URL+"/v1/evaluate", req)
			resp2, body2 := postJSON(t, router.URL+"/v1/evaluate", req)
			if resp1.StatusCode != resp2.StatusCode || string(body1) != string(body2) {
				t.Errorf("bad request %d: single-node %d %q vs routed %d %q", i, resp1.StatusCode, body1, resp2.StatusCode, body2)
			}
		}
	})

	t.Run("tensors", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		b := tensor.UniformRandom("B", rng, 60, 20, 20)
		wt := ToWire(b)
		for _, base := range []string{single.URL, router.URL} {
			buf, _ := json.Marshal(wt)
			req, _ := http.NewRequest(http.MethodPut, base+"/v1/tensors/B", strings.NewReader(string(buf)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("PUT via %s: status %d", base, resp.StatusCode)
			}
		}
		var i1, i2 TensorInfo
		getJSON(t, single.URL+"/v1/tensors/B?data=1", &i1)
		getJSON(t, router.URL+"/v1/tensors/B?data=1", &i2)
		if i1.Fingerprint != i2.Fingerprint || i1.NNZ != i2.NNZ || i1.Bytes != i2.Bytes {
			t.Errorf("stored tensor metadata differs: %+v vs %+v", i1, i2)
		}
		c1, err := i1.Data.toCOO("B")
		if err != nil {
			t.Fatal(err)
		}
		c2, err := i2.Data.toCOO("B")
		if err != nil {
			t.Fatal(err)
		}
		if err := tensor.Equal(c1, c2, 0); err != nil {
			t.Errorf("stored tensor data differs: %v", err)
		}
		// Unknown tensors and deletes answer identically.
		var e1s, e2s ErrorResponse
		s1 := getJSON(t, single.URL+"/v1/tensors/nope", &e1s)
		s2 := getJSON(t, router.URL+"/v1/tensors/nope", &e2s)
		if s1 != s2 || e1s.Error != e2s.Error {
			t.Errorf("missing-tensor response differs: %d %q vs %d %q", s1, e1s.Error, s2, e2s.Error)
		}
	})

	t.Run("jobs", func(t *testing.T) {
		req, _ := spmvRequest(11, 1, "")
		resp, body := postJSON(t, router.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit: status %d: %s", resp.StatusCode, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(jr.ID, "s0-") && !strings.HasPrefix(jr.ID, "s1-") {
			t.Fatalf("routed job ID %q lacks a shard prefix", jr.ID)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			var got JobResponse
			if code := getJSON(t, router.URL+"/v1/jobs/"+jr.ID, &got); code != http.StatusOK {
				t.Fatalf("job poll: status %d", code)
			}
			if got.ID != jr.ID {
				t.Fatalf("job poll returned ID %q, want the prefixed %q", got.ID, jr.ID)
			}
			if got.Status == "done" {
				break
			}
			if got.Status == "failed" {
				t.Fatalf("job failed: %s", got.Error)
			}
			if time.Now().After(deadline) {
				t.Fatal("job did not finish in time")
			}
			time.Sleep(10 * time.Millisecond)
		}
		// Unknown and unprefixed IDs 404 with the shard-identical body.
		for _, id := range []string{"zzz", "s9-j1", "j1", "s0-"} {
			var er ErrorResponse
			if code := getJSON(t, router.URL+"/v1/jobs/"+id, &er); code != http.StatusNotFound {
				t.Errorf("job %q: status %d, want 404", id, code)
			} else if want := fmt.Sprintf("no job %q", id); er.Error != want && id != "zzz" {
				// s9-j1 routes nowhere, j1 has no prefix, s0- has no local id.
				t.Errorf("job %q: error %q, want %q", id, er.Error, want)
			}
		}
	})
}

// TestRouterWireErrorParity replays the wire format's whole error table
// through a 2-shard router and against a shard directly: same status, same
// error body, on both evaluation endpoints. The router reads requests with
// the shard's own strict decoder, so there is one rule for what a body may
// contain — including when it names a tiled tensor: a typo'd field gets the
// shard's 400, not a fan-out.
func TestRouterWireErrorParity(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop2()
	_, router := startRouter(t, RouterConfig{Shards: []string{u1, u2}, TileThresholdBytes: 1024})

	type row struct {
		name string
		body []byte
	}
	var rows []row
	for _, tc := range wireErrorCases {
		req := validWireRequest()
		tc.mutate(req)
		rows = append(rows, row{tc.name, mustJSON(t, req)})
	}

	// A matrix big enough to tile, and requests naming it.
	m := ToWire(tensor.UniformRandom("M", rand.New(rand.NewSource(4)), 400, 40, 40))
	put, _ := http.NewRequest(http.MethodPut, router.URL+"/v1/tensors/M", bytes.NewReader(mustJSON(t, m)))
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	var info TensorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || len(info.Tiles) != 2 {
		t.Fatalf("tiled PUT: status %d, tiles %v, err %v", resp.StatusCode, info.Tiles, err)
	}
	resp.Body.Close()
	c := `{"dims":[40],"coords":[[0],[7]],"values":[1,2]}`
	tiled := `{"expr":"x(i) = M(i,j) * c(j)","inputs":{"M":{"ref":"M"},"c":` + c + `}}`
	if resp, body := postRaw(t, router.URL+"/v1/evaluate", []byte(tiled)); resp.StatusCode != http.StatusOK {
		t.Fatalf("tiled evaluate: status %d: %s", resp.StatusCode, body)
	}
	rows = append(rows,
		row{"unknown field with a tiled ref", []byte(`{"expr":"x(i) = M(i,j) * c(j)","bogus":1,"inputs":{"M":{"ref":"M"},"c":` + c + `}}`)},
		row{"unknown input field with a tiled ref", []byte(`{"expr":"x(i) = M(i,j) * c(j)","inputs":{"M":{"ref":"M","reff":"M"},"c":` + c + `}}`)},
		row{"unknown schedule field with a tiled ref", []byte(`{"expr":"x(i) = M(i,j) * c(j)","schedule":{"parr":2},"inputs":{"M":{"ref":"M"},"c":` + c + `}}`)},
	)

	for _, r := range rows {
		for _, path := range []string{"/v1/evaluate", "/v1/jobs"} {
			direct, want := postRaw(t, u1+path, r.body)
			routed, got := postRaw(t, router.URL+path, r.body)
			if direct.StatusCode < 400 {
				t.Errorf("%s on %s: the shard accepted it (%d); the row proves nothing", r.name, path, direct.StatusCode)
			}
			if routed.StatusCode != direct.StatusCode || !bytes.Equal(got, want) {
				t.Errorf("%s on %s: routed %d %q, direct %d %q", r.name, path, routed.StatusCode, got, direct.StatusCode, want)
			}
		}
	}
}

// TestRouterEjectionAndRecovery kills one shard of two and requires the
// router to (1) answer its keys' first post-death request with 503 and a
// Retry-After hint while ejecting the shard, (2) remap those keys to the
// survivor so the very next request succeeds, and (3) re-admit the shard
// once it is back and passing probes.
func TestRouterEjectionAndRecovery(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	// FailAfter is out of the probe loop's reach on purpose: only the proven
	// transport failure of step (1) may eject, so a probe tick landing
	// between the kill and the request cannot remap the key first and turn
	// the 503 into a 200. Probe-driven ejection is TestRouterProbeEjection.
	rt, router := startRouter(t, RouterConfig{
		Shards:        []string{u1, u2},
		ProbeInterval: 20 * time.Millisecond,
		FailAfter:     1 << 30,
		RetryAfter:    20 * time.Millisecond,
	})

	// A request whose key the second shard owns, so its death is observable
	// through the router.
	req := requestOwnedBy(t, rt, u2)
	if resp, body := postJSON(t, router.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-death evaluate: status %d: %s", resp.StatusCode, body)
	}

	stop2()
	resp, _ := postJSON(t, router.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first post-death request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carried no Retry-After hint")
	}
	// The failure ejected the shard; the same key now lands on the survivor.
	if resp, body := postJSON(t, router.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ejection retry: status %d: %s (keyspace did not remap)", resp.StatusCode, body)
	}
	st := rt.Stats()
	if st.ShardsLive != 1 || st.RouterEjections < 1 {
		t.Fatalf("after death: live=%d ejections=%d, want 1 and >=1", st.ShardsLive, st.RouterEjections)
	}

	// The router stays ready (degraded) with one live shard.
	var pr ProbeResponse
	if code := getJSON(t, router.URL+"/readyz", &pr); code != http.StatusOK {
		t.Fatalf("degraded readyz: status %d", code)
	}

	// Resurrect the shard on its old address; the probe loop re-admits it.
	addr := strings.TrimPrefix(u2, "http://")
	var stop2b func()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The OS may briefly hold the port; retry the bind.
		s := NewServer(Config{Workers: 2})
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			hs := &http.Server{Handler: s}
			go hs.Serve(ln)
			stop2b = func() { hs.Close(); s.Close() }
			break
		}
		s.Close()
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer stop2b()
	for {
		if st := rt.Stats(); st.ShardsLive == 2 && st.RouterRejoins >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never rejoined: %+v", rt.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp, body := postJSON(t, router.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery evaluate: status %d: %s", resp.StatusCode, body)
	}
}

// TestRouterRelayCutMidResponse covers the one failure a streamed relay
// cannot turn into a 503: the shard dies with its response under way. The
// client must see a broken transfer — never a well-formed short body — and
// the shard must be ejected like on any other transport failure.
func TestRouterRelayCutMidResponse(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				writeJSON(w, http.StatusOK, ProbeResponse{Status: "ready"})
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if !chunked {
				w.Header().Set("Content-Length", "4096")
			}
			w.Write([]byte(`{"cycles":1,"output":{"values":[`))
			w.(http.Flusher).Flush()
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
		}))
		rt, router := startRouter(t, RouterConfig{Shards: []string{dying.URL}, FailAfter: 1 << 30})
		resp, err := http.Post(router.URL+"/v1/evaluate", "application/json", strings.NewReader(`{"expr":"x(i) = b(i)","inputs":{}}`))
		if err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				t.Errorf("chunked=%v: client read a complete response (%d, %q) from a shard that died mid-body", chunked, resp.StatusCode, body)
			}
		}
		if st := rt.Stats(); st.RouterEjections != 1 || st.RouterProxyErrors != 1 {
			t.Errorf("chunked=%v: ejections=%d proxy errors=%d, want 1 and 1", chunked, st.RouterEjections, st.RouterProxyErrors)
		}
		dying.Close()
	}
}

// TestRouterProbeEjection kills a shard and sends nothing: the probe loop
// alone must eject it after FailAfter failed probes, so the first request
// for one of its keys already lands on the survivor — no client ever sees
// the 503 of the proxy-failure path.
func TestRouterProbeEjection(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	rt, router := startRouter(t, RouterConfig{
		Shards:        []string{u1, u2},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     2,
		RetryAfter:    time.Minute, // no re-probe, no rejoin, inside this test
	})
	req := requestOwnedBy(t, rt, u2)

	// Watch the counters directly: Stats scrapes every live shard, and a
	// scrape failing in transport would eject the dead one before the probes.
	stop2()
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.live()) != 1 || rt.sum(rt.mEjections) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("probes never ejected the dead shard: %+v", rt.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := rt.sum(rt.mProxyErrs); n != 0 {
		t.Fatalf("%d proxy errors with no request sent: something other than the probes ejected the shard", n)
	}
	if resp, body := postJSON(t, router.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after probe ejection: status %d: %s (keyspace did not remap)", resp.StatusCode, body)
	}
	if st := rt.Stats(); st.RouterEjections != 1 {
		t.Errorf("ejections = %d after a remapped request, want still 1", st.RouterEjections)
	}
}

// TestRouterOneShardLatencyMatchesShard holds a shard's own p50 and p99 to
// the router's fleet-wide ones over a fleet of that one shard: both come
// from the job-latency histogram through one estimator, so they agree
// exactly.
func TestRouterOneShardLatencyMatchesShard(t *testing.T) {
	u, stop := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop()
	_, router := startRouter(t, RouterConfig{Shards: []string{u}})
	for seed := int64(1); seed <= 10; seed++ {
		req, _ := spmvRequest(seed, int(seed%3)+1, "")
		if resp, body := postJSON(t, router.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", seed, resp.StatusCode, body)
		}
	}
	var st RouterStatsResponse
	if code := getJSON(t, router.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(st.Shards) != 1 || st.Shards[0].Stats == nil {
		t.Fatalf("want one scraped shard, got %+v", st.Shards)
	}
	own, agg := st.Shards[0].Stats, st.Aggregate
	if own.LatencyHist == nil || own.LatencyHist.Count != 10 {
		t.Fatalf("shard latency histogram %+v, want 10 observations", own.LatencyHist)
	}
	if agg.LatencyP50MS != own.LatencyP50MS || agg.LatencyP99MS != own.LatencyP99MS {
		t.Errorf("router p50/p99 %v/%v ms, shard's own %v/%v ms", agg.LatencyP50MS, agg.LatencyP99MS, own.LatencyP50MS, own.LatencyP99MS)
	}
	if own.LatencyP50MS <= 0 || own.LatencyP99MS < own.LatencyP50MS {
		t.Errorf("shard p50/p99 %v/%v ms", own.LatencyP50MS, own.LatencyP99MS)
	}
}

// TestRouterStatsAggregation spreads load over two shards and checks the
// fleet view: aggregate counters are sums, the merged latency histogram
// counts every request, and the exposition relabels shard families.
func TestRouterStatsAggregation(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop2()
	rt, router := startRouter(t, RouterConfig{Shards: []string{u1, u2}})

	// One program key per shard, alternated: tensor data does not enter the
	// routing key, so varying only the seed would load a single shard.
	const n = 12
	reqs := []*EvaluateRequest{requestOwnedBy(t, rt, u1), requestOwnedBy(t, rt, u2)}
	for i := 0; i < n; i++ {
		if resp, body := postJSON(t, router.URL+"/v1/evaluate", reqs[i%2]); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	var st RouterStatsResponse
	if code := getJSON(t, router.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.ShardsLive != 2 || st.ShardsTotal != 2 {
		t.Fatalf("live=%d total=%d, want 2/2", st.ShardsLive, st.ShardsTotal)
	}
	if st.Aggregate.Requests != n {
		t.Errorf("aggregate requests %d, want %d", st.Aggregate.Requests, n)
	}
	var perShard int64
	for _, row := range st.Shards {
		if row.Stats == nil || row.Stats.Requests != n/2 {
			t.Errorf("shard %s stats %+v, want %d requests", row.Shard, row.Stats, n/2)
			continue
		}
		perShard += row.Stats.Requests
	}
	if perShard != st.Aggregate.Requests {
		t.Errorf("per-shard requests sum %d != aggregate %d", perShard, st.Aggregate.Requests)
	}
	if st.Aggregate.LatencyHist == nil || st.Aggregate.LatencyHist.Count != n {
		t.Errorf("merged latency histogram missing or wrong count: %+v", st.Aggregate.LatencyHist)
	}
	if st.Aggregate.LatencyP99MS < st.Aggregate.LatencyP50MS {
		t.Errorf("aggregate p99 %v < p50 %v", st.Aggregate.LatencyP99MS, st.Aggregate.LatencyP50MS)
	}
	if st.RouterRequests < n {
		t.Errorf("router_requests %d, want >= %d", st.RouterRequests, n)
	}

	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`shard="s0"`, `shard="s1"`,
		"sam_router_requests_total", "sam_router_shards_live",
		`sam_jobs_admitted_total{shard="s0"}`,
		`sam_jobs_admitted_total{shard="s1"}`,
		`sam_http_requests_total{shard="s0",`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
	if n := strings.Count(text, "# TYPE sam_jobs_admitted_total "); n != 1 {
		t.Errorf("family header appears %d times in merged exposition, want 1", n)
	}
}

// TestRouterTiledTensors exercises the large-operand path end to end:
// an over-threshold PUT splits into per-shard tiles, GET reassembles the
// identical tensor, a multiplicative evaluate over the tiled name matches
// the single-node answer, a fixpoint iterates at the router to the same
// state, and the algebraic guard rejects additive expressions.
func TestRouterTiledTensors(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop2()
	rt, router := startRouter(t, RouterConfig{Shards: []string{u1, u2}, TileThresholdBytes: 1024})
	single := httptest.NewServer(NewServer(Config{Workers: 2}))
	defer single.Close()

	rng := rand.New(rand.NewSource(3))
	b := tensor.UniformRandom("B", rng, 400, 40, 40)
	c := tensor.UniformRandom("c", rng, 20, 40)
	putTensor := func(t *testing.T, base, name string, wt WireTensor) TensorInfo {
		t.Helper()
		buf, _ := json.Marshal(wt)
		req, _ := http.NewRequest(http.MethodPut, base+"/v1/tensors/"+name, strings.NewReader(string(buf)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info TensorInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
		}
		return info
	}

	info := putTensor(t, router.URL, "B", ToWire(b))
	if len(info.Tiles) != 2 {
		t.Fatalf("tiled PUT produced %d tiles, want 2 (one per shard): %+v", len(info.Tiles), info)
	}
	putTensor(t, single.URL, "B", ToWire(b))

	// Reassembled data round-trips exactly.
	var got TensorInfo
	if code := getJSON(t, router.URL+"/v1/tensors/B?data=1", &got); code != http.StatusOK {
		t.Fatalf("tiled GET: status %d", code)
	}
	back, err := got.Data.toCOO("B")
	if err != nil {
		t.Fatal(err)
	}
	b.Sort()
	if err := tensor.Equal(back, b, 0); err != nil {
		t.Fatalf("tiled round-trip differs: %v", err)
	}

	// Multiplicative evaluate over the tiled ref matches single-node.
	req := &EvaluateRequest{
		Expr:   "x(i) = B(i,j) * c(j)",
		Inputs: map[string]WireTensor{"B": {Ref: "B"}, "c": ToWire(c)},
	}
	resp1, body1 := postJSON(t, single.URL+"/v1/evaluate", req)
	resp2, body2 := postJSON(t, router.URL+"/v1/evaluate", req)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: single %d %s router %d %s", resp1.StatusCode, body1, resp2.StatusCode, body2)
	}
	var e1, e2 EvaluateResponse
	if err := json.Unmarshal(body1, &e1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &e2); err != nil {
		t.Fatal(err)
	}
	o1, err := e1.Output.toCOO("x")
	if err != nil {
		t.Fatal(err)
	}
	o2, err := e2.Output.toCOO("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := tensor.Equal(o2, o1, 1e-9); err != nil {
		t.Fatalf("tiled fan-out output differs from single-node: %v", err)
	}
	if e2.Tensors["B"].Fingerprint != info.Fingerprint {
		t.Errorf("tiled response stamps fingerprint %q, want %q", e2.Tensors["B"].Fingerprint, info.Fingerprint)
	}

	// Fixpoint iterates at the router and agrees with the single node.
	x0 := tensor.NewCOO("x", 40)
	for i := 0; i < 40; i++ {
		x0.Append(1, int64(i))
	}
	fixReq := &EvaluateRequest{
		Expr:     "y(i) = B(i,j) * x(j)",
		Inputs:   map[string]WireTensor{"B": {Ref: "B"}, "x": ToWire(x0)},
		Fixpoint: &WireFixpoint{Var: "x", MaxIters: 5, Mode: "power"},
	}
	resp1, body1 = postJSON(t, single.URL+"/v1/evaluate", fixReq)
	resp2, body2 = postJSON(t, router.URL+"/v1/evaluate", fixReq)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("fixpoint: single %d %s router %d %s", resp1.StatusCode, body1, resp2.StatusCode, body2)
	}
	var f1, f2 EvaluateResponse
	if err := json.Unmarshal(body1, &f1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &f2); err != nil {
		t.Fatal(err)
	}
	if f2.Fixpoint == nil || f1.Fixpoint == nil || f2.Fixpoint.Iterations != f1.Fixpoint.Iterations {
		t.Fatalf("fixpoint info differs: %+v vs %+v", f1.Fixpoint, f2.Fixpoint)
	}
	s1, err := f1.Output.toCOO("x")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f2.Output.toCOO("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := tensor.Equal(s2, s1, 1e-9); err != nil {
		t.Fatalf("router-driven fixpoint state differs from single-node: %v", err)
	}

	// The algebraic guard: additive use of the tiled operand is rejected,
	// not silently miscomputed.
	addReq := &EvaluateRequest{
		Expr:   "X(i,j) = B(i,j) + C(i,j)",
		Inputs: map[string]WireTensor{"B": {Ref: "B"}, "C": ToWire(b)},
	}
	if resp, body := postJSON(t, router.URL+"/v1/evaluate", addReq); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("additive tiled evaluate: status %d (%s), want 400", resp.StatusCode, body)
	}
	// So is a reserved name and an async tiled job.
	buf, _ := json.Marshal(ToWire(c))
	putReq, _ := http.NewRequest(http.MethodPut, router.URL+"/v1/tensors/evil@tile0", strings.NewReader(string(buf)))
	if resp, err := http.DefaultClient.Do(putReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("reserved tile name PUT: status %d, want 400", resp.StatusCode)
		}
	}
	if resp, body := postJSON(t, router.URL+"/v1/jobs", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async tiled job: status %d (%s), want 400", resp.StatusCode, body)
	}

	// Stats surface the tiled registry; DELETE fans out and clears it.
	if st := rt.Stats(); st.RouterTiledTensors != 1 || st.RouterTileFanouts < 2 {
		t.Errorf("tiled stats: tensors=%d fanouts=%d, want 1 and >=2", st.RouterTiledTensors, st.RouterTileFanouts)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, router.URL+"/v1/tensors/B", nil)
	if resp, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("tiled DELETE: status %d", resp.StatusCode)
		}
	}
	var er ErrorResponse
	if code := getJSON(t, router.URL+"/v1/tensors/B", &er); code != http.StatusNotFound {
		t.Errorf("deleted tiled tensor GET: status %d, want 404", code)
	}
}

// TestRouterProbeEndpoints checks the router's own probes and the warm-up
// readiness gate on a shard.
func TestRouterProbeEndpoints(t *testing.T) {
	s := NewServer(Config{Workers: 1, WarmupExprs: []string{"x(i) = B(i,j) * c(j)"}})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pr ProbeResponse
		code := getJSON(t, ts.URL+"/readyz", &pr)
		if code == http.StatusOK {
			if pr.Status != "ready" {
				t.Fatalf("readyz 200 with status %q", pr.Status)
			}
			break
		}
		if pr.Status != "warming" {
			t.Fatalf("readyz %d with status %q, want warming", code, pr.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var hr ProbeResponse
	if code := getJSON(t, ts.URL+"/healthz", &hr); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz: %d %q", code, hr.Status)
	}
}
