package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sam/internal/tensor"
)

// putWire PUTs a tensor and returns the status and body, whatever they are.
func putWire(t *testing.T, base, name string, wt WireTensor) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(wt)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/tensors/"+name, bytes.NewReader(buf))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// errorShape requires body to be exactly the API's error object — one
// non-empty "error" string, nothing else — and returns the message.
func errorShape(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := decodeStrict(bytes.NewReader(body), &er); err != nil || er.Error == "" {
		t.Fatalf("body %q is not the {\"error\": ...} shape: %v", body, err)
	}
	return er.Error
}

// TestRouterTilePutRefusedByShard pins the tile-PUT bugfix: a shard that
// answers a tile with a 4xx — here a healthy shard's 413 for a tile over its
// tensor budget — has answered, not failed. The router rolls back the tiles
// it had stored, relays the shard's status and body, counts no proxy error
// and ejects nothing. (It used to eject the shard and answer 503.)
func TestRouterTilePutRefusedByShard(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{TensorBudgetBytes: 1024})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{TensorBudgetBytes: 1024})
	defer stop2()
	rt, router := startRouter(t, RouterConfig{Shards: []string{u1, u2}, TileThresholdBytes: 512, FailAfter: 1 << 30})

	// Two row blocks of 20 rows: the first holds 2 points (192 bytes by the
	// store's estimate, within budget), the second 50 (2,880, over it). So
	// tile 0 is stored before tile 1 is refused, and must be rolled back.
	m := tensor.NewCOO("B", 40, 40)
	m.Append(1, 0, 0)
	m.Append(1, 1, 1)
	for k := int64(0); k < 50; k++ {
		m.Append(float64(k+1), 20+k/3, k%3)
	}
	status, body := putWire(t, router.URL, "B", ToWire(m))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("tiled PUT with an over-budget tile: status %d (%s), want the shard's 413", status, body)
	}
	if msg := errorShape(t, body); !strings.Contains(msg, `"B@tile1"`) || !strings.Contains(msg, "store budget is 1024") {
		t.Errorf("413 body %q is not the refusing shard's own message", msg)
	}
	st := rt.Stats()
	if st.ShardsLive != 2 || st.RouterEjections != 0 || st.RouterProxyErrors != 0 {
		t.Errorf("after a refused tile: live=%d ejections=%d proxy errors=%d, want 2, 0, 0", st.ShardsLive, st.RouterEjections, st.RouterProxyErrors)
	}
	if st.RouterTiledTensors != 0 || st.Aggregate.TensorsStored != 0 {
		t.Errorf("after rollback: %d tiled records, %d tensors on the shards, want none", st.RouterTiledTensors, st.Aggregate.TensorsStored)
	}
	for _, u := range []string{u1, u2} {
		var er ErrorResponse
		if code := getJSON(t, u+"/v1/tensors/B@tile0", &er); code != http.StatusNotFound {
			t.Errorf("shard %s still answers %d for B@tile0 after rollback", u, code)
		}
	}
}

// TestRouterTiledRefFetch pins what happens when a tiled evaluate has to
// inline a plain {"ref"} operand from its ring owner and cannot: the shard's
// 404 is relayed status and body verbatim, and a transport failure is what it
// is everywhere else — 503 with Retry-After, the shard ejected. (Every
// failure used to be reported as 404 no stored tensor.)
func TestRouterTiledRefFetch(t *testing.T) {
	u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop1()
	u2, stop2 := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop2()
	rt, router := startRouter(t, RouterConfig{Shards: []string{u1, u2}, TileThresholdBytes: 1024, FailAfter: 1 << 30})

	rng := rand.New(rand.NewSource(7))
	if status, body := putWire(t, router.URL, "B", ToWire(tensor.UniformRandom("B", rng, 400, 40, 40))); status != http.StatusOK {
		t.Fatalf("tiled PUT: %d %s", status, body)
	}
	// A small (plain) vector whose ring owner is the shard about to die.
	var ref string
	for i := 0; ref == "" && i < 200; i++ {
		if name := fmt.Sprintf("c%d", i); rt.route(name).url == u2 {
			ref = name
		}
	}
	if ref == "" {
		t.Fatal("no tensor name of 200 routed to the second shard")
	}
	if status, body := putWire(t, router.URL, ref, ToWire(tensor.UniformRandom("c", rng, 20, 40))); status != http.StatusOK {
		t.Fatalf("plain PUT: %d %s", status, body)
	}
	eval := func(ref string) (*http.Response, []byte) {
		return postJSON(t, router.URL+"/v1/evaluate", &EvaluateRequest{
			Expr:   "x(i) = B(i,j) * c(j)",
			Inputs: map[string]WireTensor{"B": {Ref: "B"}, "c": {Ref: ref}},
		})
	}
	resp, body := eval(ref)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tiled evaluate with an inlined ref: %d %s", resp.StatusCode, body)
	}
	// Stamps are keyed by input name, as a shard keys them, whatever stored
	// tensor the input names.
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if _, byRef := er.Tensors[ref]; byRef || len(er.Tensors) != 2 || er.Tensors["B"].Fingerprint == "" || er.Tensors["c"].Fingerprint == "" {
		t.Errorf("stamps %+v, want one each under the input names B and c (c names stored tensor %q)", er.Tensors, ref)
	}

	// The shard's 404, byte for byte.
	var want bytes.Buffer
	resp, err := http.Get(rt.route("absent").url + "/v1/tensors/absent?data=1")
	if err != nil {
		t.Fatal(err)
	}
	want.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp, body := eval("absent"); resp.StatusCode != http.StatusNotFound || !bytes.Equal(body, want.Bytes()) {
		t.Errorf("unknown ref: %d %q, want the shard's 404 %q", resp.StatusCode, body, want.Bytes())
	}
	if st := rt.Stats(); st.RouterEjections != 0 || st.RouterProxyErrors != 0 {
		t.Errorf("a shard's 404 counted as a failure: ejections=%d proxy errors=%d", st.RouterEjections, st.RouterProxyErrors)
	}

	// The owner dies: the fetch fails in transport.
	stop2()
	resp, body = eval(ref)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ref owner dead: %d (Retry-After %q) %s, want 503 with the hint", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	errorShape(t, body)
	if st := rt.Stats(); st.RouterEjections != 1 || st.ShardsLive != 1 {
		t.Errorf("after the failed fetch: ejections=%d live=%d, want 1 and 1", st.RouterEjections, st.ShardsLive)
	}
}

// dyingShard is a real shard behind a front that can kill it mid-answer: the
// cutAt-th POST /v1/evaluate it sees (counting from 1; 0 means never) gets the
// start of a response and then a closed connection: the cut of
// TestRouterRelayCutMidResponse, on a shard that stored its tiles honestly.
type dyingShard struct {
	*httptest.Server
	evals, cutAt atomic.Int64
}

func startDyingShard(t *testing.T) *dyingShard {
	t.Helper()
	s := NewServer(Config{Workers: 2})
	d := &dyingShard{}
	d.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/evaluate" || d.evals.Add(1) != d.cutAt.Load() {
			s.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cycles":1,"output":{"values":[`))
		w.(http.Flusher).Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(func() {
		d.Close()
		s.Close()
	})
	return d
}

// TestRouterShardDiesMidTiledEvaluate injects the two faults the tiled path
// can meet once sub-requests are out: a shard dying mid-fan-out, and a shard
// dying at iteration 3 of a 5-iteration router-driven fixpoint. Either way
// the client gets 503 + Retry-After in the API's error shape, the shard is
// ejected exactly once, and no goroutine outlives the response.
func TestRouterShardDiesMidTiledEvaluate(t *testing.T) {
	x0 := tensor.NewCOO("x", 40)
	for i := int64(0); i < 40; i++ {
		x0.Append(1, i)
	}
	for _, tc := range []struct {
		name  string
		cutAt int64 // which of the dying shard's evaluations from here on is cut
		fix   *WireFixpoint
	}{
		{"fan-out", 1, nil},
		{"fixpoint iteration 3 of 5", 3, &WireFixpoint{Var: "x", MaxIters: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
			defer stop1()
			dying := startDyingShard(t)
			transport := &http.Transport{}
			rt, router := startRouter(t, RouterConfig{
				Shards: []string{u1, dying.URL}, TileThresholdBytes: 1024, FailAfter: 1 << 30,
				Client: &http.Client{Transport: transport},
			})
			rng := rand.New(rand.NewSource(11))
			if status, body := putWire(t, router.URL, "B", ToWire(tensor.UniformRandom("B", rng, 400, 40, 40))); status != http.StatusOK {
				t.Fatalf("tiled PUT: %d %s", status, body)
			}
			req := &EvaluateRequest{
				Expr:     "y(i) = B(i,j) * x(j)",
				Inputs:   map[string]WireTensor{"B": {Ref: "B"}, "x": ToWire(x0)},
				Fixpoint: tc.fix,
			}
			if resp, body := postJSON(t, router.URL+"/v1/evaluate", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy run: %d %s", resp.StatusCode, body)
			}
			// Idle keep-alive connections each hold goroutines on both ends;
			// close them before counting, and give them a moment to unwind.
			goroutines := func() int {
				transport.CloseIdleConnections()
				http.DefaultTransport.(*http.Transport).CloseIdleConnections()
				time.Sleep(20 * time.Millisecond)
				return runtime.NumGoroutine()
			}
			baseline := goroutines()
			fansBefore := rt.Stats().RouterTileFanouts

			dying.cutAt.Store(dying.evals.Load() + tc.cutAt)
			resp, body := postJSON(t, router.URL+"/v1/evaluate", req)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("shard died mid-request: %d (Retry-After %q) %s, want 503 with the hint", resp.StatusCode, resp.Header.Get("Retry-After"), body)
			}
			errorShape(t, body)
			st := rt.Stats()
			if st.RouterEjections != 1 || st.RouterProxyErrors != 1 || st.ShardsLive != 1 {
				t.Errorf("ejections=%d proxy errors=%d live=%d, want 1, 1, 1", st.RouterEjections, st.RouterProxyErrors, st.ShardsLive)
			}
			if got := st.RouterTileFanouts - fansBefore; got != tc.cutAt {
				t.Errorf("%d fan-outs went out before the failure, want %d", got, tc.cutAt)
			}
			for deadline := time.Now().Add(5 * time.Second); ; {
				n := goroutines()
				if n <= baseline {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("%d goroutines after the 503, %d before the fault", n, baseline)
					break
				}
			}

			// With the tile's shard ejected the next fan-out is refused before
			// anything is sent or counted.
			resp, body = postJSON(t, router.URL+"/v1/evaluate", req)
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(errorShape(t, body), "tiles are not replicated") {
				t.Errorf("evaluate over an ejected tile: %d %s", resp.StatusCode, body)
			}
			if after := rt.Stats(); after.RouterTileFanouts != st.RouterTileFanouts || after.Aggregate.Requests != st.Aggregate.Requests {
				t.Errorf("a refused fan-out still sent: fan-outs %d → %d, jobs on the live shard %d → %d",
					st.RouterTileFanouts, after.RouterTileFanouts, st.Aggregate.Requests, after.Aggregate.Requests)
			}
		})
	}
}

// TestRouterScrapeHungShard injects the fault a scrape can meet and a probe
// cannot see: a shard that answers /readyz but takes the connection for
// /v1/stats or /metrics and never answers. The router's own endpoint gives
// that shard ProbeTimeout, ejects it as the transport failure it is, and
// answers with what the rest of the fleet said.
func TestRouterScrapeHungShard(t *testing.T) {
	for path, liveShare := range map[string]string{
		"/v1/stats": `"live":true,"stats":{`,
		"/metrics":  `sam_queue_depth{shard="s0"}`,
	} {
		t.Run(path, func(t *testing.T) {
			u1, stop1 := startShardOn(t, "127.0.0.1:0", Config{})
			defer stop1()
			release := make(chan struct{})
			s := NewServer(Config{Workers: 2})
			hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == path {
					select {
					case <-release:
					case <-r.Context().Done():
					}
					return
				}
				s.ServeHTTP(w, r)
			}))
			defer func() {
				close(release)
				hung.Close()
				s.Close()
			}()
			rt, router := startRouter(t, RouterConfig{
				Shards: []string{u1, hung.URL}, ProbeTimeout: 100 * time.Millisecond, RetryAfter: time.Hour,
			})

			resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(router.URL + path)
			if err != nil {
				t.Fatalf("GET %s behind a hung shard: %v", path, err)
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s behind a hung shard: status %d: %s", path, resp.StatusCode, body.String())
			}
			if !strings.Contains(body.String(), liveShare) {
				t.Errorf("the live shard's share is missing from the answer: %s", body.String())
			}
			if path == "/v1/stats" && !strings.Contains(body.String(), `"shards_live":1,`) {
				t.Errorf("the answer still counts the shard its own scrape ejected as live: %s", body.String())
			}
			if live, ejected, errs := len(rt.live()), rt.sum(rt.mEjections), rt.sum(rt.mProxyErrs); live != 1 || ejected != 1 || errs != 1 {
				t.Errorf("after the timed-out scrape: live=%d ejections=%d proxy errors=%d, want 1, 1, 1", live, ejected, errs)
			}
		})
	}
}

// TestCacheRankUnknownIsWorst: a tier the router has never heard of must not
// pass for a hit in a fan-out's aggregate.
func TestCacheRankUnknownIsWorst(t *testing.T) {
	for _, known := range []string{"hit", "disk", "miss"} {
		if cacheRank["warp"] <= cacheRank[known] || cacheRank[""] <= cacheRank[known] {
			t.Errorf("an unknown tier ranks %d, %q ranks %d: want unknown worst", cacheRank["warp"], known, cacheRank[known])
		}
	}
	if !(cacheRank["hit"] < cacheRank["disk"] && cacheRank["disk"] < cacheRank["miss"]) {
		t.Errorf("known tiers out of order: %v", cacheRank)
	}
}
