package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"sam/internal/serve"
	"sam/internal/tensor"
)

// ServeCachePoint is one kernel's cold-vs-warm program-cache measurement:
// the server-reported setup time (parse + compile + program build on a
// miss; parse + cache lookup on a hit) for the first request against the
// fastest of the warm repeats.
type ServeCachePoint struct {
	Kernel       string  `json:"kernel"`
	ColdSetupNS  int64   `json:"cold_setup_ns"`
	WarmSetupNS  int64   `json:"warm_setup_ns"`
	SetupSpeedup float64 `json:"setup_speedup"`
	ColdTotalNS  int64   `json:"cold_total_ns"`
	WarmTotalNS  int64   `json:"warm_total_ns"`
	Cycles       int     `json:"cycles"`
}

// ServeScalePoint is one worker-count throughput measurement over the mixed
// workload with a warm cache. Latency percentiles are measured client-side
// over the timed requests only (warmup excluded).
type ServeScalePoint struct {
	Workers       int     `json:"workers"`
	Requests      int     `json:"requests"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	SpeedupVs1    float64 `json:"speedup_vs_1"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	CacheHits     int64   `json:"cache_hits"`
	Rejected      int64   `json:"rejected"`
}

// ServeResult bundles both halves of the serving study for BENCH_PR3.json.
// CPUs records the host parallelism the scaling numbers were measured
// under: simulation is CPU-bound, so worker counts beyond the core count
// cannot raise throughput (on a single-core host the scaling curve is
// correctly flat).
type ServeResult struct {
	CPUs    int               `json:"cpus"`
	Cache   []ServeCachePoint `json:"cache"`
	Scaling []ServeScalePoint `json:"scaling"`
}

// DefaultServeWorkers is the worker sweep of the scaling study.
var DefaultServeWorkers = []int{1, 2, 4, 8}

// serveWorkload builds the mixed request set: SpMV, SpM*SpM, and SDDMM
// across storage formats and Par lanes, all over shared synthetic inputs.
func serveWorkload(seed int64, scale float64) []struct {
	name string
	req  *serve.EvaluateRequest
} {
	ij := int(160 * scale)
	kk := int(64 * scale)
	if ij < 16 {
		ij = 16
	}
	if kk < 8 {
		kk = 8
	}
	rng := rand.New(rand.NewSource(seed))
	b := serve.ToWire(sparseUniform("B", rng, ij, kk, 0.05))
	c := serve.ToWire(tensor.UniformRandom("c", rng, kk/2+1, kk))
	cc := serve.ToWire(sparseUniform("C", rng, kk, ij, 0.05))
	bb := serve.ToWire(sparseUniform("B2", rng, ij, ij, 0.03))
	cc2 := serve.ToWire(sparseUniform("C2", rng, ij, ij, 0.03))
	dk := serve.ToWire(sparseUniform("Dk", rng, ij, kk, 0.1))
	ek := serve.ToWire(sparseUniform("Ek", rng, ij, kk, 0.1))

	spmv := map[string]serve.WireTensor{"B": b, "c": c}
	spmspm := map[string]serve.WireTensor{"B": b, "C": cc}
	return []struct {
		name string
		req  *serve.EvaluateRequest
	}{
		{"SpMV", &serve.EvaluateRequest{
			Expr: "x(i) = B(i,j) * c(j)", Inputs: spmv}},
		{"SpMV/csr", &serve.EvaluateRequest{
			Expr: "x(i) = B(i,j) * c(j)", Inputs: spmv,
			Formats: map[string]serve.WireFormat{"B": {Levels: []string{"dense", "compressed"}}}}},
		{"SpMV/par4", &serve.EvaluateRequest{
			Expr: "x(i) = B(i,j) * c(j)", Inputs: spmv,
			Schedule: &serve.WireSchedule{Par: 4}}},
		{"SpM*SpM", &serve.EvaluateRequest{
			Expr: "X(i,j) = B(i,k) * C(k,j)", Inputs: spmspm}},
		{"SpM*SpM/par4", &serve.EvaluateRequest{
			Expr: "X(i,j) = B(i,k) * C(k,j)", Inputs: spmspm,
			Schedule: &serve.WireSchedule{Par: 4}}},
		{"SpMAdd", &serve.EvaluateRequest{
			Expr:   "X(i,j) = B(i,j) + C(i,j)",
			Inputs: map[string]serve.WireTensor{"B": bb, "C": cc2}}},
		{"SDDMM", &serve.EvaluateRequest{
			Expr:   "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
			Inputs: map[string]serve.WireTensor{"B": bb, "C": dk, "D": ek}}},
	}
}

// post sends one evaluation and decodes the reply.
func post(client *http.Client, url string, req *serve.EvaluateRequest) (*serve.EvaluateResponse, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/evaluate", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	var er serve.EvaluateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return nil, err
	}
	return &er, nil
}

// ServeStudy drives a live samserve instance (over real HTTP) with the
// mixed workload and measures (1) cold-vs-warm compiled-program-cache setup
// per kernel and (2) throughput scaling with the worker-pool size on a warm
// cache. Every response is produced by the service itself; nothing is
// simulated out-of-band.
func ServeStudy(seed int64, scale float64, workers []int) (*ServeResult, error) {
	if len(workers) == 0 {
		workers = DefaultServeWorkers
	}
	workload := serveWorkload(seed, scale)
	out := &ServeResult{CPUs: runtime.NumCPU()}
	client := &http.Client{}

	// Phase 1: cold vs warm setup, fresh server so every kernel's first
	// request is a genuine miss.
	cachePhase := func() error {
		ts, stop := startServer(serve.Config{Workers: 2, QueueDepth: 64})
		defer stop()
		const warmReps = 8
		for _, w := range workload {
			cold, err := post(client, ts.URL, w.req)
			if err != nil {
				return fmt.Errorf("serve %s (cold): %w", w.name, err)
			}
			if cold.Cache != "miss" {
				return fmt.Errorf("serve %s: first request was a cache %s", w.name, cold.Cache)
			}
			pt := ServeCachePoint{
				Kernel: w.name, ColdSetupNS: cold.SetupNS,
				ColdTotalNS: cold.ElapsedNS, Cycles: cold.Cycles,
			}
			for rep := 0; rep < warmReps; rep++ {
				warm, err := post(client, ts.URL, w.req)
				if err != nil {
					return fmt.Errorf("serve %s (warm %d): %w", w.name, rep, err)
				}
				if warm.Cache != "hit" {
					return fmt.Errorf("serve %s: warm request was a cache %s", w.name, warm.Cache)
				}
				if pt.WarmSetupNS == 0 || warm.SetupNS < pt.WarmSetupNS {
					pt.WarmSetupNS = warm.SetupNS
					pt.WarmTotalNS = warm.ElapsedNS
				}
			}
			if pt.WarmSetupNS > 0 {
				pt.SetupSpeedup = float64(pt.ColdSetupNS) / float64(pt.WarmSetupNS)
			}
			out.Cache = append(out.Cache, pt)
		}
		return nil
	}
	if err := cachePhase(); err != nil {
		return nil, err
	}

	// Phase 2: throughput vs worker count on a warm cache. Client
	// concurrency is kept ahead of the pool so workers stay saturated; the
	// queue is deep enough that admission control never rejects, so the
	// numbers measure simulation throughput, not backpressure.
	requests := 6 * len(workload)
	scalePoint := func(w int) (ServeScalePoint, error) {
		s := serve.NewServer(serve.Config{Workers: w, QueueDepth: 4 * requests})
		ts := httptest.NewServer(s)
		defer s.Close()
		defer ts.Close()
		// Warm the cache outside the timed window.
		for _, wl := range workload {
			if _, err := post(client, ts.URL, wl.req); err != nil {
				return ServeScalePoint{}, fmt.Errorf("serve warmup (workers=%d) %s: %w", w, wl.name, err)
			}
		}
		clients := 2 * w
		if clients > 16 {
			clients = 16
		}
		var wg sync.WaitGroup
		errs := make([]error, clients)
		// Latencies are measured client-side per timed request: the
		// server's own latency window would still contain the warmup
		// requests' compile latencies and skew p99.
		lats := make([][]time.Duration, clients)
		next := make(chan int)
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := range next {
					t0 := time.Now()
					if _, err := post(client, ts.URL, workload[i%len(workload)].req); err != nil && errs[cl] == nil {
						errs[cl] = err
					}
					lats[cl] = append(lats[cl], time.Since(t0))
				}
			}(cl)
		}
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		elapsed := time.Since(start)
		st := s.Stats()
		for _, err := range errs {
			if err != nil {
				return ServeScalePoint{}, fmt.Errorf("serve scaling (workers=%d): %w", w, err)
			}
		}
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(q float64) float64 {
			return float64(all[int(q*float64(len(all)-1))]) / float64(time.Millisecond)
		}
		return ServeScalePoint{
			Workers: w, Requests: requests,
			ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
			ThroughputRPS: float64(requests) / elapsed.Seconds(),
			LatencyP50MS:  pct(0.50), LatencyP99MS: pct(0.99),
			CacheHits: st.CacheHits, Rejected: st.Rejected,
		}, nil
	}
	var base float64
	for _, w := range workers {
		pt, err := scalePoint(w)
		if err != nil {
			return nil, err
		}
		if w == workers[0] {
			base = pt.ThroughputRPS
		}
		if base > 0 {
			pt.SpeedupVs1 = pt.ThroughputRPS / base
		}
		out.Scaling = append(out.Scaling, pt)
	}
	return out, nil
}

// startServer boots a serve.Server behind an httptest listener and returns
// it with a single cleanup that closes the listener before draining.
func startServer(cfg serve.Config) (*httptest.Server, func()) {
	s := serve.NewServer(cfg)
	ts := httptest.NewServer(s)
	return ts, func() {
		ts.Close()
		s.Close()
	}
}

// RenderServe prints the serving study.
func RenderServe(r *ServeResult) string {
	var out string
	header := []string{"Kernel", "Cold setup", "Warm setup", "Setup speedup", "Cycles"}
	var body [][]string
	for _, p := range r.Cache {
		body = append(body, []string{
			p.Kernel,
			fmt.Sprintf("%.1fus", float64(p.ColdSetupNS)/1000),
			fmt.Sprintf("%.1fus", float64(p.WarmSetupNS)/1000),
			fmt.Sprintf("%.1fx", p.SetupSpeedup),
			fmt.Sprint(p.Cycles),
		})
	}
	out += "Serving: compiled-program cache, cold vs warm request setup\n" + table(header, body)
	header = []string{"Workers", "Requests", "Elapsed", "Req/s", "Speedup vs first", "p50", "p99"}
	body = nil
	for _, p := range r.Scaling {
		body = append(body, []string{
			fmt.Sprint(p.Workers), fmt.Sprint(p.Requests),
			fmt.Sprintf("%.0fms", p.ElapsedMS),
			fmt.Sprintf("%.1f", p.ThroughputRPS),
			fmt.Sprintf("%.2fx", p.SpeedupVs1),
			fmt.Sprintf("%.1fms", p.LatencyP50MS),
			fmt.Sprintf("%.1fms", p.LatencyP99MS),
		})
	}
	out += fmt.Sprintf("\nServing: throughput vs worker-pool size (mixed workload, warm cache, %d CPUs)\n", r.CPUs) + table(header, body)
	return out
}
