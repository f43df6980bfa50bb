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

// ShardScalePoint is one fleet-size measurement: the mixed workload driven
// through a consistent-hash router over N shards with warm caches. Requests
// route by canonical program key, so each shard compiles only its slice of
// the kernel set; percentiles are measured client-side over timed requests.
type ShardScalePoint struct {
	Shards        int     `json:"shards"`
	Requests      int     `json:"requests"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	SpeedupVs1    float64 `json:"speedup_vs_1"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	// AggRequests and AggCacheHits come from the router's aggregated
	// /v1/stats (histogram-merged, not averaged).
	AggRequests  int64 `json:"agg_requests"`
	AggCacheHits int64 `json:"agg_cache_hits"`
	// AggP99MS is the fleet p99 from the merged latency histogram, the
	// server-side counterpart of LatencyP99MS.
	AggP99MS float64 `json:"agg_p99_ms"`
}

// ShardTilePoint is one tiled-operand measurement: a matrix too large for
// one shard's comfort is split into per-shard row-block tiles, and an SpMV
// against it fans out and merges partials. FanoutCycles is the router-
// reported cycle count — the max over tiles, since tiles run on distinct
// shards in parallel — so SingleCycles/FanoutCycles is the model-level
// speedup of sharding the operand.
type ShardTilePoint struct {
	Shards       int     `json:"shards"`
	Rows         int     `json:"rows"`
	NNZ          int     `json:"nnz"`
	Tiles        int     `json:"tiles"`
	SingleCycles int     `json:"single_cycles"`
	FanoutCycles int     `json:"fanout_cycles"`
	CycleSpeedup float64 `json:"cycle_speedup"`
	SingleMS     float64 `json:"single_ms"`
	FanoutMS     float64 `json:"fanout_ms"`
}

// ShardResult bundles the sharding study for BENCH_PR10.json.
type ShardResult struct {
	CPUs    int               `json:"cpus"`
	Scaling []ShardScalePoint `json:"scaling"`
	Tiled   []ShardTilePoint  `json:"tiled"`
}

// DefaultShardCounts is the fleet-size sweep.
var DefaultShardCounts = []int{1, 2, 4}

// startFleet boots n shards and a router over them, returning the router's
// base URL and a stop for everything.
func startFleet(n int, shardCfg serve.Config, rcfg serve.RouterConfig) (string, *serve.Router, func(), error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for i := 0; i < n; i++ {
		ts, stop := startServer(shardCfg)
		stops = append(stops, stop)
		rcfg.Shards = append(rcfg.Shards, ts.URL)
	}
	rt, err := serve.NewRouter(rcfg)
	if err != nil {
		stopAll()
		return "", nil, nil, err
	}
	stops = append(stops, rt.Close)
	front := httptest.NewServer(rt)
	stops = append(stops, front.Close)
	return front.URL, rt, stopAll, nil
}

// ShardStudy measures the horizontally sharded serving layer: (1) routed
// throughput of the mixed workload as the fleet grows, with aggregate
// counters read back through the router's histogram-merging stats path, and
// (2) the tiled-operand path — a large matrix split into per-shard row
// blocks, SpMV fanned out and merged, against the same request on a single
// node. Every number is produced through the real HTTP router; nothing is
// simulated out-of-band.
func ShardStudy(seed int64, scale float64, counts []int) (*ShardResult, error) {
	if len(counts) == 0 {
		counts = DefaultShardCounts
	}
	workload := serveWorkload(seed, scale)
	out := &ShardResult{CPUs: runtime.NumCPU()}
	client := &http.Client{}
	requests := 6 * len(workload)

	scalePoint := func(n int) (ShardScalePoint, error) {
		url, rt, stop, err := startFleet(n,
			serve.Config{Workers: 2, QueueDepth: 4 * requests},
			serve.RouterConfig{})
		if err != nil {
			return ShardScalePoint{}, err
		}
		defer stop()
		for _, wl := range workload {
			if _, err := post(client, url, wl.req); err != nil {
				return ShardScalePoint{}, fmt.Errorf("shard warmup (n=%d) %s: %w", n, wl.name, err)
			}
		}
		clients := 4 * n
		if clients > 16 {
			clients = 16
		}
		var wg sync.WaitGroup
		errs := make([]error, clients)
		lats := make([][]time.Duration, clients)
		next := make(chan int)
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := range next {
					t0 := time.Now()
					if _, err := post(client, url, workload[i%len(workload)].req); err != nil && errs[cl] == nil {
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
		for _, err := range errs {
			if err != nil {
				return ShardScalePoint{}, fmt.Errorf("shard scaling (n=%d): %w", n, err)
			}
		}
		st := rt.Stats()
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(q float64) float64 {
			return float64(all[int(q*float64(len(all)-1))]) / float64(time.Millisecond)
		}
		return ShardScalePoint{
			Shards: n, Requests: requests,
			ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
			ThroughputRPS: float64(requests) / elapsed.Seconds(),
			LatencyP50MS:  pct(0.50), LatencyP99MS: pct(0.99),
			AggRequests:  st.Aggregate.Requests,
			AggCacheHits: st.Aggregate.CacheHits,
			AggP99MS:     st.Aggregate.LatencyP99MS,
		}, nil
	}
	var base float64
	for _, n := range counts {
		pt, err := scalePoint(n)
		if err != nil {
			return nil, err
		}
		if n == counts[0] {
			base = pt.ThroughputRPS
		}
		if base > 0 {
			pt.SpeedupVs1 = pt.ThroughputRPS / base
		}
		out.Scaling = append(out.Scaling, pt)
	}

	// Tiled-operand phase: one stored matrix, SpMV by ref, single node vs
	// tiled fan-out at each fleet size.
	rows := int(480 * scale)
	if rows < 64 {
		rows = 64
	}
	rng := rand.New(rand.NewSource(seed + 1))
	big := sparseUniform("B", rng, rows, rows, 0.02)
	big.Sort()
	vec := tensor.UniformRandom("c", rng, rows/2+1, rows)
	vec.Sort()
	req := &serve.EvaluateRequest{
		Expr:   "x(i) = B(i,j) * c(j)",
		Inputs: map[string]serve.WireTensor{"B": {Ref: "B"}, "c": serve.ToWire(vec)},
	}

	evalRef := func(url string) (int, float64, error) {
		if err := putTensorURL(client, url, "B", serve.ToWire(big)); err != nil {
			return 0, 0, err
		}
		// Warm once so the timed request measures the steady state.
		if _, err := post(client, url, req); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		er, err := post(client, url, req)
		if err != nil {
			return 0, 0, err
		}
		return er.Cycles, float64(time.Since(t0).Microseconds()) / 1000, nil
	}

	ts, stop := startServer(serve.Config{Workers: 2, QueueDepth: 64})
	singleCycles, singleMS, err := evalRef(ts.URL)
	stop()
	if err != nil {
		return nil, fmt.Errorf("shard tiled (single): %w", err)
	}
	for _, n := range counts {
		if n < 2 {
			continue
		}
		url, rt, stopF, err := startFleet(n,
			serve.Config{Workers: 2, QueueDepth: 64},
			serve.RouterConfig{TileThresholdBytes: 1024})
		if err != nil {
			return nil, err
		}
		cycles, ms, err := evalRef(url)
		st := rt.Stats()
		stopF()
		if err != nil {
			return nil, fmt.Errorf("shard tiled (n=%d): %w", n, err)
		}
		pt := ShardTilePoint{
			Shards: n, Rows: rows, NNZ: len(big.Pts), Tiles: n,
			SingleCycles: singleCycles, FanoutCycles: cycles,
			SingleMS: singleMS, FanoutMS: ms,
		}
		if st.RouterTiledTensors != 1 {
			return nil, fmt.Errorf("shard tiled (n=%d): router tracked %d tiled tensors, want 1", n, st.RouterTiledTensors)
		}
		if cycles > 0 {
			pt.CycleSpeedup = float64(singleCycles) / float64(cycles)
		}
		out.Tiled = append(out.Tiled, pt)
	}
	return out, nil
}

// putTensorURL uploads one named tensor.
func putTensorURL(client *http.Client, url, name string, wt serve.WireTensor) error {
	buf, err := json.Marshal(wt)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, url+"/v1/tensors/"+name, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("PUT %s: status %d: %s", name, resp.StatusCode, e.Error)
	}
	return nil
}

// RenderShard prints the sharding study.
func RenderShard(r *ShardResult) string {
	header := []string{"Shards", "Requests", "Elapsed", "Req/s", "Speedup vs 1", "p50", "p99", "Fleet p99"}
	var body [][]string
	for _, p := range r.Scaling {
		body = append(body, []string{
			fmt.Sprint(p.Shards), fmt.Sprint(p.Requests),
			fmt.Sprintf("%.0fms", p.ElapsedMS),
			fmt.Sprintf("%.1f", p.ThroughputRPS),
			fmt.Sprintf("%.2fx", p.SpeedupVs1),
			fmt.Sprintf("%.1fms", p.LatencyP50MS),
			fmt.Sprintf("%.1fms", p.LatencyP99MS),
			fmt.Sprintf("%.1fms", p.AggP99MS),
		})
	}
	out := fmt.Sprintf("Sharding: routed throughput vs fleet size (mixed workload, warm caches, %d CPUs)\n", r.CPUs) + table(header, body)
	header = []string{"Shards", "Rows", "NNZ", "Tiles", "Single cycles", "Fan-out cycles", "Cycle speedup"}
	body = nil
	for _, p := range r.Tiled {
		body = append(body, []string{
			fmt.Sprint(p.Shards), fmt.Sprint(p.Rows), fmt.Sprint(p.NNZ), fmt.Sprint(p.Tiles),
			fmt.Sprint(p.SingleCycles), fmt.Sprint(p.FanoutCycles),
			fmt.Sprintf("%.2fx", p.CycleSpeedup),
		})
	}
	out += "\nSharding: tiled SpMV — row-block tiles, per-shard partials, merged at the router\n" + table(header, body)
	return out
}
