package serve

import (
	"math"
	"sort"
	"sync"
	"time"

	"sam/internal/obs"
)

// latWindow is how many recent request latencies the compatibility
// percentile window holds.
const latWindow = 2048

// metrics is the server's observability surface: one obs.Registry holding
// every counter, gauge, and histogram the service exposes, plus resolved
// series handles for the hot-path updates (one atomic op each) and a small
// sliding latency window kept only so /v1/stats can keep reporting the exact
// sort-based p50/p99 fields it always has. The registry is the single source
// of truth shared by GET /metrics (Prometheus text) and GET /v1/stats
// (JSON); both render the same series.
type metrics struct {
	reg *obs.Registry

	// httpRequests counts every HTTP request by endpoint and status code,
	// including rejected and malformed ones; reqDur is the matching
	// end-to-end latency histogram.
	httpRequests *obs.CounterVec
	reqDur       *obs.HistogramVec

	// Job lifecycle: admitted (sync + async), refused at admission, failed
	// after admission, and total simulated cycles served.
	admitted *obs.Counter
	rejected *obs.Counter
	failures *obs.Counter
	cycles   *obs.Counter

	// engineRuns counts completed requests by the engine that executed
	// them.
	engineRuns *obs.CounterVec

	// resolutions counts where the program cache found each request's
	// program: tier="mem" (in-memory LRU), "disk" (decoded artifact), or
	// "compile" (cold); cacheEvictions counts programs the LRU dropped. The
	// cache holds the series and counts into them itself. disk counts the
	// artifact store's own events.
	resolutions    *obs.CounterVec
	cacheEvictions *obs.Counter
	disk           *obs.CounterVec

	// tensorOps counts named tensor store operations: put, delete, ref_hit
	// and ref_miss ({"ref": name} resolutions), evict (budget evictions),
	// bind_hit and bind_build (memoized fibertree reuse vs construction). The
	// store holds the series and counts into them itself. The resident-count
	// and resident-bytes gauges live in NewServer, which owns the store they
	// read.
	tensorOps *obs.CounterVec

	// phaseDur holds per-phase latency: setup and queue_wait on every
	// request, plus the engine's phases (bind, run, assemble, …) on traced
	// ones.
	phaseDur *obs.HistogramVec

	// jobLat is the completed-job latency histogram. Unlike the sliding
	// window below it is mergeable: a router aggregating many shards sums
	// bucket counts element-wise and derives true fleet-wide percentiles
	// (obs.QuantileFromBuckets) instead of averaging per-shard percentiles.
	jobLat *obs.Histogram

	mu        sync.Mutex
	latencies []time.Duration
	latNext   int
}

// newMetrics builds the registry and registers every family the service
// exposes. Fixed-label series are pre-resolved so /metrics shows their
// zero-valued sample lines (and histogram buckets) from the first scrape,
// before any traffic arrives.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		httpRequests: reg.CounterVec("sam_http_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "status"),
		reqDur: reg.HistogramVec("sam_request_duration_seconds",
			"End-to-end request latency by endpoint.", nil, "endpoint"),
		admitted: reg.Counter("sam_jobs_admitted_total",
			"Jobs admitted through the queue (sync and async)."),
		rejected: reg.Counter("sam_jobs_rejected_total",
			"Submissions refused at admission (queue full or draining)."),
		failures: reg.Counter("sam_jobs_failed_total",
			"Admitted jobs that failed."),
		cycles: reg.Counter("sam_cycles_simulated_total",
			"Total simulated cycles served."),
		engineRuns: reg.CounterVec("sam_engine_runs_total",
			"Completed requests by the engine that executed them.", "engine"),
		resolutions: reg.CounterVec("sam_cache_resolutions_total",
			"Program resolutions by cache tier: mem (LRU hit), disk (artifact decode), compile (cold).", "tier"),
		cacheEvictions: reg.Counter("sam_cache_evictions_total",
			"Compiled programs evicted from the in-memory LRU."),
		disk: reg.CounterVec("sam_disk_cache_total",
			"Disk artifact store operations by event: hit, miss, write, error.", "event"),
		tensorOps: reg.CounterVec("sam_tensor_store_ops_total",
			"Named tensor store operations by op: put, delete, ref_hit, ref_miss, evict, bind_hit, bind_build.", "op"),
		phaseDur: reg.HistogramVec("sam_phase_duration_seconds",
			"Per-phase latency: setup and queue_wait on every request; bind, run, and assemble on traced runs.", nil, "phase"),
		jobLat: reg.Histogram("sam_job_latency_seconds",
			"Completed-job latency (prepare through finish); bucket counts merge across shards.", nil),
	}
	for _, tier := range []string{"mem", "disk", "compile"} {
		m.resolutions.With(tier)
	}
	for _, ev := range []string{"hit", "miss", "write", "error"} {
		m.disk.With(ev)
	}
	for _, op := range []string{"put", "delete", "ref_hit", "ref_miss", "evict", "bind_hit", "bind_build"} {
		m.tensorOps.With(op)
	}
	for _, ph := range []string{"setup", "queue_wait", "bind", "run", "assemble"} {
		m.phaseDur.With(ph)
	}
	for _, ep := range []string{"/v1/evaluate", "/v1/jobs"} {
		m.reqDur.With(ep)
	}
	return m
}

// engines snapshots the per-engine run counts from the registry — the same
// series /metrics exposes.
func (m *metrics) engines() map[string]int64 {
	runs := map[string]int64{}
	for _, f := range m.reg.Snapshot() {
		if f.Name != "sam_engine_runs_total" {
			continue
		}
		for _, s := range f.Series {
			runs[s.LabelValues[0]] = int64(s.Value)
		}
	}
	return runs
}

// observe records one completed request's latency and simulated cycles.
func (m *metrics) observe(d time.Duration, cycles int) {
	m.cycles.Add(int64(cycles))
	m.jobLat.Observe(d.Seconds())
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.latencies) < latWindow {
		m.latencies = append(m.latencies, d)
		return
	}
	m.latencies[m.latNext] = d
	m.latNext = (m.latNext + 1) % latWindow
}

// phase records one phase duration into the labeled histogram.
func (m *metrics) phase(name string, d time.Duration) {
	m.phaseDur.With(name).Observe(d.Seconds())
}

// phases records a traced run's top-level engine phases (bind, run,
// assemble, …); nested spans like per-lane children are skipped, they would
// double-count their parents.
func (m *metrics) phases(spans []obs.SpanData) {
	for _, sp := range spans {
		if sp.Parent == -1 {
			m.phaseDur.With(sp.Name).Observe(float64(sp.DurNS) / 1e9)
		}
	}
}

// percentiles returns the nearest-rank p50 and p99 of the window in
// milliseconds. The rank is ceil(q·N) — the classic nearest-rank definition
// — so p99 over a small window picks the top sample instead of flooring an
// index and under-reporting (the old int(q·(N-1)) bias).
func (m *metrics) percentiles() (p50, p99 float64) {
	m.mu.Lock()
	lat := append([]time.Duration(nil), m.latencies...)
	m.mu.Unlock()
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(lat[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}

// latencyHist snapshots the mergeable job-latency histogram for /v1/stats:
// the raw bucket layout a router needs to merge shards correctly.
func (m *metrics) latencyHist() *HistogramSnapshot {
	return &HistogramSnapshot{
		Buckets: obs.DefBuckets,
		Counts:  m.jobLat.BucketCounts(),
		Sum:     m.jobLat.Sum(),
		Count:   m.jobLat.Count(),
	}
}
