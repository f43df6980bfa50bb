package serve

import (
	"time"

	"sam/internal/obs"
)

// metrics is the server's observability surface: one obs.Registry holding
// every counter, gauge, and histogram the service exposes, plus resolved
// series handles for the hot-path updates (one atomic op each). The registry
// is the single source of truth shared by GET /metrics (Prometheus text) and
// GET /v1/stats (JSON); both render the same series.
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

	// jobLat is the completed-job latency histogram, the one source of the
	// p50/p99 that /v1/stats reports. It is mergeable: a router aggregating
	// many shards sums bucket counts element-wise and derives fleet-wide
	// percentiles with the same estimator (obs.QuantileFromBuckets) instead
	// of averaging per-shard percentiles.
	jobLat *obs.Histogram
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
}

// phase records one phase duration into the labeled histogram.
func (m *metrics) phase(name string, d time.Duration) {
	m.phaseDur.With(name).Observe(d.Seconds())
}

// phases records a traced run's top-level engine phases (bind, run,
// assemble, …); nested spans like comp's per-step children are skipped,
// they would double-count their parents.
func (m *metrics) phases(spans []obs.SpanData) {
	for _, sp := range spans {
		if sp.Parent == -1 {
			m.phaseDur.With(sp.Name).Observe(float64(sp.DurNS) / 1e9)
		}
	}
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
