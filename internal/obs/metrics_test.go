package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration resolves the same series.
	if got := r.Counter("jobs_total", "jobs").Value(); got != 5 {
		t.Fatalf("re-registered counter = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "endpoint", "status")
	v.With("/v1/evaluate", "200").Add(3)
	v.With("/v1/evaluate", "400").Inc()
	v.With("/v1/jobs", "200").Inc()
	if got := v.With("/v1/evaluate", "200").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 3 {
		t.Fatalf("snapshot: %d families, %d series; want 1 family, 3 series", len(snap), len(snap[0].Series))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

// TestGauge checks that a gauge is read from its callback at snapshot time.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("live", "live value", func() float64 { return 42 })
	for _, f := range r.Snapshot() {
		if f.Name == "live" {
			if f.Series[0].Value != 42 {
				t.Fatalf("gauge func snapshot = %g, want 42", f.Series[0].Value)
			}
			return
		}
	}
	t.Fatal("gauge func family missing from snapshot")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-2.575) > 1e-12 {
		t.Fatalf("sum = %g, want 2.575", got)
	}
	// Nearest-rank over buckets [<=0.01]:1 [<=0.1]:2 [<=1]:1 [+Inf]:1.
	// p50 → rank 3, lands in the (0.01, 0.1] bucket.
	if q := h.Quantile(0.5); q <= 0.01 || q > 0.1 {
		t.Fatalf("p50 = %g, want in (0.01, 0.1]", q)
	}
	// p99 → rank 5, the +Inf bucket: reports the last finite bound.
	if q := h.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %g, want 1 (last finite bound)", q)
	}
	if q := r.Histogram("empty_seconds", "", []float64{1}).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("sam_requests_total", "requests by endpoint/status", "endpoint", "status").
		With("/v1/evaluate", "200").Add(2)
	r.GaugeFunc("sam_queue_depth", "queued jobs", func() float64 { return 3 })
	h := r.Histogram("sam_request_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.CounterVec("sam_escapes_total", "label escaping", "expr").
		With("x(i) = \"B\"\\n").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sam_requests_total requests by endpoint/status\n",
		"# TYPE sam_requests_total counter\n",
		`sam_requests_total{endpoint="/v1/evaluate",status="200"} 2` + "\n",
		"# TYPE sam_queue_depth gauge\n",
		"sam_queue_depth 3\n",
		"# TYPE sam_request_seconds histogram\n",
		`sam_request_seconds_bucket{le="0.1"} 1` + "\n",
		`sam_request_seconds_bucket{le="1"} 2` + "\n",
		`sam_request_seconds_bucket{le="+Inf"} 3` + "\n",
		"sam_request_seconds_sum 5.55\n",
		"sam_request_seconds_count 3\n",
		`sam_escapes_total{expr="x(i) = \"B\"\\n"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	// Deterministic output: a second render is byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic across renders")
	}
}

func TestRegisterTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("m", "", func() float64 { return 0 })
}

// TestConcurrentHammer drives counters and histograms from many goroutines,
// and a gauge's callback reads what they count, while snapshots and
// expositions run concurrently; under -race
// this is the registry's thread-safety gate, and the final counts prove no
// update was lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hammer_total", "", "worker")
	var live atomic.Int64
	r.GaugeFunc("hammer_gauge", "", func() float64 { return float64(live.Load()) })
	hv := r.HistogramVec("hammer_seconds", "", []float64{0.001, 0.01, 0.1, 1}, "worker")
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot/exposition readers race against the writers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Snapshot()
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			name := string(rune('a' + w))
			c := cv.With(name)
			h := hv.With(name)
			for i := 0; i < perW; i++ {
				c.Inc()
				live.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	for w := 0; w < workers; w++ {
		name := string(rune('a' + w))
		if got := cv.With(name).Value(); got != perW {
			t.Errorf("worker %s counter = %d, want %d", name, got, perW)
		}
		if got := hv.With(name).Count(); got != perW {
			t.Errorf("worker %s histogram count = %d, want %d", name, got, perW)
		}
	}
	for _, f := range r.Snapshot() {
		if f.Name == "hammer_gauge" && f.Series[0].Value != workers*perW {
			t.Errorf("gauge = %g, want %d", f.Series[0].Value, workers*perW)
		}
	}
}
