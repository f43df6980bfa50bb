// Package obs is the observability core of the tree: a dependency-free
// labeled metrics registry (counters, callback gauges, fixed-bucket histograms) with
// Prometheus text exposition, and a lightweight phase-span trace recorder.
//
// Both halves are built for hot paths. Metric updates are single atomic
// operations after the series is resolved (resolve labeled series once and
// hold the pointer where the label set is known up front), and the whole
// trace API is nil-safe: every method on a nil *Trace — and on the zero Span
// a nil trace hands out — is a no-op that performs zero heap allocations, so
// instrumented code needs no "is tracing on" branches and the instrumented
// fast path stays allocation-free when tracing is off (the serve hot path's
// zero-alloc gate covers exactly this).
//
// The registry serves three consumers from one source of truth: the
// Prometheus text endpoint (WritePrometheus), structured JSON snapshots
// (Snapshot), and direct programmatic reads (Counter.Value,
// Histogram.Quantile).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as exposed in Prometheus TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets is the default latency histogram layout, in seconds: 100µs to
// 10s, roughly exponential. The serving layer's request and phase
// histograms use it unless a caller supplies its own bounds.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them for exposition. All
// methods are safe for concurrent use; series updates touch only atomics,
// never the registry lock.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is one named metric with a fixed label schema and one series per
// distinct label-value tuple.
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histogram bucket upper bounds, nil otherwise

	mu     sync.Mutex
	series map[string]*series
	// fn, when non-nil, makes this a callback gauge: the value is read at
	// exposition time instead of being stored.
	fn func() float64
}

// series is one label-value tuple's data. Counters and gauges use val;
// histograms use counts/sum/count. The sum is float64 bits updated by CAS.
type series struct {
	labelValues []string

	val    atomic.Int64 // counters: integer count
	counts []atomic.Int64
	sum    atomic.Uint64
	count  atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register resolves or creates a family, enforcing one type and label
// schema per name: observability code registering the same family twice is
// a bug worth failing loudly on.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s(%v), was %s(%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		series: map[string]*series{},
	}
	if typ == typeHistogram {
		f.buckets = append([]float64(nil), buckets...)
	}
	r.fams[name] = f
	return f
}

// get resolves one label-value tuple's series, creating it on first use.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.typ == typeHistogram {
			s.counts = make([]atomic.Int64, len(f.buckets)+1) // +1 for +Inf
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing count.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds n; negative deltas are a caller bug and panic.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.s.val.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.s.val.Load() }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves the series for one label-value tuple. Resolve once and hold
// the Counter on hot paths with a fixed label set.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.get(values)} }

// Counter registers (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.register(name, help, typeCounter, nil, nil).get(nil)}
}

// CounterVec registers (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil)}
}

// GaugeFunc registers a callback gauge: fn is read at exposition and
// snapshot time, so live values (queue depth, cache size) need no update
// plumbing.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram accumulates observations into fixed buckets. Observation is two
// atomic adds plus a CAS loop for the sum; quantiles are derived from the
// bucket counts at read time.
type Histogram struct {
	buckets []float64
	s       *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.s.counts[i].Add(1)
	for {
		old := h.s.sum.Load()
		nv := math.Float64frombits(old) + v
		if h.s.sum.CompareAndSwap(old, math.Float64bits(nv)) {
			break
		}
	}
	h.s.count.Add(1)
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.s.count.Load() }

// Sum reads the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// the upper bound of the bucket holding the nearest-rank observation, with
// linear interpolation inside the bucket. Exact to bucket resolution, which
// is the histogram trade: bounded memory for bounded error, instead of the
// unbounded sort window it replaces.
func (h *Histogram) Quantile(q float64) float64 {
	return QuantileFromBuckets(h.buckets, h.BucketCounts(), q)
}

// BucketCounts snapshots the non-cumulative per-bucket observation counts,
// with the +Inf bucket last (len(bounds)+1 entries).
func (h *Histogram) BucketCounts() []int64 {
	counts := make([]int64, len(h.s.counts))
	for i := range h.s.counts {
		counts[i] = h.s.counts[i].Load()
	}
	return counts
}

// QuantileFromBuckets estimates the q-quantile from a histogram's bucket
// layout: bounds are the bucket upper bounds and counts the non-cumulative
// per-bucket observation counts with the final +Inf bucket last
// (len(bounds)+1 entries). It is the Histogram.Quantile math exported for
// aggregators: histograms with one bucket layout merge exactly by summing
// counts element-wise, so a scale-out tier (the samserve router) can compute
// true fleet-wide percentiles instead of averaging per-shard percentiles —
// which is not a percentile of anything.
func QuantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range counts {
		if cum+n >= rank {
			lo := 0.0
			if i > 0 && i-1 < len(bounds) {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				// +Inf bucket: no upper bound to interpolate toward.
				return lo
			}
			hi := bounds[i]
			if n == 0 {
				return hi
			}
			return lo + (hi-lo)*float64(rank-cum)/float64(n)
		}
		cum += n
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the series for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{buckets: v.f.buckets, s: v.f.get(values)}
}

// Histogram registers (or resolves) an unlabeled histogram with the given
// bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, typeHistogram, nil, buckets)
	return &Histogram{buckets: f.buckets, s: f.get(nil)}
}

// HistogramVec registers (or resolves) a labeled histogram family with the
// given bucket upper bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.register(name, help, typeHistogram, labels, buckets)}
}

// SeriesSnapshot is one label-value tuple's data at snapshot time.
type SeriesSnapshot struct {
	LabelValues []string `json:"label_values,omitempty"`
	// Value carries counter counts and gauge values.
	Value float64 `json:"value"`
	// BucketCounts, Sum and Count are set for histograms only;
	// BucketCounts[i] counts observations <= the i-th bucket bound, with a
	// final +Inf bucket (non-cumulative).
	BucketCounts []int64 `json:"bucket_counts,omitempty"`
	Sum          float64 `json:"sum,omitempty"`
	Count        int64   `json:"count,omitempty"`
}

// FamilySnapshot is one metric family at snapshot time.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help"`
	Type    string           `json:"type"`
	Labels  []string         `json:"labels,omitempty"`
	Buckets []float64        `json:"buckets,omitempty"`
	Series  []SeriesSnapshot `json:"series"`
}

// Snapshot captures every family and series, sorted by family name and
// label values, so consumers (the stats endpoint, tests) read one coherent
// view without holding any lock across their own work.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name: f.name, Help: f.help, Type: f.typ,
			Labels: f.labels, Buckets: f.buckets,
		}
		f.mu.Lock()
		if f.fn != nil {
			fs.Series = []SeriesSnapshot{{Value: f.fn()}}
			f.mu.Unlock()
			out = append(out, fs)
			continue
		}
		all := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			all = append(all, s)
		}
		f.mu.Unlock()
		sort.Slice(all, func(i, j int) bool {
			return strings.Join(all[i].labelValues, "\xff") < strings.Join(all[j].labelValues, "\xff")
		})
		for _, s := range all {
			ss := SeriesSnapshot{LabelValues: s.labelValues}
			switch f.typ {
			case typeCounter:
				ss.Value = float64(s.val.Load())
			case typeHistogram:
				ss.BucketCounts = make([]int64, len(s.counts))
				for i := range s.counts {
					ss.BucketCounts[i] = s.counts[i].Load()
				}
				ss.Sum = math.Float64frombits(s.sum.Load())
				ss.Count = s.count.Load()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}
