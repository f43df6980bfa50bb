package serve

import (
	"testing"
	"time"

	"sam/internal/obs"
)

// statsAfter returns the p50 and p99 a fresh server reports in /v1/stats
// after completing jobs with the given latencies.
func statsAfter(t *testing.T, lat ...time.Duration) (p50, p99 float64) {
	t.Helper()
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	for _, d := range lat {
		s.metrics.observe(d, 0)
	}
	st := s.Stats()
	return st.LatencyP50MS, st.LatencyP99MS
}

// inSampleBucket checks that a reported percentile, in milliseconds, lies in
// the job-latency bucket holding the nearest-rank sample: the histogram's
// resolution.
func inSampleBucket(t *testing.T, what string, gotMS float64, sample time.Duration) {
	t.Helper()
	lo := 0.0
	for _, hi := range obs.DefBuckets {
		if sample.Seconds() <= hi {
			if gotMS <= lo*1000 || gotMS > hi*1000 {
				t.Errorf("%s = %gms, want within the (%g, %g]ms bucket of the %v sample", what, gotMS, lo*1000, hi*1000, sample)
			}
			return
		}
		lo = hi
	}
	t.Fatalf("sample %v beyond the last bucket", sample)
}

func millis(from, to int) []time.Duration {
	var out []time.Duration
	for i := from; i <= to; i++ {
		out = append(out, time.Duration(i)*time.Millisecond)
	}
	return out
}

// TestPercentilesNearestRank checks the rank rule on ten 1..10ms jobs: the
// rank is ceil(q·N), so p50 lands in the bucket of the fifth sample and p99
// in the bucket of the top one.
func TestPercentilesNearestRank(t *testing.T) {
	p50, p99 := statsAfter(t, millis(1, 10)...)
	inSampleBucket(t, "p50", p50, 5*time.Millisecond)
	inSampleBucket(t, "p99", p99, 10*time.Millisecond)
}

func TestPercentilesSingleSample(t *testing.T) {
	p50, p99 := statsAfter(t, 7*time.Millisecond)
	inSampleBucket(t, "p50", p50, 7*time.Millisecond)
	inSampleBucket(t, "p99", p99, 7*time.Millisecond)
}

func TestPercentilesEmpty(t *testing.T) {
	if p50, p99 := statsAfter(t); p50 != 0 || p99 != 0 {
		t.Errorf("no jobs: p50 = %g, p99 = %g, want 0, 0", p50, p99)
	}
}

func TestPercentilesLargeWindow(t *testing.T) {
	p50, p99 := statsAfter(t, millis(1, 100)...)
	inSampleBucket(t, "p50", p50, 50*time.Millisecond)
	inSampleBucket(t, "p99", p99, 99*time.Millisecond)
}
