package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"sam/internal/tensor"
)

// inlineSpMSpMBody is an SpM*SpM request at the repository benchmark's
// inline-routed size: two 1 700-point operands, about 60 % of a 90×90 result
// and a reply of roughly 50 KB.
func inlineSpMSpMBody(t testing.TB) []byte {
	rng := rand.New(rand.NewSource(7))
	B, C := tensor.UniformRandom("B", rng, 1700, 90, 400), tensor.UniformRandom("C", rng, 1700, 400, 90)
	tensor.QuantizeInts(rng, 9, B, C)
	body, err := json.Marshal(&EvaluateRequest{
		Expr:     "X(i,j) = B(i,k) * C(k,j)",
		Schedule: &WireSchedule{LoopOrder: []string{"i", "k", "j"}},
		Options:  &WireOptions{Engine: "comp"},
		Inputs:   map[string]WireTensor{"B": ToWire(B), "C": ToWire(C)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// discard is the cheapest ResponseWriter: the benchmark times the handler,
// not a recorder's copy of the reply.
type discard struct {
	h      http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.status = code }
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkInlineEvaluate is the in-process cost of one inline request on a
// warm shard — body read, decode, operands to COO, bind, comp run, response
// encode — for the two shapes that bracket the repository benchmark's
// inline-routed workload: a 56 KB body with a small reply, and a 36 KB body
// with a ≈ 50 KB reply.
func BenchmarkInlineEvaluate(b *testing.B) {
	spmv := bytes.Replace(inlineSpMVBody(b, 6000), []byte(`{"expr"`), []byte(`{"options":{"engine":"comp"},"expr"`), 1)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"SpMV-6000nnz", spmv}, {"SpMSpM-50KBreply", inlineSpMSpMBody(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewServer(Config{Workers: 1})
			defer s.Close()
			run := func() *discard {
				w := &discard{h: http.Header{}}
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(bc.body)))
				if w.status != http.StatusOK && w.status != 0 {
					b.Fatalf("status %d", w.status)
				}
				return w
			}
			reply := run().n // compiles the program; every timed request is warm
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(reply), "reply-B")
		})
	}
}
