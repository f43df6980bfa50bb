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

// inlineRoutedBodies are the repository benchmark's inline-routed requests:
// its six kernels at its operand sizes, values QuantizeInts draws, each at
// opt 0 and 1 on comp.
func inlineRoutedBodies(t testing.TB) [][]byte {
	type op struct {
		name string
		nnz  int // < 0: every point
		dims []int
	}
	rng := rand.New(rand.NewSource(3))
	var bodies [][]byte
	for _, k := range []struct {
		expr  string
		order []string
		ops   []op
	}{
		{"x(i) = B(i,j) * c(j)", nil, []op{{"B", 6000, []int{400, 300}}, {"c", 6, []int{300}}}},
		{"X(i,j) = B(i,j) + C(i,j)", nil, []op{{"B", 2500, []int{200, 200}}, {"C", 2500, []int{200, 200}}}},
		{"X(i,j) = B(i,j) + C(i,j) + D(i,j)", nil, []op{{"B", 1800, []int{200, 200}}, {"C", 1800, []int{200, 200}}, {"D", 1800, []int{200, 200}}}},
		{"x(i) = b(i) - C(i,j) * d(j)", nil, []op{{"b", 100, []int{400}}, {"C", 6000, []int{400, 300}}, {"d", 6, []int{300}}}},
		{"X(i,j) = B(i,j) * C(i,k) * D(j,k)", nil, []op{{"B", 200, []int{200, 200}}, {"C", -1, []int{200, 12}}, {"D", -1, []int{200, 12}}}},
		{"X(i,j) = B(i,k) * C(k,j)", []string{"i", "k", "j"}, []op{{"B", 1700, []int{90, 400}}, {"C", 1700, []int{400, 90}}}},
	} {
		inputs := map[string]WireTensor{}
		for _, o := range k.ops {
			nnz := o.nnz
			if nnz < 0 {
				nnz = o.dims[0] * o.dims[1]
			}
			c := tensor.UniformRandom(o.name, rng, nnz, o.dims...)
			tensor.QuantizeInts(rng, 9, c)
			inputs[o.name] = ToWire(c)
		}
		for level := range 2 {
			req := &EvaluateRequest{Expr: k.expr, Options: &WireOptions{Engine: "comp"}, Inputs: inputs}
			if k.order != nil || level > 0 {
				req.Schedule = &WireSchedule{LoopOrder: k.order, Opt: &level}
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// BenchmarkInlineEvaluate is the in-process cost of one inline request on a
// warm shard — body read, decode, operands to COO, bind, comp run, response
// encode. Two rows bracket the repository benchmark's inline-routed
// workload: a 56 KB body with a small reply, and a 36 KB body with a
// ≈ 50 KB reply. Mix is that workload's own stream, its twelve requests
// cycled: the SpMV row's values are random floats, so about a tenth of its
// profile is strconv.ParseFloat, which the workload's small integer values
// never pay.
func BenchmarkInlineEvaluate(b *testing.B) {
	spmv := bytes.Replace(inlineSpMVBody(b, 6000), []byte(`{"expr"`), []byte(`{"options":{"engine":"comp"},"expr"`), 1)
	for _, bc := range []struct {
		name   string
		bodies [][]byte
	}{{"SpMV-6000nnz", [][]byte{spmv}}, {"SpMSpM-50KBreply", [][]byte{inlineSpMSpMBody(b)}}, {"Mix", inlineRoutedBodies(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewServer(Config{Workers: 1})
			defer s.Close()
			run := func(body []byte) *discard {
				w := &discard{h: http.Header{}}
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
				if w.status != http.StatusOK && w.status != 0 {
					b.Fatalf("status %d", w.status)
				}
				return w
			}
			// The first pass compiles every program; every timed request is warm.
			reply, size := 0, 0
			for _, body := range bc.bodies {
				reply += run(body).n
				size += len(body)
			}
			b.ReportAllocs()
			b.SetBytes(int64(size / len(bc.bodies)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(bc.bodies[i%len(bc.bodies)])
			}
			b.ReportMetric(float64(reply/len(bc.bodies)), "reply-B")
		})
	}
}
