package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"time"

	"sam/internal/serve"
	"sam/internal/tensor"
)

// StatePoint is one operand-delivery mode's repeated-request latency over
// the same kernel and a warm program cache: "inline" re-ships the COO data
// in every request body, "ref" uploads once and evaluates by stored-tensor
// name. BodyBytes is the serialized request size — the wire cost the ref
// mode amortizes away.
type StatePoint struct {
	Mode         string  `json:"mode"`
	Requests     int     `json:"requests"`
	BodyBytes    int     `json:"request_body_bytes"`
	MeanMS       float64 `json:"mean_ms"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	ServerMeanMS float64 `json:"server_mean_ms"`
}

// StateResult bundles the named-operand-store study for BENCH_PR9.json:
// inline vs stored-ref latency for single evaluations and for server-side
// fixpoint requests, the one-time upload cost refs pay instead, and the
// store's own accounting of how much binding work memoization absorbed.
type StateResult struct {
	CPUs            int          `json:"cpus"`
	Kernel          string       `json:"kernel"`
	StoredBytes     int64        `json:"stored_bytes"`
	UploadMS        float64      `json:"upload_ms"`
	Evaluate        []StatePoint `json:"evaluate"`
	EvalSpeedup     float64      `json:"evaluate_p50_speedup"`
	FixpointExpr    string       `json:"fixpoint_kernel"`
	FixpointIters   int          `json:"fixpoint_iterations"`
	Fixpoint        []StatePoint `json:"fixpoint"`
	FixpointSpeedup float64      `json:"fixpoint_p50_speedup"`
	RefHits         int64        `json:"tensors_ref_hits"`
	BindHits        int64        `json:"tensors_bind_hits"`
	BindBuilds      int64        `json:"tensors_bind_builds"`
}

// StateStudy measures what the named operand store buys: the same SpMV
// evaluated with inline operands in every request vs operands uploaded once
// with PUT /v1/tensors/{name} and referenced by {"ref": name}, then the
// same comparison for a server-side PageRank fixpoint where one request
// drives many iterations over the static matrix. Outputs are required to be
// bit-identical across modes — the ref path must be an optimization, never
// a different computation.
func StateStudy(seed int64, scale float64) (*StateResult, error) {
	out := &StateResult{CPUs: runtime.NumCPU()}
	rng := rand.New(rand.NewSource(seed))
	ts, stop := startServer(serve.Config{Workers: 2, QueueDepth: 64})
	defer stop()
	client := &http.Client{}

	reps := int(60 * scale)
	if reps < 12 {
		reps = 12
	}
	measure := func(mode string, req *serve.EvaluateRequest, n int) (StatePoint, *serve.EvaluateResponse, error) {
		buf, err := json.Marshal(req)
		if err != nil {
			return StatePoint{}, nil, err
		}
		pt := StatePoint{Mode: mode, Requests: n, BodyBytes: len(buf)}
		lats := make([]time.Duration, 0, n)
		var serverNS int64
		var last *serve.EvaluateResponse
		for i := 0; i < n; i++ {
			t0 := time.Now()
			er, err := post(client, ts.URL, req)
			if err != nil {
				return pt, nil, fmt.Errorf("state %s: %w", mode, err)
			}
			lats = append(lats, time.Since(t0))
			serverNS += er.ElapsedNS
			last = er
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		pt.MeanMS = ms(sum) / float64(n)
		pt.P50MS = ms(lats[(n-1)/2])
		pt.P99MS = ms(lats[(n*99+99)/100-1])
		pt.ServerMeanMS = float64(serverNS) / float64(time.Millisecond) / float64(n)
		return pt, last, nil
	}

	// Phase 1: single-shot SpMV. The matrix dominates the payload, so this
	// is the plain "static operand, many requests" serving pattern.
	ij := int(240 * scale)
	kk := int(160 * scale)
	if ij < 32 {
		ij = 32
	}
	if kk < 24 {
		kk = 24
	}
	out.Kernel = "x(i) = B(i,j) * c(j)"
	b := serve.ToWire(sparseUniform("B", rng, ij, kk, 0.05))
	c := serve.ToWire(tensor.UniformRandom("c", rng, kk/2+1, kk))
	t0 := time.Now()
	for name, w := range map[string]serve.WireTensor{"B": b, "c": c} {
		if _, err := putTensor(client, ts.URL, name, w); err != nil {
			return nil, fmt.Errorf("state upload %s: %w", name, err)
		}
	}
	out.UploadMS = float64(time.Since(t0).Microseconds()) / 1000
	inlineReq := &serve.EvaluateRequest{Expr: out.Kernel,
		Inputs: map[string]serve.WireTensor{"B": b, "c": c}}
	refReq := &serve.EvaluateRequest{Expr: out.Kernel,
		Inputs: map[string]serve.WireTensor{"B": {Ref: "B"}, "c": {Ref: "c"}}}
	for _, req := range []*serve.EvaluateRequest{inlineReq, refReq} {
		for i := 0; i < 3; i++ {
			if _, err := post(client, ts.URL, req); err != nil {
				return nil, fmt.Errorf("state warmup: %w", err)
			}
		}
	}
	inlinePt, inlineRes, err := measure("inline", inlineReq, reps)
	if err != nil {
		return nil, err
	}
	refPt, refRes, err := measure("ref", refReq, reps)
	if err != nil {
		return nil, err
	}
	if len(refRes.Tensors) != 2 {
		return nil, fmt.Errorf("state: ref response stamps %d tensors, want 2", len(refRes.Tensors))
	}
	if !reflect.DeepEqual(inlineRes.Output, refRes.Output) {
		return nil, fmt.Errorf("state: inline and stored-ref outputs differ")
	}
	out.Evaluate = []StatePoint{inlinePt, refPt}
	if refPt.P50MS > 0 {
		out.EvalSpeedup = inlinePt.P50MS / refPt.P50MS
	}

	// Phase 2: server-side PageRank fixpoint. One request runs many SpMV
	// iterations over the same matrix, so the ref path pays binding once
	// and every iteration after the first hits the memoized fiber trees.
	// The comp engine keeps per-iteration execution cheap enough that the
	// operand-delivery cost under comparison stays visible.
	n := int(200 * scale)
	if n < 32 {
		n = 32
	}
	out.FixpointExpr = "y(i) = M(i,j) * x(j)"
	out.FixpointIters = 12
	m := serve.ToWire(sparseUniform("M", rng, n, n, 0.03))
	x0 := tensor.NewCOO("x", n)
	for i := 0; i < n; i++ {
		x0.Append(1/float64(n), int64(i))
	}
	x := serve.ToWire(x0)
	for name, w := range map[string]serve.WireTensor{"M": m, "x": x} {
		if _, err := putTensor(client, ts.URL, name, w); err != nil {
			return nil, fmt.Errorf("state upload %s: %w", name, err)
		}
	}
	fx := &serve.WireFixpoint{Var: "x", MaxIters: out.FixpointIters, Mode: "pagerank"}
	comp := &serve.WireOptions{Engine: "comp"}
	fxInline := &serve.EvaluateRequest{Expr: out.FixpointExpr,
		Inputs:   map[string]serve.WireTensor{"M": m, "x": x},
		Options:  comp,
		Fixpoint: fx}
	fxRef := &serve.EvaluateRequest{Expr: out.FixpointExpr,
		Inputs:   map[string]serve.WireTensor{"M": {Ref: "M"}, "x": {Ref: "x"}},
		Options:  comp,
		Fixpoint: fx}
	fxReps := reps / 2
	if fxReps < 6 {
		fxReps = 6
	}
	for _, req := range []*serve.EvaluateRequest{fxInline, fxRef} {
		if _, err := post(client, ts.URL, req); err != nil {
			return nil, fmt.Errorf("state fixpoint warmup: %w", err)
		}
	}
	fxInlinePt, fxInlineRes, err := measure("inline", fxInline, fxReps)
	if err != nil {
		return nil, err
	}
	fxRefPt, fxRefRes, err := measure("ref", fxRef, fxReps)
	if err != nil {
		return nil, err
	}
	if fxRefRes.Fixpoint == nil || fxRefRes.Fixpoint.Iterations != out.FixpointIters {
		return nil, fmt.Errorf("state: fixpoint-by-ref ran %v iterations, want %d", fxRefRes.Fixpoint, out.FixpointIters)
	}
	if !reflect.DeepEqual(fxInlineRes.Output, fxRefRes.Output) {
		return nil, fmt.Errorf("state: inline and stored-ref fixpoint outputs differ")
	}
	out.Fixpoint = []StatePoint{fxInlinePt, fxRefPt}
	if fxRefPt.P50MS > 0 {
		out.FixpointSpeedup = fxInlinePt.P50MS / fxRefPt.P50MS
	}

	// Close with the store's own accounting of the run.
	st, err := getStats(client, ts.URL)
	if err != nil {
		return nil, fmt.Errorf("state stats: %w", err)
	}
	out.StoredBytes = st.TensorsBytes
	out.RefHits = st.TensorsRefHits
	out.BindHits = st.TensorsBindHits
	out.BindBuilds = st.TensorsBindBuilds
	return out, nil
}

// putTensor uploads one named tensor and decodes the stored-tensor info.
func putTensor(client *http.Client, url, name string, w serve.WireTensor) (*serve.TensorInfo, error) {
	buf, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPut, url+"/v1/tensors/"+name, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	var info serve.TensorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// getStats fetches the server's counter snapshot.
func getStats(client *http.Client, url string) (*serve.StatsResponse, error) {
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RenderState prints the named-operand-store study.
func RenderState(r *StateResult) string {
	render := func(pts []StatePoint) string {
		header := []string{"Mode", "Requests", "Body bytes", "Mean (ms)", "p50 (ms)", "p99 (ms)", "Server mean (ms)"}
		var body [][]string
		for _, p := range pts {
			body = append(body, []string{
				p.Mode, fmt.Sprint(p.Requests), fmt.Sprint(p.BodyBytes),
				fmt.Sprintf("%.3f", p.MeanMS), fmt.Sprintf("%.3f", p.P50MS),
				fmt.Sprintf("%.3f", p.P99MS), fmt.Sprintf("%.3f", p.ServerMeanMS),
			})
		}
		return table(header, body)
	}
	out := fmt.Sprintf("Named operands: inline vs stored-ref evaluation, %s (%d CPUs)\n", r.Kernel, r.CPUs)
	out += render(r.Evaluate)
	out += fmt.Sprintf("\nStored-ref p50 speedup: %.2fx (one-time upload %.3fms, %d bytes resident)\n",
		r.EvalSpeedup, r.UploadMS, r.StoredBytes)
	out += fmt.Sprintf("\nNamed operands: inline vs stored-ref PageRank fixpoint, %s, %d iterations/request\n",
		r.FixpointExpr, r.FixpointIters)
	out += render(r.Fixpoint)
	out += fmt.Sprintf("\nStored-ref fixpoint p50 speedup: %.2fx\n", r.FixpointSpeedup)
	out += fmt.Sprintf("\nStore accounting: %d ref hits, %d bind hits vs %d bind builds\n",
		r.RefHits, r.BindHits, r.BindBuilds)
	return out
}
