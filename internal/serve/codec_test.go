package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sam/internal/obs"
	"sam/internal/tensor"
)

// checkWireParity holds the decoders to the strict reference decode on one
// body, read as an evaluation and as a bare tensor, and nothing decoded may
// point into the body. DecodeEvaluate, the router's wire form, must give
// the same verdict, error text and value, down to nil-versus-empty slices
// and the sign of a zero. The shard's decodes, decodeEvaluation and
// decodeUpload, are held to decodeStrict followed by toCOO: the same
// verdict and 400 text, the same envelope, and per inline input the same
// conversion error or the same dims and points, bit for bit.
func checkWireParity(t *testing.T, data []byte) {
	t.Helper()
	check := func(kind string, want any, wantErr error, got any, gotErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %q: error %v, strict decode %v", kind, data, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q: decoded %+v, strict decode %+v", kind, data, got, want)
		}
		if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s %q: re-encodes to %s, strict decode to %s", kind, data, g, w)
		}
	}
	checkOperand := func(kind, name string, want, got operand) {
		t.Helper()
		if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
			t.Fatalf("%s %q input %q: conversion error %v, toCOO %v", kind, data, name, got.err, want.err)
		}
		if want.err != nil {
			return
		}
		if got.coo.Name != want.coo.Name || !reflect.DeepEqual(got.coo.Dims, want.coo.Dims) {
			t.Fatalf("%s %q input %q: %s%v, toCOO %s%v", kind, data, name, got.coo.Name, got.coo.Dims, want.coo.Name, want.coo.Dims)
		}
		if err := tensor.IdenticalBits(got.coo, want.coo); err != nil {
			t.Fatalf("%s %q input %q: %v", kind, data, name, err)
		}
	}
	scratch := bytes.Clone(data)
	clobber := func() {
		for i := range scratch {
			scratch[i] = '7'
		}
	}

	wantReq := new(EvaluateRequest)
	wantErr := decodeStrict(bytes.NewReader(data), wantReq)
	gotReq, gotErr := DecodeEvaluate(scratch)
	clobber()
	check("request", wantReq, wantErr, gotReq, gotErr)

	copy(scratch, data)
	shard, gotErr := decodeEvaluation(scratch)
	clobber()
	var gotEnv *EvaluateRequest
	if gotErr == nil {
		gotEnv = envelopeOf(&shard.wire)
	}
	check("shard request", envelopeOf(wantReq), wantErr, gotEnv, gotErr)
	if wantErr == nil {
		want := decoded(wantReq)
		if len(shard.operands) != len(want.operands) {
			t.Fatalf("shard request %q: %d operands, toCOO %d", data, len(shard.operands), len(want.operands))
		}
		for name, op := range want.operands {
			checkOperand("shard request", name, op, shard.operands[name])
		}
	}

	copy(scratch, data)
	wantT := new(WireTensor)
	wantErr = decodeStrict(bytes.NewReader(data), wantT)
	gotOp, gotErr := decodeUpload(scratch, "T")
	clobber()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("upload %q: error %v, strict decode %v", data, gotErr, wantErr)
	}
	if wantErr == nil {
		want := operand{err: errUploadRef}
		if wantT.Ref == "" {
			want.coo, want.err = wantT.toCOO("T")
		}
		checkOperand("upload", "T", want, *gotOp)
	}
}

// envelopeOf is what a decoded request keeps besides its operands: req
// without the coords and values of its inline inputs.
func envelopeOf(req *EvaluateRequest) *EvaluateRequest {
	env := *req
	if req.Inputs != nil {
		env.Inputs = make(map[string]WireTensor, len(req.Inputs))
		for name, wt := range req.Inputs {
			if wt.Ref == "" {
				wt.Coords, wt.Values = nil, nil
			}
			env.Inputs[name] = wt
		}
	}
	return &env
}

// wireRequestSeeds are the bodies FuzzWireRequest starts from: every row of
// wireErrorCases, the coords byte-boundary cases in each operand array, and
// the shapes the in-place decode must hand back to the reference decode.
func wireRequestSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, tc := range wireErrorCases {
		req := validWireRequest()
		tc.mutate(req)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, seed := range coordsSeeds {
		for _, tensor := range []string{
			`{"dims":[3,2],"coords":` + seed + `,"values":[1,2]}`,
			`{"dims":[3,2],"coords":[[0,0],[2,1]],"values":` + seed + `}`,
			`{"dims":` + seed + `,"coords":[[0,0],[2,1]],"values":[1,2]}`,
		} {
			seeds = append(seeds, []byte(tensor), []byte(`{"expr":"x(i) = B(i,j) * c(j)","inputs":{"B":`+tensor+`,"c":{"ref":"v"}}}`))
		}
	}
	// Operands the direct parse must hand to toCOO, each as an input and
	// as an upload: unsorted but unique, a repeat, out of range, the wrong
	// arity, counts that differ, a scalar with coords, null elements, a ref
	// beside inline data — and the clean shapes around them.
	for _, tensor := range []string{
		`{"dims":[3,2],"coords":[[2,1],[0,0],[1,1]],"values":[1,2,3]}`,
		`{"dims":[3,2],"coords":[[0,0],[1,1],[0,1]],"values":[1,-0,3]}`,
		`{"dims":[3,2],"coords":[[0,0],[2,1],[2,1]],"values":[1,2,3]}`,
		`{"dims":[3,2],"coords":[[1,1],[0,0],[1,1]],"values":[1,2,3]}`,
		`{"dims":[3,2],"coords":[[0,0],[3,0]],"values":[1,2]}`, `{"dims":[3,2],"coords":[[0,-1]],"values":[1]}`,
		`{"dims":[3,2],"coords":[[2,1],[0,0],[9,9]],"values":[1,2,3]}`,
		`{"dims":[3,2],"coords":[[0,0],[1]],"values":[1,2]}`, `{"dims":[3,2],"coords":[[0,0,0]],"values":[1]}`,
		`{"dims":[3],"coords":[[0],[1,0]],"values":[1,2]}`, `{"dims":[3,2],"coords":[[0,0],[]],"values":[1,2]}`,
		`{"dims":[3,2],"coords":[[0,0],[1,1]],"values":[1]}`, `{"dims":[3,2],"coords":[[0,0]],"values":[1,2]}`,
		`{"dims":[3,2],"coords":[[0,0]]}`, `{"dims":[3,2],"values":[1]}`, `{"dims":[3,2],"coords":[],"values":[]}`,
		`{"dims":[3,2],"coords":[],"values":[1]}`, `{"dims":[3,2]}`, `{"dims":[3,0],"coords":[[0,0]],"values":[1]}`,
		`{"dims":[],"coords":[[0]],"values":[1]}`, `{"coords":[[]],"values":[1]}`, `{"values":[4]}`, `{"values":[4,5]}`,
		`{"dims":[3,2],"coords":[null],"values":[1]}`, `{"dims":[3,2],"coords":[[0,null]],"values":[1]}`,
		`{"dims":[3,2],"coords":[[0,0],[1,1]],"values":[null,-0]}`, `{"dims":[3,2],"coords":null,"values":null}`,
		`{"dims":[null,2],"coords":[[0,0]],"values":[1]}`, `{"dims":[3,2],"coords":[[0,0],[1,1]],"values":[1,2],"ref":"v"}`,
		`{"ref":"v","dims":[3]}`, `{"ref":"v","values":[1]}`, `{"ref":"v","coords":[[0]]}`,
		`{"dims":[2,2],"coords":[[0,0],[0,1],[1,0],[1,1]],"values":[1.5,-2e-7,1e300,0.0]}`,
		`{"dims":[4],"coords":[[3]],"values":[1]}`, `{"dims":[2,3,4],"coords":[[0,2,3],[1,0,0]],"values":[7,8]}`,
		`{"dims":[3,2],"coords":[[0,0],[1,1],[2,1]],"values":[1,2,3]}`,
	} {
		seeds = append(seeds, []byte(tensor), []byte(`{"expr":"x(i) = B(i,j) * c(j)","inputs":{"B":`+tensor+`,"c":{"dims":[2],"coords":[[1]],"values":[5]}}}`))
	}
	const b = `{"dims":[3,2],"coords":[[0,0],[2,1]],"values":[1,2]}`
	for _, s := range []string{
		// Members that repeat: a second "inputs" merges into the first, a
		// repeated input replaces the earlier one whole, a repeated array is
		// decoded over the earlier one.
		`{"expr":"e","inputs":{"B":` + b + `},"inputs":{"c":{"ref":"v"}}}`,
		`{"expr":"e","inputs":{"B":` + b + `},"inputs":{"B":{"ref":"v"}}}`,
		`{"expr":"e","inputs":{"B":{"ref":"v"}},"INPUTS":{"B":` + b + `}}`,
		`{"expr":"e","inputs":{"B":` + b + `,"B":{"ref":"v"}}}`,
		`{"expr":"e","inputs":{"B":{"ref":"v"},"B":` + b + `}}`,
		`{"expr":"e","inputs":{"B":` + b + `,"B":{"dims":[4]}}}`,
		`{"expr":"e","inputs":{"B":{"dims":[3],"coords":[[0],[1],[2]],"coords":[[1]],"values":[5]}}}`,
		`{"expr":"e","inputs":{"B":{"dims":[3],"coords":[[1]],"COORDS":[[0],[1]],"values":[1,2,3],"Values":[4]}}}`,
		`{"dims":[3],"dims":[4,5],"values":[1,2,3],"values":[4]}`,
		// Keys the skim must not take at their word.
		`{"expr":"e","inputs":{"B":` + b + `},"inputs":{"B":{"ref":"v"}}}`,
		`{"expr":"e","inputs":{"B":{"dims":[3],"coords":[[1]],"coords":[[2]],"values":[1]}}}`,
		`{"expr":"e","inputs":{"B":{"ref":"v"},"B":` + b + `,"B":{"dims":[9]}}}`,
		`{"expr":"e","inputs":{"caf` + "\xc3\xa9" + `":` + b + `,"caf` + "\xff" + `":{"ref":"v"},"caf` + "\xfe" + `":` + b + `}}`,
		`{"expr":"e","input` + "\xc5\xbf" + `":{"B":` + b + `}}`,
		`{"expr":"e","inputs":{"B":{"dims":[3],"` + "\xe2\x84\xaa" + `oords":[[1]]}}}`,
		`{"expr":"e","inputs":{"B":{"dims":[1],"values":[1],"value` + "\xc5\xbf" + `":[2,3]}}}`,
		`{"expr":"e","inputs":{"":` + b + `}}`,
		// Case-folded keys and null arrays.
		`{"EXPR":"e","Inputs":{"b":{"DIMS":[3],"Coords":[[1]],"vaLues":[1],"REF":""}}}`,
		`{"expr":"e","inputs":{"B":{"dims":null,"coords":null,"values":null},"c":null}}`,
		`{"expr":"e","inputs":null}`,
		`{"dims":null,"coords":null,"values":null,"ref":null}`,
		// Values: every way to write a number, and the ways not to.
		`{"dims":[9],"coords":[[0],[1],[2],[3],[4],[5],[6],[7],[8]],"values":[1e2,-0,1.5e-7,0.0,-0.0e0,5E+3,123456789012345,1234567890123456,12345678901234567890]}`,
		`{"values":[1e999]}`, `{"values":[-1e999]}`, `{"values":[1e-999]}`, `{"values":[01]}`, `{"values":[-]}`, `{"values":[1.]}`,
		`{"values":[.5]}`, `{"values":[1e]}`, `{"values":[1e+]}`, `{"values":[+1]}`, `{"values":[1,]}`, `{"values":[,1]}`, `{"values":[1 2]}`,
		`{"values":["1"]}`, `{"values":[true]}`, `{"values":[null,2]}`, `{"values":[[1]]}`, `{"values":[{}]}`, `{"values":[1]x}`, `{"values":nullx}`,
		`{"values":[NaN]}`, `{"values":[Infinity]}`, `{"values":[0x10]}`, `{"values":[-null]}`, `{"values":[1]]}`, `{"values":[1}`,
		`{"dims":[1.0]}`, `{"dims":[9223372036854775808]}`, `{"dims":[-3]}`, `{"dims":[null]}`, `{"dims":["3"]}`, `{"dims":[3}`, `{"dims":{}}`,
		` { "dims" : [ 3 ] , "coords" : [ [ 1 ] ] , "values" : [ 1e-5 ] } `,
		// Whole-body shapes.
		`{"expr":"e","inputs":{"B":` + b + `}} trailing`, `{"expr":"e","inputs":{"B":` + b + `}}{"expr":"second"}`, b + `]`,
		`[1,2]`, `7`, `"x"`, `null`, ``, ` `, `{`, `{"inputs":{"B":{"dims":[3],"coords":[[1],[2`, `{"expr":"e","inputs":{"B":[1,2]}}`,
		`{"expr":"e","bogus":1,"inputs":{"B":` + b + `}}`, `{"expr":"e","inputs":{"B":{"dims":[3],"coordz":[[1]]}}}`,
		`{"expr":"e","schedule":{"parr":2},"inputs":{"B":` + b + `}}`, `{"expr":7,"inputs":{"B":` + b + `}}`,
		`{"dims":[3],"ref":7}`, `{"dims":[3],"bogus":[1]}`, `{"ref":"v"}`, `{}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return append(seeds, inlineSpMVBody(t, 60))
}

func TestWireDecodeMatchesStrict(t *testing.T) {
	for _, seed := range wireRequestSeeds(t) {
		checkWireParity(t, seed)
	}
}

// FuzzWireRequest holds DecodeEvaluate and decodeTensor to decodeStrict on
// arbitrary bytes.
func FuzzWireRequest(f *testing.F) {
	for _, seed := range wireRequestSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkWireParity(t, data) })
}

// TestWireDecodeInPlace checks that the bodies clients actually send take
// the direct path, not the exact one that would hide a broken skim or a
// broken operand parse behind a correct answer: a clean inline operand goes
// straight into its COO and leaves no coords or values on the wire tensor,
// and the reference decode of a 6 000-point operand costs thousands of
// allocations, the direct one a handful.
func TestWireDecodeInPlace(t *testing.T) {
	body := inlineSpMVBody(t, 6000)
	allocs := testing.AllocsPerRun(5, func() {
		req, err := decodeEvaluation(body)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		for name, nnz := range map[string]int{"B": 6000, "c": 6} {
			wt, op := req.wire.Inputs[name], req.operands[name]
			if op.err != nil || len(op.coo.Pts) != nnz || wt.Coords != nil || wt.Values != nil || len(wt.Dims) != op.coo.Order() {
				t.Fatalf("operand %s: %d points (err %v); wire keeps %d coords, %d values: not the direct path",
					name, len(op.coo.Pts), op.err, len(wt.Coords), len(wt.Values))
			}
		}
	})
	if allocs > 40 {
		t.Errorf("decodeEvaluation of a 6000-nnz body: %.0f allocs; it fell back to the reflected decode", allocs)
	}
}

// randomValue draws from the float64s whose text form has an edge: small
// integers, the neighbours of ±2^53 and of the 1e-6 / 1e21 format switches,
// both zeros, denormals, and raw bit patterns.
func randomValue(rng *rand.Rand) float64 {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), -(1<<53 - 1), -(1<<53 + 2),
		1e-6, 9.999999999999999e-7, 1e-7, 1.5e-7, 1e21, 9.999999999999999e20, 1e20, 1e22, -1e21, -1e-7,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e15, 1e16, 123456789012345678, 0.1, 0.5, -2.5, 1e-5, 1e100, 1e-100,
	}
	switch rng.Intn(4) {
	case 0:
		return float64(rng.Intn(2001) - 1000)
	case 1:
		return edges[rng.Intn(len(edges))]
	case 2:
		return math.Trunc((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24))))
	}
	for {
		if v := math.Float64frombits(rng.Uint64()); !math.IsInf(v, 0) && !math.IsNaN(v) {
			return v
		}
	}
}

func randomResponse(rng *rand.Rand) *EvaluateResponse {
	strs := []string{"", "hit", "comp", "<b>&amp;</b>", "a\"b\\c", " é\x00", "x(i) = B(i,j) * c(j)"}
	str := func() string { return strs[rng.Intn(len(strs))] }
	resp := &EvaluateResponse{
		Cycles: rng.Intn(3) * rng.Intn(1e6), Fingerprint: str(), Cache: str(), Engine: str(),
		SetupNS: rng.Int63n(1e9), ElapsedNS: rng.Int63n(1e9) - 5,
	}
	order := rng.Intn(4)
	out := &resp.Output
	for m := 0; m < order; m++ {
		out.Dims = append(out.Dims, 1+rng.Intn(1000))
	}
	n := rng.Intn(20)
	if order == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		out.Values = append(out.Values, randomValue(rng))
		if order > 0 {
			crd := make([]int64, order)
			for m := range crd {
				crd[m] = rng.Int63n(int64(out.Dims[m]))
			}
			out.Coords = append(out.Coords, crd)
		}
	}
	switch rng.Intn(8) {
	case 0: // an empty result keeps its dims and drops the rest
		out.Coords, out.Values = Coords{}, []float64{}
	case 1:
		out.Coords = append(out.Coords, nil, []int64{}, []int64{math.MinInt64, math.MaxInt64})
	case 2:
		out.Ref = str()
	}
	if rng.Intn(2) == 0 {
		resp.TraceID = str()
		resp.Trace = []obs.SpanData{{Name: str(), Parent: -1, StartNS: 5, DurNS: rng.Int63n(1e6)}, {Name: "run", Parent: 0}}
	}
	if rng.Intn(2) == 0 {
		resp.Tensors = map[string]TensorRef{str(): {Version: rng.Int63n(99), Fingerprint: str()}, "M": {Version: 1}}
	}
	if rng.Intn(2) == 0 {
		resp.Fixpoint = &FixpointInfo{Iterations: rng.Intn(9), Converged: rng.Intn(2) == 0, Deltas: []float64{randomValue(rng), 0.25}}
	}
	return resp
}

// TestEvaluateResponseBytesIdentical pins the appended response to the
// reflected one, byte for byte, over random responses.
func TestEvaluateResponseBytesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	prefix := []byte("kept")
	for i := 0; i < 3000; i++ {
		resp := randomResponse(rng)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatalf("response %d: encoding/json: %v", i, err)
		}
		got, err := AppendEvaluateResponse(prefix, resp)
		if err != nil || !bytes.Equal(got[len(prefix):], want.Bytes()) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("response %d: err %v\n got %s\nwant %s", i, err, got, want.Bytes())
		}
	}
}

// TestEvaluateResponseEncodeAllocs is the encode gate: a warm encode of a
// 5 000-point output allocates for the few fields after the tensor, never
// per point.
func TestEvaluateResponseEncodeAllocs(t *testing.T) {
	resp := &EvaluateResponse{
		Output: ToWire(tensor.UniformRandom("X", rand.New(rand.NewSource(2)), 5000, 90, 90)), Fingerprint: "f", Cache: "hit",
		Engine: "comp", SetupNS: 1, ElapsedNS: 2,
	}
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		out, err := AppendEvaluateResponse(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs > 4 {
		t.Errorf("encode of a 5000-point response: %.0f allocs, want <= 4", allocs)
	}
}

// TestDecodeDoesNotAliasBody runs a request whose body buffer is overwritten
// and handed back to the pool the moment the decode phase is over, as the
// handler's is: the request, its COO operands and the output it computes
// must be those of the untouched body.
func TestDecodeDoesNotAliasBody(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	body := inlineSpMVBody(t, 600)
	want := new(EvaluateRequest)
	if err := decodeStrict(bytes.NewReader(body), want); err != nil {
		t.Fatal(err)
	}
	wantReq := decoded(want)

	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write(body)
	req, err := decodeEvaluation(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	req.begin = time.Now()
	for i, b := range buf.Bytes() {
		buf.Bytes()[i] = b ^ 0x15 // digits become other digits and punctuation
	}
	bufPool.Put(buf)

	if !reflect.DeepEqual(&req.wire, envelopeOf(want)) {
		t.Errorf("request changed when its body was overwritten")
	}
	for name, op := range wantReq.operands {
		if got := req.operands[name]; got.err != nil || !reflect.DeepEqual(got.coo, op.coo) {
			t.Errorf("operand %s changed when the body was overwritten (err %v)", name, got.err)
		}
	}
	run := func(r *request) WireTensor {
		prep, err := s.prepare(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.admit(prep, true)
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		if j.errMsg != "" {
			t.Fatal(j.errMsg)
		}
		return j.resp.Output
	}
	if got, want := run(req), run(wantReq); len(want.Values) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("output %+v, want %+v", got, want)
	}
}

// TestNonFiniteOutputFails pins what an overflowed result is: the job's
// failure — 500 with the value named on /v1/evaluate, a failed job with the
// same text on /v1/jobs, one more in the failures counter — on both engines,
// straight to a shard and through the router. It used to be a 200 with no
// body, the header sent before the encoder found the value.
func TestNonFiniteOutputFails(t *testing.T) {
	shard, stop := startShardOn(t, "127.0.0.1:0", Config{})
	defer stop()
	_, router := startRouter(t, RouterConfig{Shards: []string{shard}})
	const want = `output value at coord [1] is +Inf: JSON cannot carry a non-finite number`
	failures := func() int64 {
		var st StatsResponse
		getJSON(t, shard+"/v1/stats", &st)
		return st.Failures
	}
	for _, engine := range []string{"event", "comp"} {
		body := []byte(`{"expr":"x(i) = B(i,j) * c(j)","options":{"engine":"` + engine + `"},"inputs":{` +
			`"B":{"dims":[3,2],"coords":[[0,0],[1,1]],"values":[2,1e308]},"c":{"dims":[2],"coords":[[0],[1]],"values":[3,1e308]}}}`)
		for _, base := range []string{shard, router.URL} {
			before := failures()
			resp, reply := postRaw(t, base+"/v1/evaluate", body)
			var e ErrorResponse
			if err := json.Unmarshal(reply, &e); resp.StatusCode != http.StatusInternalServerError || err != nil || e.Error != want {
				t.Errorf("%s evaluate via %s: status %d, body %q; want 500 %q", engine, base, resp.StatusCode, reply, want)
			}
			var jr JobResponse
			if resp, reply := postRaw(t, base+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted || json.Unmarshal(reply, &jr) != nil {
				t.Fatalf("%s submit via %s: status %d, body %q", engine, base, resp.StatusCode, reply)
			}
			for deadline := time.Now().Add(10 * time.Second); jr.Status != "failed" && jr.Status != "done" && time.Now().Before(deadline); {
				time.Sleep(2 * time.Millisecond)
				getJSON(t, base+"/v1/jobs/"+jr.ID, &jr)
			}
			if jr.Status != "failed" || jr.Error != want || jr.Result != nil {
				t.Errorf("%s job via %s: %+v; want failed with %q", engine, base, jr, want)
			}
			if got := failures() - before; got != 2 {
				t.Errorf("%s via %s: failures counter moved by %d, want 2", engine, base, got)
			}
		}
	}

	// The router's own replies (a merged tiled result) go through the same
	// writer: what cannot be encoded is a 500 that says so.
	for _, v := range []float64{math.Inf(-1), math.NaN()} {
		rec := httptest.NewRecorder()
		writeEvaluateResponse(rec, &EvaluateResponse{Output: WireTensor{Values: []float64{v}}})
		if msg := fmt.Sprintf("output value at coord [] is %v", v); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), msg) {
			t.Errorf("%v: status %d, body %q; want 500 naming the value", v, rec.Code, rec.Body)
		}
	}
}

// TestJobReplyNonFiniteDelta pins the job poll's encoding: a finished job
// whose fixpoint deltas hold a NaN answers GET /v1/jobs/{id} with a 500 in
// the error shape, not a 200 whose body stops where the encoder did.
func TestJobReplyNonFiniteDelta(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.mu.Lock()
	s.jobs["jnan"] = &job{id: "jnan", status: "done", resp: &EvaluateResponse{
		Fixpoint: &FixpointInfo{Iterations: 2, Deltas: []float64{0.5, math.NaN()}},
	}}
	s.mu.Unlock()
	resp, err := http.Get(ts.URL + "/v1/jobs/jnan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(e.Error, "NaN") {
		t.Errorf("status %d, body %q; want 500 with an error naming the NaN", resp.StatusCode, body)
	}
}
