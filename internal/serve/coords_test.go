package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sam/internal/tensor"
)

// coordsSeeds are the byte-boundary cases of the coords decoder: the fuzz
// corpus, and a table the unit test below holds to encoding/json too.
var coordsSeeds = []string{
	`null`, `[]`, `[[]]`, `[[1,2],[3,4]]`, ` [ [ 1 , 2 ] ,` + "\n\t\r" + `[ 3 , 4 ] ] `,
	`[[1.0]]`, `[[1e2]]`, `[[01]]`, `[[-0]]`, `[[-7, 0]]`,
	`[[9223372036854775807]]`, `[[-9223372036854775808]]`, `[[9223372036854775808]]`, `[[123456789012345678901]]`,
	`[[1,2],[3`, `[[1,2]`, `[`, ``, `[[1,2],]`, `[[1,,2]]`, `[[1 2]]`, `[[1]] x`,
	`[["1"]]`, `[[true]]`, `[[null]]`, `[null]`, `[[{}]]`, `[[[1]]]`, `[1]`, `["a"]`, `{}`, `"x"`, `7`, `true`,
	`[[-]]`, `[[1.]]`, `[[1e]]`, `[[+1]]`, `[[0x1]]`, `nul`, `[nul]`,
}

// checkCoordsParity decodes data with the hand-written decoder, called
// directly and through encoding/json, and with encoding/json into a plain
// [][]int64: all three must agree on accept/reject and on the values.
func checkCoordsParity(t *testing.T, data []byte) {
	t.Helper()
	var plain [][]int64
	wantErr := json.Unmarshal(data, &plain)

	var direct Coords
	gotErr := direct.UnmarshalJSON(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: Coords.UnmarshalJSON err=%v, encoding/json err=%v", data, gotErr, wantErr)
	}
	var through Coords
	if err := json.Unmarshal(data, &through); (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: json.Unmarshal into Coords err=%v, into [][]int64 err=%v", data, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual([][]int64(direct), plain) || !reflect.DeepEqual([][]int64(through), plain) {
		t.Fatalf("%q: decoded %#v (direct) / %#v (through json), want %#v", data, direct, through, plain)
	}
	// Tuples share one backing array; a caller appending to one must not
	// write into its neighbour.
	for i := range direct {
		if len(direct[i]) != cap(direct[i]) {
			t.Fatalf("%q: tuple %d has spare capacity %d", data, i, cap(direct[i])-len(direct[i]))
		}
	}
}

func TestCoordsDecodeMatchesEncodingJSON(t *testing.T) {
	for _, seed := range coordsSeeds {
		checkCoordsParity(t, []byte(seed))
	}
}

// FuzzWireCoords holds the coords decoder to encoding/json on arbitrary
// bytes: same verdict, same values, no panic.
func FuzzWireCoords(f *testing.F) {
	for _, seed := range coordsSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCoordsParity(t, data) })
}

// TestCoordsErrorText pins the 400 a client gets for a coordinate that is
// not a JSON integer: with the decoder swapped the text must be what
// encoding/json always said, field path included.
func TestCoordsErrorText(t *testing.T) {
	type plainTensor struct {
		Coords [][]int64 `json:"coords"`
	}
	type plainRequest struct {
		Inputs map[string]plainTensor `json:"inputs"`
	}
	for _, coords := range []string{
		`[[1.5,0]]`, `[[1e2,0]]`, `[["1",0]]`, `[[true,0]]`, `[[{},0]]`, `[[[1],0]]`,
		`[[9223372036854775808,0]]`, `[7]`, `["a"]`, `[{}]`, `"x"`, `{}`, `7`,
	} {
		body := `{"inputs":{"B":{"coords":` + coords + `}}}`
		var plain plainRequest
		want := json.Unmarshal([]byte(body), &plain)
		var req EvaluateRequest
		got := json.Unmarshal([]byte(body), &req)
		if want == nil || got == nil {
			t.Errorf("%s: want a type error from both decoders, got %v and %v", coords, want, got)
			continue
		}
		// The struct name differs (the twin is a local type); the rest must not.
		wantText := strings.Replace(want.Error(), "plainTensor", "WireTensor", 1)
		if got.Error() != wantText {
			t.Errorf("%s:\n got %q\nwant %q", coords, got, wantText)
		}
	}
}

// TestCoordsMarshalIdentical pins the response bytes: a Coords marshals
// exactly as the [][]int64 it replaced (it needs no marshaler of its own —
// the reflected encoder already costs no allocation per point).
func TestCoordsMarshalIdentical(t *testing.T) {
	for _, c := range [][][]int64{nil, {}, {{}}, {nil}, {{0}}, {{1, 2}, {-3, 4}}, {{9223372036854775807, -9223372036854775808}}} {
		want, _ := json.Marshal(c)
		got, err := json.Marshal(Coords(c))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: Coords marshals to %s (err %v), [][]int64 to %s", c, got, err, want)
		}
		wantT, _ := json.Marshal(struct {
			C [][]int64 `json:"coords,omitempty"`
		}{c})
		gotT, _ := json.Marshal(WireTensor{Coords: c})
		if !bytes.Equal(gotT, wantT) {
			t.Errorf("%v: WireTensor marshals to %s, want %s", c, gotT, wantT)
		}
	}
}

// TestToCOOUnsortedOperand drives the path a sorted operand never takes:
// out-of-order coordinates are legal, and a repeat among them is reported
// with the indices of the repeat and of its first occurrence.
func TestToCOOUnsortedOperand(t *testing.T) {
	w := WireTensor{Dims: []int{4, 4}, Coords: [][]int64{{0, 1}, {2, 0}, {1, 3}, {3, 3}}, Values: []float64{1, 2, 3, 4}}
	coo, err := w.toCOO("B")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range coo.Pts {
		if !reflect.DeepEqual(p.Crd, []int64(w.Coords[i])) || p.Val != w.Values[i] {
			t.Errorf("point %d = %v, want %v %g", i, p, w.Coords[i], w.Values[i])
		}
	}
	for _, tc := range []struct {
		coords [][]int64
		want   string
	}{
		{[][]int64{{0, 1}, {0, 1}}, "coord 1 duplicates coord 0 ([0 1])"},
		{[][]int64{{0, 1}, {2, 0}, {1, 3}, {2, 0}}, "coord 3 duplicates coord 1 ([2 0])"},
		{[][]int64{{1, 1}, {2, 2}, {0, 0}, {3, 3}, {1, 1}}, "coord 4 duplicates coord 0 ([1 1])"},
		// Errors surface in coordinate order: the repeat at 2 before the range error at 3.
		{[][]int64{{1, 1}, {0, 0}, {1, 1}, {9, 9}}, "coord 2 duplicates coord 0 ([1 1])"},
	} {
		w := WireTensor{Dims: []int{4, 4}, Coords: tc.coords, Values: make([]float64, len(tc.coords))}
		if _, err := w.toCOO("B"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.coords, err, tc.want)
		}
	}
}

// inlineSpMVBody is an SpMV request with an nnz-point order-2 operand.
func inlineSpMVBody(t testing.TB, nnz int) []byte {
	rng := rand.New(rand.NewSource(int64(nnz)))
	req := &EvaluateRequest{
		Expr: "x(i) = B(i,j) * c(j)",
		Inputs: map[string]WireTensor{
			"B": ToWire(tensor.UniformRandom("B", rng, nnz, 400, 300)),
			"c": ToWire(tensor.UniformRandom("c", rng, 6, 300)),
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestInlineOperandDecodeAllocs is the shard's alloc gate: decoding a
// 6 000-point order-2 upload straight into its COO costs a fixed handful of
// allocations, not several per point (≈ 42 k before the coords decoder and
// the neighbour-compare duplicate check, ≈ 50 while encoding/json still
// reflected the values out), and its bytes are the points and one slab of
// coordinates: a per-point header slice or a second copy of the points
// (another 144 KB or 192 KB here) fails the bound.
func TestInlineOperandDecodeAllocs(t *testing.T) {
	const nnz, order = 6000, 2
	body, err := json.Marshal(ToWire(tensor.UniformRandom("B", rand.New(rand.NewSource(1)), nnz, 400, 300)))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		op, err := decodeUpload(body, "B")
		if err != nil || op.err != nil || len(op.coo.Pts) != nnz {
			t.Fatalf("decode: err %v, %v", err, op)
		}
	}
	if allocs := testing.AllocsPerRun(20, decode); allocs > 16 {
		t.Errorf("decode of a 6000-nnz operand into its COO: %.0f allocs, want <= 16", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	perPoint := int(unsafe.Sizeof(tensor.Point{})) + order*8
	got, bound := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(nnz*perPoint+16<<10)
	t.Logf("decode of a 6000-nnz operand into its COO: %d B (bound %d)", got, bound)
	if got > bound {
		t.Errorf("decode of a 6000-nnz operand into its COO: %d B, want <= %d (%d B a point and 16 KB)", got, bound, perPoint)
	}
}

// TestRouteDecisionAllocs is the router's alloc gate: reading the envelope
// and computing the routing key costs the same for a 600-point and a
// 6 000-point body — the hop does not scale with the operands.
func TestRouteDecisionAllocs(t *testing.T) {
	decide := func(body []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			env := readEnvelope(body)
			if env == nil || env.Inputs["B"].inline() {
				t.Fatal("no envelope, or an operand survived the skim")
			}
			if key := routingKey(env, body); strings.HasPrefix(key, "body:") {
				t.Fatalf("request not keyed: %s", key)
			}
		})
	}
	small, large := decide(inlineSpMVBody(t, 600)), decide(inlineSpMVBody(t, 6000))
	if raceEnabled {
		// The race detector makes sync.Pool drop a share of its Puts, so the
		// two counts jitter by one; the non-race alloc-gate CI task is the
		// gate, and this run still drove both decisions under -race.
		return
	}
	if small != large {
		t.Errorf("route decision: %.0f allocs for 600 nnz, %.0f for 6000 nnz; want equal", small, large)
	}
}
