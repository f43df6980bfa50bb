package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"

	"sam/internal/core"
	"sam/internal/fiber"
	"sam/internal/lang"
	"sam/internal/obs"
	"sam/internal/opt"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// WireTensor is the COO tensor wire format: parallel coordinate and value
// lists. An order-0 tensor (a scalar operand) has empty dims, no coords, and
// exactly one value. As an evaluation input it may instead carry Ref — the
// name of a tensor previously uploaded with PUT /v1/tensors/{name} — and no
// inline data; the server resolves the stored tensor and stamps its version
// and fingerprint into the response.
type WireTensor struct {
	Dims   []int     `json:"dims,omitempty"`
	Coords Coords    `json:"coords,omitempty"`
	Values []float64 `json:"values,omitempty"`
	Ref    string    `json:"ref,omitempty"`
}

// Coords is the coordinate list of a COO wire tensor, one tuple per stored
// point: a plain [][]int64 to build, index and range. Only its JSON decoder
// is special — the per-nonzero part of every inline operand goes through it,
// so it parses the list in one pass into tuples sliced from one flat backing
// array (two allocations however many points) where encoding/json would
// reflect out one slice per point. It accepts and rejects exactly what
// encoding/json does for a [][]int64, with the same error text.
type Coords [][]int64

// UnmarshalJSON implements json.Unmarshaler.
func (c *Coords) UnmarshalJSON(data []byte) error {
	p := coordsParser{cursor{b: data}}
	p.ws()
	if p.literal("null") {
		*c = nil
		return p.end()
	}
	if !p.eat('[') {
		return p.unexpected(reflect.TypeFor[[][]int64]())
	}
	// Every tuple opens a bracket and every coordinate but a tuple's first
	// follows a comma, so these two counts bound the allocations exactly for
	// the well-formed list; a malformed one just appends past them.
	out := make(Coords, 0, max(bytes.Count(data, []byte{'['})-1, 0))
	flat := make([]int64, 0, bytes.Count(data, []byte{','})+1)
	for first := true; ; first = false {
		if more, err := p.more(first); err != nil {
			return err
		} else if !more {
			break
		}
		switch {
		case p.literal("null"):
			out = append(out, nil)
		case p.eat('['):
			// The per-coordinate loop: more, spelled out.
			start := len(flat)
			for p.ws(); !p.eat(']'); p.ws() {
				if len(flat) > start {
					if !p.eat(',') {
						return p.syntax()
					}
					p.ws()
				}
				v, err := p.int64()
				if err != nil {
					return err
				}
				flat = append(flat, v)
			}
			out = append(out, flat[start:len(flat):len(flat)])
		default:
			return p.unexpected(reflect.TypeFor[[]int64]())
		}
	}
	*c = out
	return p.end()
}

// coordsParser is the cursor of Coords.UnmarshalJSON.
type coordsParser struct{ cursor }

// more steps to the next element of the array the cursor is inside: past
// the comma if there is one, false once past the closing bracket.
func (p *coordsParser) more(first bool) (bool, error) {
	p.ws()
	switch {
	case p.eat(']'):
		return false, nil
	case first:
		return true, nil
	case p.eat(','):
		p.ws()
		return true, nil
	}
	return false, p.syntax()
}

func (p *coordsParser) literal(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// end requires that only whitespace follows the list.
func (p *coordsParser) end() error {
	if p.ws(); p.i < len(p.b) {
		return p.syntax()
	}
	return nil
}

// syntax reports malformed JSON. encoding/json validates a value before it
// hands it to an Unmarshaler, so only a direct call gets here.
func (p *coordsParser) syntax() error {
	if p.i >= len(p.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("coords: invalid character %q at offset %d", p.b[p.i], p.i)
}

// unexpected reports the value at the cursor, which is not what a [][]int64
// holds there, the way encoding/json names it.
func (p *coordsParser) unexpected(want reflect.Type) error {
	if p.i >= len(p.b) {
		return io.ErrUnexpectedEOF
	}
	var kind string
	switch c := p.b[p.i]; {
	case c == '"':
		kind = "string"
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || c-'0' < 10:
		kind = "number"
	default:
		return p.syntax()
	}
	return &json.UnmarshalTypeError{Value: kind, Type: want}
}

// int64 parses one coordinate: a JSON number that is an integer in range.
// null leaves the zero value, as it does for encoding/json.
func (p *coordsParser) int64() (int64, error) {
	start := p.i
	neg := p.eat('-')
	digits := p.i
	var n int64
	for ; p.i < len(p.b) && p.b[p.i]-'0' < 10; p.i++ {
		n = n*10 + int64(p.b[p.i]-'0')
	}
	switch ndigits := p.i - digits; {
	case ndigits == 0:
		if p.i = start; p.literal("null") {
			return 0, nil
		}
		return 0, p.unexpected(reflect.TypeFor[int64]())
	case ndigits > 1 && p.b[digits] == '0':
		p.i = digits + 1
		return 0, p.syntax()
	case p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E'):
		// A fraction or an exponent: well-formed or not, not an integer.
		for p.i < len(p.b) && bytes.IndexByte([]byte("+-.eE0123456789"), p.b[p.i]) >= 0 {
			p.i++
		}
		return 0, &json.UnmarshalTypeError{Value: "number " + string(p.b[start:p.i]), Type: reflect.TypeFor[int64]()}
	case ndigits > 18:
		// Past 18 digits n may have wrapped; let strconv find the edge.
		v, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
		if err != nil {
			return 0, &json.UnmarshalTypeError{Value: "number " + string(p.b[start:p.i]), Type: reflect.TypeFor[int64]()}
		}
		return v, nil
	}
	if neg {
		n = -n
	}
	return n, nil
}

// float64 parses one value: an integer of at most 15 digits is its own
// float64, any other JSON number goes to strconv, range error included.
func (p *coordsParser) float64() (float64, bool) {
	start := p.i
	neg := p.eat('-')
	digits := p.i
	var n int64
	for ; p.i < len(p.b) && p.b[p.i]-'0' < 10; p.i++ {
		n = n*10 + int64(p.b[p.i]-'0')
	}
	ndigits := p.i - digits
	if ndigits == 0 || ndigits > 1 && p.b[digits] == '0' {
		return 0, ndigits == 0 && !neg && p.literal("null")
	}
	if ndigits > 15 || p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i]|0x20 == 'e') {
		for p.i < len(p.b) && (p.b[p.i]-'0' < 10 || bytes.IndexByte([]byte("+-.eE"), p.b[p.i]) >= 0) {
			p.i++
		}
		// Of these characters, after these digits, strconv takes what JSON
		// takes and one thing more: a point with no digit behind it.
		tok := p.b[start:p.i]
		dot := bytes.IndexByte(tok, '.') + 1
		f, err := strconv.ParseFloat(string(tok), 64)
		return f, err == nil && (dot == 0 || dot < len(tok) && tok[dot]-'0' < 10)
	}
	f := float64(n)
	if neg {
		f = -f // -0 keeps its sign
	}
	return f, true
}

// numbers parses the whole of p as a JSON array of what elem parses, or as
// null: the dims and the values of an operand, read where they lie.
func numbers[T any](p *coordsParser, elem func() (T, bool)) ([]T, bool) {
	if !p.eat('[') {
		return nil, p.literal("null") && p.i == len(p.b)
	}
	out := make([]T, 0, bytes.Count(p.b, []byte{','})+1)
	for first := true; ; first = false {
		if more, err := p.more(first); err != nil || !more {
			return out, err == nil && p.i == len(p.b)
		}
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
}

// inline reports whether any inline tensor data is present; a well-formed
// input carries either a ref or inline data, never both.
func (w WireTensor) inline() bool {
	return len(w.Dims) > 0 || len(w.Coords) > 0 || len(w.Values) > 0
}

// WireFormat is one tensor's format specification on the wire: per-level
// storage format names ("dense", "compressed", "bitvector", "linkedlist")
// and an optional explicit mode order.
type WireFormat struct {
	Levels    []string `json:"levels"`
	ModeOrder []int    `json:"mode_order,omitempty"`
}

// WireSchedule mirrors lang.Schedule on the wire.
type WireSchedule struct {
	LoopOrder   []string `json:"loop_order,omitempty"`
	UseLocators bool     `json:"use_locators,omitempty"`
	UseSkip     bool     `json:"use_skip,omitempty"`
	Par         int      `json:"par,omitempty"`
	// Opt selects the graph-optimization level (internal/opt): 0 compiles
	// the paper-faithful graph, 1 runs the rewrite pipeline. Omitted means
	// the server's configured default (Config.DefaultOpt). The resolved
	// level is part of the program-cache key, so requests at different
	// levels never alias.
	Opt *int `json:"opt,omitempty"`
}

// WireOptions carries the per-request simulation options.
type WireOptions struct {
	// Engine selects the executor: "event" (default) or "comp" (the
	// compiled co-iteration engine; with an artifact dir configured,
	// comp requests can be served from the disk cache without recompiling).
	Engine string `json:"engine,omitempty"`
	// MaxCycles aborts runaway simulations; 0 means the engine default.
	MaxCycles int `json:"max_cycles,omitempty"`
}

// WireFixpoint asks for iterative evaluation: the compiled program is run
// repeatedly and its output folded back into the input named Var until
// convergence (see sim.Fixpoint). Stored-tensor refs make this the cheap
// loop it should be: static operands upload once, bind once, and every
// iteration pays only the run itself.
type WireFixpoint struct {
	// Var names the state input the update rule rewrites between
	// iterations (an order-1 tensor; inline or a ref).
	Var string `json:"var"`
	// MaxIters bounds the iteration count; required, in [1, 100000].
	MaxIters int `json:"max_iters"`
	// Tol stops iteration once one update's L1 delta falls to or below it;
	// 0 runs exactly MaxIters iterations.
	Tol float64 `json:"tol,omitempty"`
	// Mode selects the update rule: "power" (default), "pagerank", or
	// "reach".
	Mode string `json:"mode,omitempty"`
	// Damping is the pagerank damping factor; 0 means 0.85.
	Damping float64 `json:"damping,omitempty"`
}

// toFixpoint converts and validates the wire spec.
func (w *WireFixpoint) toFixpoint() (*sim.Fixpoint, error) {
	if w == nil {
		return nil, nil
	}
	fx := sim.Fixpoint{Var: w.Var, MaxIters: w.MaxIters, Tol: w.Tol, Mode: w.Mode, Damping: w.Damping}
	if err := fx.Validate(); err != nil {
		return nil, err
	}
	return &fx, nil
}

// EvaluateRequest is the body of POST /v1/evaluate and POST /v1/jobs.
type EvaluateRequest struct {
	Expr     string                `json:"expr"`
	Formats  map[string]WireFormat `json:"formats,omitempty"`
	Schedule *WireSchedule         `json:"schedule,omitempty"`
	Options  *WireOptions          `json:"options,omitempty"`
	Inputs   map[string]WireTensor `json:"inputs"`
	// Fixpoint, when set, runs the program iteratively instead of once.
	Fixpoint *WireFixpoint `json:"fixpoint,omitempty"`
}

// plan is what an evaluation request asks for, as far as its envelope says.
// It is the one request → plan stage: the shard resolves its program from it
// (Server.prepare), the router hashes its key (routingKey) and hands its
// statement to the tile algebra, so the two cannot disagree about what a
// request means or in which order it is found wanting.
type plan struct {
	e       *lang.Einsum
	formats lang.Formats
	sched   lang.Schedule
	opt     sim.Options
	key     string
}

// plan validates the envelope and builds the plan. defaultOpt is the
// optimization level of a schedule that names none. The order of the checks
// is the order clients see errors in, pinned by wireErrorCases.
func (req *EvaluateRequest) plan(defaultOpt int) (*plan, error) {
	if req.Expr == "" {
		return nil, fmt.Errorf("expr is required")
	}
	formats, err := toFormats(req.Formats)
	if err != nil {
		return nil, err
	}
	sched, err := req.Schedule.toSchedule(defaultOpt)
	if err != nil {
		return nil, err
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		return nil, err
	}
	e, err := lang.Parse(req.Expr)
	if err != nil {
		return nil, err
	}
	// Reject format entries for tensors the statement never names: the
	// compiler would silently ignore them (a typo'd name compiles with
	// default formats) and the stray key would fragment the program cache.
	if len(formats) > 0 {
		named := map[string]bool{e.LHS.Tensor: true}
		for _, a := range e.Accesses() {
			named[a.Tensor] = true
		}
		for name := range formats {
			if !named[name] {
				return nil, fmt.Errorf("format for %q names no tensor of %s", name, e)
			}
		}
	}
	return &plan{e: e, formats: formats, sched: sched, opt: opt, key: lang.CanonicalKey(e, formats, sched)}, nil
}

// TensorInfo describes one stored tensor: the body of PUT and GET
// /v1/tensors/{name}.
type TensorInfo struct {
	Name string `json:"name"`
	// Version increments on every PUT (store-wide monotonic); a client
	// comparing it against the version stamped in an evaluation response
	// detects concurrent replacement.
	Version int64 `json:"version"`
	// Fingerprint hashes the tensor content (dims, coords, value bits):
	// identical uploads fingerprint identically across versions.
	Fingerprint string `json:"fingerprint"`
	Dims        []int  `json:"dims"`
	NNZ         int    `json:"nnz"`
	// Bytes is the store's resident-size estimate charged to the budget.
	Bytes int64 `json:"bytes"`
	// Data is the tensor itself, included by GET /v1/tensors/{name}?data=1.
	Data *WireTensor `json:"data,omitempty"`
	// Tiles lists the per-shard row-block tile names of a tensor the router
	// split across the fleet (router mode only; empty for plain tensors).
	Tiles []string `json:"tiles,omitempty"`
}

// TensorRef stamps which stored tensor version served a {"ref": name}
// input, so clients detect replacement that raced their evaluation.
type TensorRef struct {
	Version     int64  `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// FixpointInfo reports the iterative driver's outcome in an evaluation
// response.
type FixpointInfo struct {
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	// Deltas is the L1 step delta of every iteration, in order.
	Deltas []float64 `json:"deltas"`
}

// EvaluateResponse is the body of a successful evaluation.
type EvaluateResponse struct {
	// Cycles is the simulated execution time (0 on the comp engine, which
	// computes functional results only — see sim.EngineComp).
	Cycles int `json:"cycles"`
	// Output is the result tensor in the declared left-hand-side order.
	Output WireTensor `json:"output"`
	// Fingerprint is the compiled graph's canonical fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Cache reports where the compiled program came from: "hit" (in-memory
	// LRU), "disk" (decoded from the persistent artifact store), or "miss"
	// (compiled for this request).
	Cache string `json:"cache"`
	// Engine names the executor that ran the request (the resolved default
	// when options.engine was omitted).
	Engine string `json:"engine"`
	// SetupNS is the program-resolution time in nanoseconds: parse plus
	// cache lookup on a hit, parse plus compile plus program build on a
	// miss. The warm/cold setup ratio is the cache's value.
	SetupNS int64 `json:"setup_ns"`
	// ElapsedNS is the full server-side request time in nanoseconds, from
	// the first read of the body through completion (decode, admission,
	// queue wait, and execution included).
	ElapsedNS int64 `json:"elapsed_ns"`
	// TraceID and Trace are set when the request asked for phase tracing
	// (?trace=1): the per-request trace identifier and the recorded span
	// breakdown — decode (body read, JSON, inline operands to COO),
	// admission (with cache_lookup and compile or disk_load children),
	// queue_wait, and the engine's phases (bind, run with per-lane
	// children, assemble). Span parent indices refer into the
	// same slice; -1 marks a top-level span.
	TraceID string         `json:"trace_id,omitempty"`
	Trace   []obs.SpanData `json:"trace,omitempty"`
	// Tensors stamps, per {"ref": name} input, the stored tensor version
	// and content fingerprint that served it; absent when every input was
	// inline.
	Tensors map[string]TensorRef `json:"tensors,omitempty"`
	// Fixpoint reports the iterative driver's convergence when the request
	// carried a fixpoint spec; Cycles and Output then cover the whole
	// iteration, not one run.
	Fixpoint *FixpointInfo `json:"fixpoint,omitempty"`
}

// JobResponse is the body of POST /v1/jobs and GET /v1/jobs/{id}.
type JobResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "queued", "running", "done", "failed"
	// TraceID is set on submission when the job asked for phase tracing
	// (?trace=1); the full span breakdown arrives in Result once done.
	TraceID string `json:"trace_id,omitempty"`
	// Result is set once Status is "done".
	Result *EvaluateResponse `json:"result,omitempty"`
	// Error is set once Status is "failed".
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ProbeResponse is the body of GET /healthz and GET /readyz: "ok" from the
// liveness probe; "ready", "warming", or "draining" from the readiness
// probe (the latter two with status 503).
type ProbeResponse struct {
	Status string `json:"status"`
}

// HistogramSnapshot is a mergeable latency histogram on the wire: bucket
// upper bounds in seconds and non-cumulative per-bucket counts with the
// final +Inf bucket last (len(buckets)+1 entries). Two snapshots with the
// same bucket layout merge exactly by summing counts element-wise — the
// router's shard-aggregation path, which must never average percentiles.
type HistogramSnapshot struct {
	Buckets []float64 `json:"buckets"`
	Counts  []int64   `json:"counts"`
	Sum     float64   `json:"sum"`
	Count   int64     `json:"count"`
}

// toCOO validates and converts a wire tensor. The COO is built over the wire
// tensor's coordinate tuples, not a copy of them.
func (w WireTensor) toCOO(name string) (*tensor.COO, error) {
	for _, d := range w.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("input %q: non-positive dimension %d", name, d)
		}
	}
	if len(w.Dims) == 0 {
		if len(w.Values) != 1 || len(w.Coords) != 0 {
			return nil, fmt.Errorf("input %q: a scalar (order-0) tensor needs exactly one value and no coords", name)
		}
		t := tensor.NewCOO(name)
		t.Append(w.Values[0])
		return t, nil
	}
	if len(w.Coords) != len(w.Values) {
		return nil, fmt.Errorf("input %q: %d coords but %d values", name, len(w.Coords), len(w.Values))
	}
	t := tensor.NewCOO(name, w.Dims...)
	t.Pts = make([]tensor.Point, len(w.Coords))
	// Strictly ascending coordinates cannot repeat, so a sorted operand — what
	// every client of ours sends — is checked for duplicates by comparing
	// neighbours. seen is built only from the first out-of-order tuple on.
	var seen map[string]int
	for i, crd := range w.Coords {
		if len(crd) != len(w.Dims) {
			return nil, fmt.Errorf("input %q: coord %d has arity %d, want %d", name, i, len(crd), len(w.Dims))
		}
		for m, c := range crd {
			if c < 0 || c >= int64(w.Dims[m]) {
				return nil, fmt.Errorf("input %q: coord %d mode %d = %d outside [0,%d)", name, i, m, c, w.Dims[m])
			}
		}
		if seen == nil && i > 0 && slices.Compare(w.Coords[i-1], crd) >= 0 {
			seen = make(map[string]int, len(w.Coords))
			for j, prev := range w.Coords[:i] {
				seen[core.PackKey(prev)] = j
			}
		}
		if seen != nil {
			key := core.PackKey(crd)
			if j, dup := seen[key]; dup {
				return nil, fmt.Errorf("input %q: coord %d duplicates coord %d (%v); COO inputs must have unique coordinates", name, i, j, crd)
			}
			seen[key] = i
		}
		t.Pts[i] = tensor.Point{Crd: crd, Val: w.Values[i]}
	}
	return t, nil
}

// ToWire puts a COO tensor on the wire, sharing its coordinate tuples.
func ToWire(t *tensor.COO) WireTensor {
	w := WireTensor{Dims: t.Dims, Values: make([]float64, 0, len(t.Pts))}
	if t.Order() > 0 {
		w.Coords = make(Coords, 0, len(t.Pts))
	}
	for _, p := range t.Pts {
		if t.Order() > 0 {
			w.Coords = append(w.Coords, p.Crd)
		}
		w.Values = append(w.Values, p.Val)
	}
	return w
}

// AppendEvaluateResponse appends what json.NewEncoder(w).Encode(resp) writes,
// newline included: the head and the output tensor by appending, the fields
// after it by encoding/json (resp with an empty output marshals to the same
// head, "{}", and that tail). A value JSON cannot carry is an error.
func AppendEvaluateResponse(dst []byte, resp *EvaluateResponse) ([]byte, error) {
	shell := *resp
	shell.Output = WireTensor{}
	rest, err := json.Marshal(&shell)
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(strconv.AppendInt(append(dst, `{"cycles":`...), int64(resp.Cycles), 10), `,"output":`...)
	rest = rest[len(dst)-start+len(`{}`):]
	if dst, err = appendTensor(dst, &resp.Output); err != nil {
		return dst, err
	}
	return append(append(dst, rest...), '\n'), nil
}

// appendTensor appends w as encoding/json marshals it.
func appendTensor(dst []byte, w *WireTensor) ([]byte, error) {
	dst = append(dst, '{')
	if len(w.Dims) > 0 {
		dst = append(appendInts(append(dst, `"dims":`...), w.Dims), ',')
	}
	if len(w.Coords) > 0 {
		dst = append(dst, `"coords":[`...)
		for _, crd := range w.Coords {
			dst = append(appendInts(dst, crd), ',')
		}
		dst = append(dst[:len(dst)-1], "],"...)
	}
	if len(w.Values) > 0 {
		dst = append(dst, `"values":[`...)
		for _, v := range w.Values {
			if i := int64(v); float64(i) == v && math.Abs(v) < 1<<53 && (i != 0 || !math.Signbit(v)) {
				dst = strconv.AppendInt(dst, i, 10)
			} else if math.IsInf(v, 0) || math.IsNaN(v) {
				return dst, checkFinite(w)
			} else {
				dst = appendFloat(dst, v)
			}
			dst = append(dst, ',')
		}
		dst = append(dst[:len(dst)-1], "],"...)
	}
	if w.Ref != "" {
		ref, _ := json.Marshal(w.Ref) // a string always marshals
		dst = append(append(append(dst, `"ref":`...), ref...), ',')
	}
	return append(bytes.TrimSuffix(dst, []byte{','}), '}'), nil
}

// appendInts appends a tuple, null for nil.
func appendInts[T int | int64](dst []byte, vs []T) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendFloat is encoding/json's float64 encoder: the shortest digits that
// round-trip, exponent form below 1e-6 and from 1e21, no e-07 but e-7.
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// checkFinite reports the first value of an output that JSON has no form
// for. An overflowed product or sum is the job's failure, not an empty 200.
func checkFinite(w *WireTensor) error {
	for i, v := range w.Values {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			var crd []int64
			if i < len(w.Coords) {
				crd = w.Coords[i]
			}
			return fmt.Errorf("output value at coord %v is %s: JSON cannot carry a non-finite number", crd, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return nil
}

// levelFormat parses one wire level-format name.
func levelFormat(s string) (fiber.Format, error) {
	switch s {
	case "dense", "d":
		return fiber.Dense, nil
	case "compressed", "c":
		return fiber.Compressed, nil
	case "bitvector", "b":
		return fiber.Bitvector, nil
	case "linkedlist", "l":
		return fiber.LinkedList, nil
	}
	return 0, fmt.Errorf("unknown level format %q (want dense, compressed, bitvector, or linkedlist)", s)
}

// toFormats validates and converts the wire format map.
func toFormats(ws map[string]WireFormat) (lang.Formats, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	fs := make(lang.Formats, len(ws))
	for name, wf := range ws {
		f := lang.Format{ModeOrder: wf.ModeOrder}
		for _, lv := range wf.Levels {
			lf, err := levelFormat(lv)
			if err != nil {
				return nil, fmt.Errorf("format for %q: %w", name, err)
			}
			f.Levels = append(f.Levels, lf)
		}
		fs[name] = f
	}
	return fs, nil
}

// toSchedule converts the wire schedule; nil means the default schedule.
// defaultOpt fills the optimization level when the request omits it.
func (w *WireSchedule) toSchedule(defaultOpt int) (lang.Schedule, error) {
	if w == nil {
		return lang.Schedule{Opt: defaultOpt}, nil
	}
	if w.Par < 0 {
		return lang.Schedule{}, fmt.Errorf("schedule: negative par %d", w.Par)
	}
	level := defaultOpt
	if w.Opt != nil {
		level = *w.Opt
		if level < 0 || level > opt.MaxLevel {
			return lang.Schedule{}, fmt.Errorf("schedule: unknown opt level %d (want 0..%d)", level, opt.MaxLevel)
		}
	}
	return lang.Schedule{
		LoopOrder: w.LoopOrder, UseLocators: w.UseLocators,
		UseSkip: w.UseSkip, Par: w.Par, Opt: level,
	}, nil
}

// wireEngines are the engines a request may name. The naive tick-all loop is
// the schedulers' differential oracle and stays in-process (sim.EngineNaive,
// samsim/sambench -engine naive): it answers exactly what event answers,
// slower.
var wireEngines = []sim.EngineKind{sim.EngineEvent, sim.EngineComp}

// toOptions converts the wire options; nil means defaults.
func (w *WireOptions) toOptions() (sim.Options, error) {
	if w == nil {
		return sim.Options{}, nil
	}
	if w.MaxCycles < 0 {
		return sim.Options{}, fmt.Errorf("options: negative max_cycles %d", w.MaxCycles)
	}
	kind := sim.EngineKind(w.Engine)
	if err := sim.CheckEngineKind(kind, wireEngines); err != nil {
		return sim.Options{}, err
	}
	return sim.Options{Engine: kind, MaxCycles: w.MaxCycles}, nil
}
