package serve

import (
	"bytes"
	"errors"
	"slices"

	"sam/internal/tensor"
)

// readEnvelope decodes what the router reads of an evaluation body: the
// statement, formats, schedule, options, fixpoint spec and each input's ref
// — never an operand. It is the shard's own strict decode run over the
// skimmed body, so one rule decides what a well-formed request is; nil means
// the shard would reject the body too (it still gets to say so itself).
func readEnvelope(body []byte) *EvaluateRequest {
	var req EvaluateRequest
	if decodeStrict(bytes.NewReader(skimEnvelope(body)), &req) != nil {
		return nil
	}
	return &req
}

// skimEnvelope returns body with the dims, coords and values of every input
// replaced by null: a few hundred bytes whatever the operands weigh. The
// arrays are stepped over in place, neither decoded nor copied. A body the
// skim cannot follow — not an object, malformed, truncated — comes back
// whole, so the decode that follows gives the verdict the shard's would.
func skimEnvelope(body []byte) []byte {
	s := skimmer{cursor: cursor{b: body}}
	if s.ws(); !s.request() {
		return body
	}
	return s.envelope()
}

// DecodeEvaluate decodes the body of POST /v1/evaluate and /v1/jobs into its
// wire form, which the router's tiled path re-emits. What it accepts, and
// the error for what it does not, is decodeStrict's by construction: the
// skim cuts the operand arrays out, encoding/json decodes what is left,
// each array is parsed where it lies — and unless every step succeeds,
// decodeStrict decodes the body whole. Nothing returned aliases body.
func DecodeEvaluate(body []byte) (*EvaluateRequest, error) {
	req, _, err := decodeWire(body, (*skimmer).request, func(s *skimmer, req *EvaluateRequest) bool {
		for name, wt := range req.Inputs {
			if !s.fill(name, &wt) {
				return false
			}
			req.Inputs[name] = wt
		}
		return true
	})
	return req, err
}

// decodeEvaluation is the shard's decode of an evaluation body: the request
// and each inline input's operand, exactly what decodeStrict and then
// convertOperands make of the body. The skim, the envelope decode and the
// verdict are DecodeEvaluate's; each clean inline operand then goes from
// its arrays straight into its COO (skimmer.operand), so only the wire
// tensor's dims are kept. A body the skim cannot vouch for goes the exact
// way whole.
func decodeEvaluation(body []byte) (*request, error) {
	req := new(request)
	wire, direct, err := decodeWire(body, (*skimmer).request, func(s *skimmer, w *EvaluateRequest) bool {
		req.operands = make(map[string]operand, len(w.Inputs))
		for name, wt := range w.Inputs {
			op, ok := s.operand(name, name, &wt)
			if !ok {
				return false
			}
			w.Inputs[name] = wt
			if wt.Ref == "" {
				req.operands[name] = op
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	req.wire = *wire
	if !direct {
		req.convertOperands()
	}
	return req, nil
}

// decodeUpload is decodeEvaluation for a body that is one bare tensor, the
// upload of PUT /v1/tensors/{name}: the error is the body's, and the
// operand is the tensor as a COO, or why it is not one — a ref, or what
// toCOO rejects.
func decodeUpload(body []byte, name string) (*operand, error) {
	var op operand
	wt, direct, err := decodeWire(body, func(s *skimmer) bool { return s.tensor(nil) }, func(s *skimmer, wt *WireTensor) bool {
		var ok bool
		op, ok = s.operand("", name, wt)
		return ok
	})
	switch {
	case err != nil:
		return nil, err
	case wt.Ref != "":
		return &operand{err: errUploadRef}, nil
	case !direct:
		coo, err := wt.toCOO(name)
		return &operand{coo, err}, nil
	}
	return &op, nil
}

var errUploadRef = errors.New("tensor upload must carry inline data, not a ref")

// decodeWire decodes body into a new T: the skim cuts the operand arrays
// out and fill parses them where they lie. direct reports that it did; if
// any step fails, decodeStrict decodes the body whole instead.
func decodeWire[T any](body []byte, walk func(*skimmer) bool, fill func(*skimmer, *T) bool) (v *T, direct bool, err error) {
	v = new(T)
	s := skimmer{cursor: cursor{b: body}}
	// With no span there is nothing to gain; a loose one cannot be trusted.
	if s.ws(); walk(&s) && len(s.spans) > 0 && !s.loose && decodeStrict(bytes.NewReader(s.envelope()), v) == nil && fill(&s, v) {
		return v, true, nil
	}
	v = new(T)
	return v, false, decodeStrict(bytes.NewReader(body), v)
}

// cursor is a position in a JSON text.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) ws() {
	for c.i < len(c.b) && c.b[c.i] <= ' ' && (c.b[c.i] == ' ' || c.b[c.i] == '\n' || c.b[c.i] == '\t' || c.b[c.i] == '\r') {
		c.i++
	}
}

func (c *cursor) eat(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// skimmer is a cursor that knows just enough grammar to walk objects and
// step over values, and collects the envelope as it goes, with the place of
// every operand array it left out.
type skimmer struct {
	cursor
	out   []byte // the envelope so far
	cut   int    // where the part of b not yet copied to out starts
	spans []span
	// Where out and spans start: a statement of three operands fits.
	outBuf  [512]byte
	spanBuf [9]span
	// loose: a span may not be the one source of its field. A walked key was
	// escaped or not ASCII (encoding/json unquotes and folds), or repeats.
	loose bool
}

// span is one operand array the skim cut out: b[start:end] is the dims,
// coords or values (field 'd', 'c', 'v') of input name, nil in a bare tensor.
type span struct {
	name       []byte
	field      byte
	start, end int
}

// request walks an evaluation body, cutting the operand arrays out of every
// member of "inputs"; false if it cannot follow the body.
func (s *skimmer) request() bool {
	inputs := false
	return s.object(func(key []byte) bool {
		if !bytes.EqualFold(key, []byte("inputs")) {
			return s.skip()
		}
		s.loose = s.loose || inputs
		inputs = true
		return s.object(s.tensor)
	})
}

// tensor walks one wire tensor, the value of the input called name.
func (s *skimmer) tensor(name []byte) bool {
	for _, sp := range s.spans {
		s.loose = s.loose || bytes.Equal(sp.name, name)
	}
	first := len(s.spans)
	return s.object(func(key []byte) bool {
		var field byte
		for _, f := range []string{"dims", "coords", "values"} {
			if bytes.EqualFold(key, []byte(f)) {
				field = f[0]
			}
		}
		if field == 0 {
			return s.skip()
		}
		for _, sp := range s.spans[first:] {
			s.loose = s.loose || sp.field == field
		}
		start := s.i
		if !s.skip() {
			return false
		}
		if s.cut == 0 {
			s.out, s.spans = s.outBuf[:0], s.spanBuf[:0]
		}
		s.spans = append(s.spans, span{name, field, start, s.i})
		s.out = append(append(s.out, s.b[s.cut:start]...), "null"...)
		s.cut = s.i
		return true
	})
}

// envelope is the body as far as it was walked, operand arrays null.
func (s *skimmer) envelope() []byte {
	if s.cut == 0 {
		return s.b
	}
	return append(s.out, s.b[s.cut:]...)
}

// fill parses the spans cut from the input called name into wt; false if one
// is not what its field holds.
func (s *skimmer) fill(name string, wt *WireTensor) bool {
	for _, sp := range s.spans {
		if string(sp.name) == name && !s.parse(sp, wt) {
			return false
		}
	}
	return true
}

// parse parses one span into its field of wt; false if it is not what that
// field holds.
func (s *skimmer) parse(sp span, wt *WireTensor) bool {
	p := coordsParser{cursor{b: s.b[sp.start:sp.end]}}
	ok := false
	switch sp.field {
	case 'c':
		ok = wt.Coords.UnmarshalJSON(p.b) == nil
	case 'd':
		wt.Dims, ok = numbers(&p, func() (int, bool) {
			v, err := p.int64()
			return int(v), err == nil && int64(int(v)) == v
		})
	default:
		wt.Values, ok = numbers(&p, p.float64)
	}
	return ok
}

// operand fills the spans cut from the tensor under key into wt, as fill
// does, and makes the operand called name of its inline data: the COO and
// error that toCOO gives after fill. A clean operand (see points) skips
// both: its dims are parsed into wt, its coords and values straight into
// the COO's points, and wt keeps no coords or values. Any other operand,
// and a ref, takes the exact path, fill then toCOO. false if a span is not
// what its field holds, so that decodeStrict has the verdict on the body.
func (s *skimmer) operand(key, name string, wt *WireTensor) (operand, bool) {
	if wt.Ref == "" {
		var coords, values []byte
		for _, sp := range s.spans {
			if string(sp.name) != key {
				continue
			}
			switch sp.field {
			case 'd':
				if !s.parse(sp, wt) {
					return operand{}, false
				}
			case 'c':
				coords = s.b[sp.start:sp.end]
			default:
				values = s.b[sp.start:sp.end]
			}
		}
		if pts := points(name, wt.Dims, coords, values); pts != nil {
			return operand{coo: &tensor.COO{Name: name, Dims: wt.Dims, Pts: pts}}, true
		}
	}
	if !s.fill(key, wt) {
		return operand{}, false
	}
	if wt.Ref != "" {
		return operand{}, true
	}
	coo, err := wt.toCOO(name)
	return operand{coo, err}, true
}

// points parses a clean operand's coords and values straight into its
// points: tuples sliced from one flat slab, each checked by checkTuple as
// it is read, values written into the points. An operand is clean when it
// has order ≥ 1 and positive dimensions, its coords and values are plain
// arrays — no null where a tuple or a list belongs, exactly one bracket per
// tuple and the commas of full tuples — every tuple has the operand's
// arity, lies in range and sorts after the one before, and there are as
// many values as tuples. nil for any other operand; toCOO says what it is.
func points(name string, dims []int, coords, values []byte) []tensor.Point {
	order := len(dims)
	if order == 0 || slices.ContainsFunc(dims, func(d int) bool { return d <= 0 }) {
		return nil
	}
	// n tuples of order coordinates hold n*order-1 commas: the slab is the
	// coordinates, never more than the array's commas allow.
	n := bytes.Count(coords, []byte{'['}) - 1
	if n < 0 || n > 0 && n*order != bytes.Count(coords, []byte{','})+1 {
		return nil
	}
	pts := make([]tensor.Point, n)
	slab := make([]int64, n*order)
	p := coordsParser{cursor{b: coords}}
	if !p.eat('[') {
		return nil
	}
	for i := 0; ; i++ {
		more, err := p.more(i == 0)
		if err != nil || more != (i < n) {
			return nil
		}
		if !more {
			break
		}
		if !p.eat('[') {
			return nil
		}
		// A tuple of the wrong arity ends short of its place in the slab
		// or runs past it, and the operand is not clean.
		flat, err := p.tuple(slab[:i*order])
		if err != nil || len(flat) != (i+1)*order {
			return nil
		}
		crd := slab[i*order : (i+1)*order : (i+1)*order]
		var prev []int64
		if i > 0 {
			prev = pts[i-1].Crd
		}
		if ascending, err := checkTuple(name, dims, i, prev, crd); err != nil || !ascending {
			return nil
		}
		pts[i].Crd = crd
	}
	q := coordsParser{cursor{b: values}}
	if !q.eat('[') {
		return nil
	}
	for i := 0; ; i++ {
		more, err := q.more(i == 0)
		if err != nil || more != (i < n) {
			return nil
		}
		if !more {
			return pts
		}
		v, ok := q.float64()
		if !ok {
			return nil
		}
		pts[i].Val = v
	}
}

// str steps over a string and returns what is between its quotes, escapes
// left as written.
func (s *skimmer) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++
		case '"':
			s.i++
			return s.b[start : s.i-1], true
		}
	}
	return nil, false
}

// object walks the members of the object at the cursor, calling member with
// each key and the cursor on that key's value; member must step over the
// value. A value that is not an object is stepped over whole.
func (s *skimmer) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return s.skip()
	}
	for first := true; ; first = false {
		s.ws()
		if first && s.eat('}') {
			return true
		}
		key, ok := s.str()
		if !ok {
			return false
		}
		for _, c := range key {
			s.loose = s.loose || c == '\\' || c >= 0x80
		}
		s.ws()
		if !s.eat(':') {
			return false
		}
		s.ws()
		if !member(key) {
			return false
		}
		s.ws()
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// bracketDepth is what each byte outside a string adds to the nesting depth.
var bracketDepth = [256]int8{'[': 1, '{': 1, ']': -1, '}': -1}

// skip steps over one value of any kind without looking inside it further
// than finding its end.
func (s *skimmer) skip() bool {
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		_, ok := s.str()
		return ok
	case '{', '[':
		// The operand arrays are most of a body, and a router steps over
		// them too: the scan keeps its position in a local and reads each
		// byte's depth change from a table, so only a quote or the end
		// branches.
		depth := 0
		for b, i := s.b, s.i; i < len(b); i++ {
			if b[i] == '"' {
				s.i = i
				if _, ok := s.str(); !ok {
					return false
				}
				i = s.i - 1
				continue
			}
			if depth += int(bracketDepth[b[i]]); depth == 0 {
				s.i = i + 1
				return true
			}
		}
		return false
	}
	// A number or a literal runs to the next delimiter.
	for start := s.i; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ',', '}', ']', ' ', '\n', '\t', '\r':
			return s.i > start
		}
	}
	return true
}
