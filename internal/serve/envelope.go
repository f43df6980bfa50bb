package serve

import "bytes"

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

// DecodeEvaluate decodes the body of POST /v1/evaluate and /v1/jobs. What it
// accepts, and the error for what it does not, is decodeStrict's by
// construction: the skim cuts the operand arrays out, encoding/json decodes
// what is left, each array is parsed where it lies — and unless every step
// succeeds, decodeStrict decodes the body whole. Nothing returned aliases body.
func DecodeEvaluate(body []byte) (*EvaluateRequest, error) {
	return decodeWire(body, (*skimmer).request, func(s *skimmer, req *EvaluateRequest) bool {
		for name, wt := range req.Inputs {
			if !s.fill(name, &wt) {
				return false
			}
			req.Inputs[name] = wt
		}
		return true
	})
}

// decodeTensor is DecodeEvaluate for a body that is one bare tensor: a PUT
// /v1/tensors/{name} upload.
func decodeTensor(body []byte) (*WireTensor, error) {
	return decodeWire(body, func(s *skimmer) bool { return s.tensor(nil) }, func(s *skimmer, wt *WireTensor) bool { return s.fill("", wt) })
}

func decodeWire[T any](body []byte, walk func(*skimmer) bool, fill func(*skimmer, *T) bool) (*T, error) {
	v := new(T)
	s := skimmer{cursor: cursor{b: body}}
	// With no span there is nothing to gain; a loose one cannot be trusted.
	if s.ws(); walk(&s) && len(s.spans) > 0 && !s.loose && decodeStrict(bytes.NewReader(s.envelope()), v) == nil && fill(&s, v) {
		return v, nil
	}
	v = new(T)
	return v, decodeStrict(bytes.NewReader(body), v)
}

// cursor is a position in a JSON text.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) ws() {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\n' || c.b[c.i] == '\t' || c.b[c.i] == '\r') {
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
		if string(sp.name) != name {
			continue
		}
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
		if !ok {
			return false
		}
	}
	return true
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
		for depth := 0; s.i < len(s.b); {
			switch s.b[s.i] {
			case '"':
				if _, ok := s.str(); !ok {
					return false
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			s.i++
			if depth == 0 {
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
