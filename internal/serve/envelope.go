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
	s.ws()
	ok := s.object(func(key []byte) bool {
		if !bytes.EqualFold(key, []byte("inputs")) {
			return s.skip()
		}
		return s.object(func([]byte) bool {
			return s.object(func(key []byte) bool {
				if !bytes.EqualFold(key, []byte("dims")) && !bytes.EqualFold(key, []byte("coords")) && !bytes.EqualFold(key, []byte("values")) {
					return s.skip()
				}
				start := s.i
				if !s.skip() {
					return false
				}
				s.out = append(append(s.out, s.b[s.cut:start]...), "null"...)
				s.cut = s.i
				return true
			})
		})
	})
	if !ok || s.cut == 0 {
		return body
	}
	return append(s.out, body[s.cut:]...)
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
// step over values, and collects the envelope as it goes.
type skimmer struct {
	cursor
	out []byte // the envelope so far
	cut int    // where the part of b not yet copied to out starts
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
