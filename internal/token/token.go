// Package token defines the Sparse Abstract Machine stream token model.
//
// SAM streams are sequences of tokens transmitted over abstract wires between
// dataflow blocks. A stream carries one fibertree level of a tensor: data
// tokens (coordinates, references, or values), hierarchical stop tokens Sn
// that delimit fiber boundaries, empty tokens N that mark coordinates absent
// from one side of a union, and a final done token D that terminates the
// stream (paper Section 3.2).
//
// A depth-k stream contains stop tokens with levels 0..k-1; an Sn token
// closes the innermost fiber together with n enclosing fibers. Root reference
// streams are depth 0 and contain no stop tokens at all. Two consecutive
// stop tokens encode an empty fiber.
package token

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the four token categories of a SAM stream.
type Kind uint8

const (
	// Val is a data token: a coordinate, a reference, a bitvector word, or
	// a tensor value depending on the stream it travels on.
	Val Kind = iota
	// Stop is a hierarchical fiber-boundary token Sn.
	Stop
	// Empty is the N token emitted by unioners for absent coordinates.
	Empty
	// Done is the D token terminating a stream.
	Done
)

func (k Kind) String() string {
	switch k {
	case Val:
		return "val"
	case Stop:
		return "stop"
	case Empty:
		return "empty"
	case Done:
		return "done"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Tok is one token on a SAM stream. The integer payload N holds coordinates,
// references, stop levels and bitvector words; the float payload V holds
// tensor values on value streams. Tok is a small value type so queues can
// hold tokens without per-token allocation.
type Tok struct {
	Kind Kind
	N    int64
	V    float64
}

// valueN marks a data token constructed as a tensor value (V). Without the
// marker a value token carrying 0.0 is bit-identical to the coordinate
// token C(0) and the two render and re-parse ambiguously. Coordinates,
// references and stop levels are never negative, so the marker cannot
// collide with them; the one bitvector word sharing the pattern (bits 63
// and 62 set, all others clear) merely renders as a value, which only
// affects debug output.
const valueN = int64(-1) << 62

// C constructs a coordinate or reference token.
func C(n int64) Tok { return Tok{Kind: Val, N: n} }

// V constructs a value token. Value tokens carry an internal marker in N so
// that String can render them distinctly from coordinate tokens even when
// the value is 0; compare value tokens against tokens built by V or Parse
// (which uses V for float literals), not against C.
func V(v float64) Tok { return Tok{Kind: Val, N: valueN, V: v} }

// BV constructs a bitvector-word token.
func BV(bits uint64) Tok { return Tok{Kind: Val, N: int64(bits)} }

// S constructs a stop token of the given level.
func S(level int) Tok { return Tok{Kind: Stop, N: int64(level)} }

// N is the empty token.
func N() Tok { return Tok{Kind: Empty} }

// D is the done token.
func D() Tok { return Tok{Kind: Done} }

// IsVal reports whether t is a data token.
func (t Tok) IsVal() bool { return t.Kind == Val }

// IsStop reports whether t is a stop token.
func (t Tok) IsStop() bool { return t.Kind == Stop }

// IsEmpty reports whether t is the empty token N.
func (t Tok) IsEmpty() bool { return t.Kind == Empty }

// IsDone reports whether t is the done token D.
func (t Tok) IsDone() bool { return t.Kind == Done }

// StopLevel returns the level n of a stop token Sn. It panics if t is not a
// stop token; block state machines only call it after checking IsStop.
func (t Tok) StopLevel() int {
	if t.Kind != Stop {
		panic("token: StopLevel on non-stop token " + t.String())
	}
	return int(t.N)
}

// String renders the token in the paper's notation: plain integers for
// coordinates/references, Sn for stops, N for empty, and D for done.
// Value tokens render as their float value with a guaranteed decimal point
// or exponent, so that Parse inverts String: "3" stays a coordinate while a
// value token holding 3 renders "3.0" (and a value token holding 0 renders
// "0.0", not the ambiguous integer "0").
func (t Tok) String() string {
	switch t.Kind {
	case Val:
		if t.N == valueN || t.V != 0 {
			s := strconv.FormatFloat(t.V, 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			return s
		}
		return strconv.FormatInt(t.N, 10)
	case Stop:
		return "S" + strconv.FormatInt(t.N, 10)
	case Empty:
		return "N"
	case Done:
		return "D"
	}
	return "?"
}

// Stream is a finite recorded token sequence in emission order (the first
// element is sent first). Physical streams are unbounded wires; Stream is the
// in-memory representation used for tests, golden comparisons, and the
// functional executor.
type Stream []Tok

// String renders the stream in emission order, e.g. "1, S0, 2, 3, S0, D".
// Note the paper prints streams in the opposite order (arrowhead first).
func (s Stream) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// Vals builds a stream of value tokens from floats; no terminator appended.
func Vals(vs ...float64) Stream {
	s := make(Stream, len(vs))
	for i, v := range vs {
		s[i] = V(v)
	}
	return s
}

// Root is the depth-0 root reference stream "0, D" that begins every tensor
// path (paper Figure 2).
func Root() Stream { return Stream{C(0), D()} }

// Parse reads a stream written in emission order using the paper's token
// notation, e.g. "1, S0, 2, 3, S0, 4, 5, S1, D". Tokens may be separated by
// commas and/or spaces. Integer tokens become coordinate/reference tokens;
// tokens containing '.' or 'e' become value tokens.
func Parse(s string) (Stream, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
	out := make(Stream, 0, len(fields))
	for _, f := range fields {
		switch {
		case f == "D":
			out = append(out, D())
		case f == "N":
			out = append(out, N())
		case len(f) > 1 && f[0] == 'S':
			lvl, err := strconv.Atoi(f[1:])
			if err != nil {
				return nil, fmt.Errorf("token: bad stop token %q", f)
			}
			out = append(out, S(lvl))
		case strings.ContainsAny(f, ".eE") && f != "e" && f != "E":
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("token: bad value token %q", f)
			}
			out = append(out, V(v))
		default:
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("token: bad token %q", f)
			}
			out = append(out, C(n))
		}
	}
	return out, nil
}

// MustParse is Parse that panics on error; for tests and package literals.
func MustParse(s string) Stream {
	st, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return st
}

// Equal reports whether two streams are identical token for token. Value
// tokens compare both payloads.
func Equal(a, b Stream) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Depth returns the stream depth implied by its stop tokens: one plus the
// maximum stop level, or zero if the stream has no stop tokens.
func (s Stream) Depth() int {
	d := 0
	for _, t := range s {
		if t.IsStop() && t.StopLevel()+1 > d {
			d = t.StopLevel() + 1
		}
	}
	return d
}

// Validate checks stream well-formedness: exactly one done token, located
// at the end; stop levels within [0, depth) between the data tokens; and,
// for depth >= 1, full closure — a stream that carried any token must close
// its outermost fiber with a stop of level depth-1 immediately before the
// done token (a bare "D" stream, the empty-result artifact, is exempt). It
// returns a descriptive error for malformed streams; the executors use it
// to catch block bugs early.
func (s Stream) Validate(depth int) error {
	if len(s) == 0 {
		return fmt.Errorf("token: empty stream")
	}
	dones := 0
	for i, t := range s {
		switch t.Kind {
		case Done:
			dones++
			if i != len(s)-1 {
				return fmt.Errorf("token: done token at position %d before end of stream", i)
			}
		case Stop:
			if depth == 0 {
				return fmt.Errorf("token: stop token %v in depth-0 stream", t)
			}
			if t.StopLevel() < 0 || t.StopLevel() >= depth {
				return fmt.Errorf("token: stop level %d out of range for depth %d", t.StopLevel(), depth)
			}
		}
	}
	if dones != 1 || !s[len(s)-1].IsDone() {
		return fmt.Errorf("token: stream does not end with exactly one done token")
	}
	if depth >= 1 && len(s) > 1 {
		last := s[len(s)-2]
		if !last.IsStop() || last.StopLevel() != depth-1 {
			return fmt.Errorf("token: depth-%d stream ends with %v before done; outermost fiber left open (want S%d)", depth, last, depth-1)
		}
	}
	return nil
}
