package token

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestTokenStrings(t *testing.T) {
	cases := []struct {
		tok  Tok
		want string
	}{
		{C(7), "7"},
		{C(0), "0"},
		{V(2.5), "2.5"},
		// Value tokens always carry a decimal point or exponent so that
		// Parse inverts String: a value 3 is not the coordinate 3, and a
		// value 0 is not the coordinate 0.
		{V(3), "3.0"},
		{V(0), "0.0"},
		{V(1e21), "1e+21"},
		{S(0), "S0"},
		{S(3), "S3"},
		{N(), "N"},
		{D(), "D"},
	}
	for _, tc := range cases {
		if got := tc.tok.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.tok, got, tc.want)
		}
	}
	for _, tok := range []Tok{V(0), V(3), V(2.5), C(0), C(7)} {
		back, err := Parse(tok.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", tok.String(), err)
		}
		if len(back) != 1 || back[0] != tok {
			t.Errorf("Parse(%q) = %v, want %v", tok.String(), back, tok)
		}
	}
}

func TestParseFigure1d(t *testing.T) {
	// The value stream of paper Figure 1d, written in emission order.
	s, err := Parse("1.0, S0, 2.0, 3.0, S0, 4.0, 5.0, S1, D")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 9 {
		t.Fatalf("parsed %d tokens, want 9", len(s))
	}
	if !s[0].IsVal() || s[0].V != 1.0 {
		t.Errorf("first token = %v, want value 1.0", s[0])
	}
	if !s[7].IsStop() || s[7].StopLevel() != 1 {
		t.Errorf("token 7 = %v, want S1", s[7])
	}
	if !s[8].IsDone() {
		t.Errorf("last token = %v, want D", s[8])
	}
	if got := s.Depth(); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"Sx", "S", "abc", "1.2.3"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		in    string
		depth int
		ok    bool
	}{
		{"1 2 S0 D", 1, true},
		{"D", 0, true},
		{"D", 2, true}, // empty-result artifact: bare done at any depth
		{"0 D", 0, true},
		{"1 S0 2 3 S0 4 5 S1 D", 2, true},
		{"1 2 S0 S0 S1 D", 2, true}, // empty fibers (consecutive stops)
		{"1 S0 D", 0, false},        // stop in depth-0 stream
		{"1 S2 D", 2, false},        // stop level out of range
		{"1 D 2", 1, false},         // done before end
		{"1 2 S0", 1, false},        // missing done
		{"1 2 D", 1, false},         // outermost fiber never closed
		{"1 S0 2 S0 D", 2, false},   // depth-2 stream closed only to S0
		{"1 2 S0 D D", 1, false},    // more than one done token
	}
	for _, tc := range cases {
		err := MustParse(tc.in).Validate(tc.depth)
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%q, depth=%d) error = %v, want ok=%v", tc.in, tc.depth, err, tc.ok)
		}
	}
}

// TestParseFormatRoundTrip checks String/Parse inversion on random streams
// with testing/quick.
func TestParseFormatRoundTrip(t *testing.T) {
	gen := func(r *rand.Rand) Stream {
		n := r.Intn(40)
		s := make(Stream, 0, n+1)
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				s = append(s, C(int64(r.Intn(1000))))
			case 1:
				s = append(s, S(r.Intn(4)))
			case 2:
				// Value tokens roundtrip too, including integral values and
				// exact zero (rendered "3.0"/"0.0", not "3"/"0").
				s = append(s, V(float64(r.Intn(7))/2))
			default:
				s = append(s, N())
			}
		}
		return append(s, D())
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := gen(r)
		back, err := Parse(s.String())
		if err != nil {
			return false
		}
		return slices.Equal(s, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEqualDetectsDifferences checks that streams compare token by token
// with ==: a token's kind, level and value are all part of its identity, so
// slices.Equal tells a mutated stream from the original.
func TestEqualDetectsDifferences(t *testing.T) {
	s := MustParse("1 2 S0 3 S1 D")
	if !slices.Equal(s, MustParse("1 2 S0 3 S1 D")) {
		t.Error("identical streams compare unequal")
	}
	for _, mut := range []string{"1 2 S0 3 S0 D", "1 2 S0 4 S1 D", "1 2 S0 3 S1", "1 2 S0 3 S1 D D"} {
		if slices.Equal(s, MustParse(mut)) {
			t.Errorf("stream %q compares equal to original", mut)
		}
	}
}

func TestRootStream(t *testing.T) {
	r := Root()
	if len(r) != 2 || !r[0].IsVal() || r[0].N != 0 || !r[1].IsDone() {
		t.Errorf("Root() = %s, want 0, D", r)
	}
	if r.Depth() != 0 {
		t.Errorf("root depth = %d, want 0", r.Depth())
	}
}

func TestQuickDepthMatchesMaxStop(t *testing.T) {
	f := func(levels []uint8) bool {
		s := Stream{}
		max := -1
		for _, l := range levels {
			lvl := int(l % 5)
			s = append(s, S(lvl))
			if lvl > max {
				max = lvl
			}
		}
		s = append(s, D())
		want := max + 1
		if max < 0 {
			want = 0
		}
		return s.Depth() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func init() {
	// quick.Check uses reflection over function signatures; keep reflect
	// imported for custom generators if extended.
	_ = reflect.TypeOf(Stream{})
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
