package prog_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/prog"
)

// update rewrites the golden artifact fixtures under testdata/. Run
// go test ./internal/prog -run TestGoldenArtifacts -update after an
// intentional format or lowering change, and review the byte diff.
var update = flag.Bool("update", false, "rewrite golden artifact fixtures")

// goldenKernels are the fixed Table 1 kernels with checked-in artifacts:
// encoding them must reproduce the committed bytes exactly, pinning the
// format (and the compiler output it serializes) against silent drift.
var goldenKernels = []struct {
	name  string
	expr  string
	sched lang.Schedule
}{
	{"spmv", "x(i) = B(i,j) * c(j)", lang.Schedule{}},
	{"spmspm", "X(i,j) = B(i,k) * C(k,j)", lang.Schedule{LoopOrder: []string{"i", "k", "j"}}},
	{"sddmm", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", lang.Schedule{}},
	{"ttm", "X(i,j,k) = B(i,j,l) * C(k,l)", lang.Schedule{}},
	{"mttkrp", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", lang.Schedule{}},
	{"spmv-par4-O1", "x(i) = B(i,j) * c(j)", lang.Schedule{Par: 4, Opt: 1}},
}

// compile builds a graph for an artifact test case.
func compile(t testing.TB, expr string, sched lang.Schedule) *graph.Graph {
	t.Helper()
	g, err := custard.Compile(lang.MustParse(expr), nil, sched)
	if err != nil {
		t.Fatalf("%s: compile: %v", expr, err)
	}
	return g
}

// TestEncodeDeterministic checks encoding is a pure function of the graph:
// two independent Encode calls yield identical bytes.
func TestEncodeDeterministic(t *testing.T) {
	for _, k := range goldenKernels {
		g := compile(t, k.expr, k.sched)
		a, err := prog.Encode(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", k.name, err)
		}
		b, err := prog.Encode(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", k.name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two encodings of one graph differ", k.name)
		}
	}
}

// TestRoundTripByteStable is the canonical-form fixpoint: decode(encode(G))
// re-encodes to the identical bytes.
func TestRoundTripByteStable(t *testing.T) {
	for _, k := range goldenKernels {
		g := compile(t, k.expr, k.sched)
		enc, err := prog.Encode(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", k.name, err)
		}
		p, err := prog.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", k.name, err)
		}
		re := prog.EncodeIR(p.IR())
		if !bytes.Equal(re, enc) {
			t.Errorf("%s: re-encode is not byte-stable: %d vs %d bytes", k.name, len(re), len(enc))
		}
		if p.Fingerprint() != g.Fingerprint() {
			t.Errorf("%s: artifact fingerprint %q differs from graph %q", k.name, p.Fingerprint(), g.Fingerprint())
		}
	}
}

// reseal recomputes the CRC trailer after byte surgery on the body, so tests
// can reach parse-level failures that sit behind the checksum gate.
func reseal(body []byte) []byte {
	body = bytes.Clone(body) // never alias the caller's backing array
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestDecodeErrors drives every corruption flavor through Decode and demands
// a descriptive error — never a panic, never a silently-loaded program.
func TestDecodeErrors(t *testing.T) {
	g := compile(t, "x(i) = B(i,j) * c(j)", lang.Schedule{})
	enc, err := prog.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	body := enc[:len(enc)-4]
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", nil, "truncated"},
		{"short", enc[:6], "truncated"},
		{"bad-magic", append([]byte("XAMBC"), enc[5:]...), "bad magic"},
		{"version-skew", func() []byte {
			d := bytes.Clone(enc)
			binary.LittleEndian.PutUint16(d[5:], prog.Version+1)
			return d
		}(), "format version"},
		{"bit-flip", func() []byte {
			d := bytes.Clone(enc)
			d[len(d)/2] ^= 0x20
			return d
		}(), "checksum"},
		{"truncated-tail", enc[:len(enc)-3], "checksum"},
		{"truncated-payload", reseal(body[:len(body)-6]), ""},
		{"trailing-bytes", reseal(append(bytes.Clone(body), 0)), "trailing"},
		{"hostile-count", func() []byte {
			// Replace everything after magic+version with a huge varint
			// count: it must be bounded by the remaining payload, not drive
			// an allocation.
			d := bytes.Clone(enc[:7])
			d = binary.AppendVarint(d, 1<<30)
			return reseal(d)
		}(), ""},
		{"retired-kind", func() []byte {
			// Kind 24 was the cross-lane combiner: an artifact written when it
			// existed must fail to load, not run as some later block.
			ir, err := comp.Lower(g)
			if err != nil {
				t.Fatal(err)
			}
			ir.Steps[len(ir.Steps)-1].Kind = graph.Kind(24)
			return prog.EncodeIR(ir)
		}(), "kind(24)"},
		{"retired-bvconvert", func() []byte {
			// Kind 18 was the bitvector converter, which no compiler rule
			// emitted: it stays reserved, so it fails to load like kind 24.
			ir, err := comp.Lower(g)
			if err != nil {
				t.Fatal(err)
			}
			ir.Steps[len(ir.Steps)-1].Kind = graph.Kind(18)
			return prog.EncodeIR(ir)
		}(), "kind(18)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := prog.Decode(tc.data)
			if err == nil {
				t.Fatalf("Decode accepted %s bytes (program %q)", tc.name, p.Name())
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeHostileMetadata re-encodes a valid IR with corrupted graph
// metadata — the tables Materialize and bind index by — behind a valid CRC,
// and demands Decode reject each one with an error, never a panic. These are
// exactly the payloads a checksum cannot catch: structurally well-formed
// bytes whose semantics are hostile.
func TestDecodeHostileMetadata(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ir *comp.IR)
		want   string // substring of the error
	}{
		{"lhs-longer-than-output", func(ir *comp.IR) {
			// The permutation is sized by OutputVars but walked by LHSVars;
			// this shape used to panic Materialize with an index out of range.
			ir.OutputVars = []string{"i"}
			ir.LHSVars = []string{"i", "i"}
		}, "left-hand-side"},
		{"lhs-shorter-than-output", func(ir *comp.IR) {
			ir.LHSVars = ir.LHSVars[:0]
		}, "left-hand-side"},
		{"duplicate-output-var", func(ir *comp.IR) {
			ir.OutputVars = []string{"i", "i"}
			ir.LHSVars = []string{"i", "j"}
		}, "duplicate"},
		{"negative-output-dim-mode", func(ir *comp.IR) {
			ir.OutputDims = []graph.DimRef{{Tensor: "B", Mode: -5}}
		}, "negative mode"},
		{"negative-binding-mode", func(ir *comp.IR) {
			ir.Bindings[0].ModeOrder[0] = -1
		}, "mode order"},
		{"binding-mode-out-of-range", func(ir *comp.IR) {
			ir.Bindings[0].ModeOrder[0] = 7
		}, "mode order"},
		{"binding-format-count-mismatch", func(ir *comp.IR) {
			b := &ir.Bindings[0]
			b.Formats = append(b.Formats, b.Formats[0])
		}, "formats"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := compile(t, "x(i) = B(i,j) * c(j)", lang.Schedule{})
			ir, err := comp.Lower(g)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(ir)
			p, err := prog.Decode(prog.EncodeIR(ir))
			if err == nil {
				t.Fatalf("Decode accepted hostile metadata (program %q)", p.Name())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGoldenArtifacts pins the encoded bytes of six Table 1 kernels against
// checked-in fixtures: any format change, compiler-output change, or
// canonicalization regression shows up as a byte diff here before it ships.
// Regenerate intentionally with -update.
func TestGoldenArtifacts(t *testing.T) {
	for _, k := range goldenKernels {
		t.Run(k.name, func(t *testing.T) {
			g := compile(t, k.expr, k.sched)
			enc, err := prog.Encode(g)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := filepath.Join("testdata", k.name+".sambc")
			if *update {
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("encoded artifact differs from golden %s (%d vs %d bytes); if the change is intentional, regenerate with -update",
					path, len(enc), len(want))
			}
			// The committed fixture must itself load: golden bytes are the
			// cross-version compatibility contract.
			p, err := prog.Decode(want)
			if err != nil {
				t.Fatalf("golden fixture does not decode: %v", err)
			}
			if p.Fingerprint() != g.Fingerprint() {
				t.Errorf("golden fingerprint %q differs from compiled %q", p.Fingerprint(), g.Fingerprint())
			}
		})
	}
}
