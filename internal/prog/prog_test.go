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
		// comp runs a Par graph as its Par 1 program, lane 0 over the whole
		// stream: a fork at a level custard never emits, a join fed a live
		// stream past lane 0, and a writer fed by a lane past lane 0, have no
		// such program and fail by name.
		{"deep-fork", func() []byte {
			ir := lowerPar(t, "x(i) = B(i,j) * c(j)")
			fork := stepLabeled(t, ir, "Parallelizer crd i")
			fork.Level = 0
			return prog.EncodeIR(ir)
		}(), "Parallelizer crd i"},
		{"lane-1-writer", func() []byte {
			ir := lowerPar(t, "x(i) = B(i,j) * c(j)")
			ir.CrdWr[0].Slot = stepLabeled(t, ir, "Parallelizer crd i").Outs[1]
			return prog.EncodeIR(ir)
		}(), `writer "LevelWriter x.i"`},
		{"live-join-lane", func() []byte {
			ir := lowerPar(t, "x(i) = B(i,j) * c(j)")
			join := stepLabeled(t, ir, "Serializer i vals")
			join.Ins[1] = join.Ins[0]
			return prog.EncodeIR(ir)
		}(), "Serializer i vals"},
		{"unknown-drop-mode", func() []byte {
			ir, err := comp.Lower(compile(t, "x(i) = B(i,j)", lang.Schedule{}))
			if err != nil {
				t.Fatal(err)
			}
			stepLabeled(t, ir, "CrdDrop i orphans").Drop = graph.DropOrphan + 1
			return prog.EncodeIR(ir)
		}(), "dropper mode 3 unknown"},
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

// lowerPar lowers a statement at Par 2.
func lowerPar(t *testing.T, expr string) *comp.IR {
	t.Helper()
	ir, err := comp.Lower(compile(t, expr, lang.Schedule{Par: 2}))
	if err != nil {
		t.Fatal(err)
	}
	return ir
}

// stepLabeled returns the IR step with the given label.
func stepLabeled(t *testing.T, ir *comp.IR, label string) *comp.StepIR {
	t.Helper()
	for i := range ir.Steps {
		if ir.Steps[i].Label == label {
			return &ir.Steps[i]
		}
	}
	t.Fatalf("no step labeled %q", label)
	return nil
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

// TestEncodeRejectsMiswiredGraph runs graph.Validate's five failure shapes
// (root -> scanner -> coordinate writer, miswired) through Encode: each
// fails with Validate's text, and none panics or encodes.
func TestEncodeRejectsMiswiredGraph(t *testing.T) {
	cases := []struct {
		name  string
		build func(g *graph.Graph, root, sc, wr *graph.Node)
		want  string
	}{
		{"missing node", func(g *graph.Graph, root, sc, wr *graph.Node) {
			g.Edges = append(g.Edges, &graph.Edge{From: root.ID, FromPort: "ref", To: 7, ToPort: "ref"})
		}, `graph: edge references missing node: &{From:0 FromPort:ref To:7 ToPort:ref}`},
		{"no output port", func(g *graph.Graph, root, sc, wr *graph.Node) {
			g.Connect(root, "crd", sc, "ref")
		}, `graph: node 0 (Root B) has no output port "crd"`},
		{"no input port", func(g *graph.Graph, root, sc, wr *graph.Node) {
			g.Connect(root, "ref", sc, "ref")
			g.Connect(sc, "crd", wr, "val")
		}, `graph: node 2 (Writer X.i) has no input port "val"`},
		{"unconnected input", func(g *graph.Graph, root, sc, wr *graph.Node) {
			g.Connect(root, "ref", sc, "ref")
		}, `graph: node 2 (Writer X.i) input port "crd" has 0 drivers, want 1`},
		{"double driver", func(g *graph.Graph, root, sc, wr *graph.Node) {
			g.Connect(root, "ref", sc, "ref")
			g.Connect(sc, "crd", wr, "crd")
			g.Connect(sc, "ref", wr, "crd")
		}, `graph: node 2 (Writer X.i) input port "crd" has 2 drivers, want 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &graph.Graph{Name: "t"}
			root := g.AddNode(&graph.Node{Kind: graph.Root, Label: "Root B"})
			sc := g.AddNode(&graph.Node{Kind: graph.Scanner, Label: "Scanner B.i", Tensor: "B"})
			wr := g.AddNode(&graph.Node{Kind: graph.CrdWriter, Label: "Writer X.i", Tensor: "X"})
			tc.build(g, root, sc, wr)
			enc, err := prog.Encode(g)
			if err == nil || err.Error() != tc.want {
				t.Errorf("Encode() = %d bytes, %v\nwant %s", len(enc), err, tc.want)
			}
		})
	}
}
