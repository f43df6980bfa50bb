package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a canonical 128-bit hex hash of the graph's complete
// executable structure: every node with all of its parameters (kind, tensor
// and level bindings, storage format, arity, ALU op, reducer dimension,
// dropper mode, output level), every edge with its ports, the operand
// bindings (source tensor, mode order, per-level formats), and the output
// metadata. The graph name is excluded — it labels runs, it does not change
// what executes — but the source expression is included, so programs
// compiled from different statements never share a fingerprint even if they
// lower to isomorphic graphs.
//
// Two graphs share a fingerprint exactly when this serialized structure is
// identical, which makes the fingerprint usable as a compiled-program cache
// key: it distinguishes storage formats (including bitvector pipelines),
// loop orders, lane counts (Schedule.Par changes the replicated sub-graph),
// and optimization rewrites (gallop, locators). OptLevel is part of the
// structure, so graphs compiled at different levels never alias even though
// their blocks are the same.
func (g *Graph) Fingerprint() string {
	w := fpWriter{buf: make([]byte, 0, fpBufSize)}
	w.str(g.Expr)
	w.num(g.OptLevel)
	w.num(len(g.Nodes))
	for _, n := range g.Nodes {
		w.num(int(n.Kind))
		w.str(n.Label)
		w.str(n.Tensor)
		w.num(n.Level)
		w.str(n.TensorB)
		w.num(n.LevelB)
		w.num(int(n.Format))
		w.num(n.Ways)
		w.num(int(n.Op))
		w.num(n.RedN)
		w.num(int(n.Drop))
		w.num(n.OutLevel)
	}
	w.num(len(g.Edges))
	for _, e := range g.Edges {
		w.num(e.From)
		w.str(e.FromPort)
		w.num(e.To)
		w.str(e.ToPort)
	}
	w.num(len(g.Bindings))
	for _, b := range g.Bindings {
		w.str(b.Operand)
		w.str(b.Source)
		w.num(len(b.ModeOrder))
		for _, m := range b.ModeOrder {
			w.num(m)
		}
		w.num(len(b.Formats))
		for _, f := range b.Formats {
			w.num(int(f))
		}
	}
	w.str(g.OutputTensor)
	w.num(len(g.OutputFormats))
	for _, f := range g.OutputFormats {
		w.num(int(f))
	}
	w.num(len(g.OutputDims))
	for _, d := range g.OutputDims {
		w.str(d.Tensor)
		w.num(d.Mode)
	}
	w.strs(g.OutputVars)
	w.strs(g.LHSVars)
	sum := sha256.Sum256(w.buf)
	return hex.EncodeToString(sum[:16])
}

// fpBufSize is the stream buffer's initial capacity. The graphs of the
// Table 1 kernels, at Par 2 and every loop order, stream under 3 KiB, so
// they hash without regrowing it.
const fpBufSize = 4 << 10

// fpWriter appends values to one buffer with explicit length prefixes, so
// adjacent fields can never alias (e.g. "ab"+"c" vs "a"+"bc"); the buffer
// is hashed once.
type fpWriter struct {
	buf []byte
}

func (w *fpWriter) num(v int) {
	w.buf = binary.AppendVarint(w.buf, int64(v))
}

func (w *fpWriter) str(s string) {
	w.num(len(s))
	w.buf = append(w.buf, s...)
}

func (w *fpWriter) strs(ss []string) {
	w.num(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}
