// Package prog is the portable artifact format of the compiled engine: a
// versioned binary encoding of internal/comp's lowered IR — a bytecode
// stream of steps plus flat slot/writer/binding tables — that one process
// compiles once (Encode) and any process loads (Decode) and executes
// without re-running parsing, scheduling, optimization or lowering.
//
// Layout (all integers varint-encoded unless noted):
//
//	offset  field
//	0       magic "SAMBC" (5 bytes)
//	5       format version (uint16 little-endian)
//	7       string table: count, then length-prefixed UTF-8 strings in
//	        first-use order; all later string fields are table indices
//	...     header: name, expr, opt level, source-graph fingerprint
//	...     stream-slot count
//	...     step bytecode: count, then per step the opcode (block kind),
//	        label, input/output slot lists, and the block parameters
//	...     writer tables: coordinate writers (level, slot, label) sorted
//	        by level, then the value writer
//	...     binding table: operands with source tensor, mode order and
//	        per-level formats; output tensor, dims, vars and LHS vars
//	end-4   CRC32 (IEEE) over everything above, uint32 little-endian
//
// Encoding is canonical: the IR's field traversal order is fixed and the
// string table is built in first-use order, so decode(encode(G)) re-encodes
// to the identical bytes. Decode validates the magic, version and checksum,
// bounds every count by the remaining payload, and hands the result to
// comp.Materialize, whose IR validation rejects structurally hostile
// programs — corrupt or adversarial input yields an error, never a panic.
// Derived execution state (the lane plan, the output permutation) is never
// serialized; Materialize recomputes it on every load.
package prog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"sam/internal/comp"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

// Version is the current artifact format version. Decoders reject any other
// version: the format carries lowered execution semantics, so cross-version
// leniency would trade a clear error for silent miscomputation.
const Version uint16 = 1

// magic identifies a SAM bytecode artifact.
const magic = "SAMBC"

// maxCount caps every decoded collection count before allocation. Counts are
// additionally bounded by the remaining payload (every element costs at
// least one byte), so this is a backstop for the outermost tables.
const maxCount = 1 << 24

// Encode lowers a graph and serializes the result. The graph must be inside
// the compiled engine's block set (comp.Check); bitvector graphs have no
// artifact form.
func Encode(g *graph.Graph) ([]byte, error) {
	ir, err := comp.Lower(g)
	if err != nil {
		return nil, err
	}
	return EncodeIR(ir), nil
}

// EncodeIR serializes an already-lowered IR. Encoding is total over valid
// IRs and deterministic: the same IR always yields the same bytes.
func EncodeIR(ir *comp.IR) []byte {
	var e encoder
	e.str(ir.Name)
	e.str(ir.Expr)
	e.num(int64(ir.OptLevel))
	e.str(ir.Fingerprint)
	e.num(int64(ir.NSlot))

	e.num(int64(len(ir.Steps)))
	for i := range ir.Steps {
		si := &ir.Steps[i]
		e.num(int64(si.Kind))
		e.str(si.Label)
		e.nums(si.Ins)
		e.nums(si.Outs)
		e.str(si.Tensor)
		e.str(si.TensorB)
		e.num(int64(si.Level))
		e.num(int64(si.LevelB))
		e.num(int64(si.Ways))
		e.num(int64(si.Op))
		e.num(int64(si.RedN))
		e.bool(si.DropVal)
	}

	e.num(int64(len(ir.CrdWr)))
	for _, w := range ir.CrdWr {
		e.num(int64(w.Level))
		e.num(int64(w.Slot))
		e.str(w.Label)
	}
	e.num(int64(ir.ValsWr.Level))
	e.num(int64(ir.ValsWr.Slot))
	e.str(ir.ValsWr.Label)

	e.num(int64(len(ir.Bindings)))
	for _, b := range ir.Bindings {
		e.str(b.Operand)
		e.str(b.Source)
		e.nums(b.ModeOrder)
		e.num(int64(len(b.Formats)))
		for _, f := range b.Formats {
			e.num(int64(f))
		}
	}
	e.str(ir.OutputTensor)
	e.num(int64(len(ir.OutputDims)))
	for _, d := range ir.OutputDims {
		e.str(d.Tensor)
		e.num(int64(d.Mode))
	}
	e.strs(ir.OutputVars)
	e.strs(ir.LHSVars)

	return e.finish()
}

// Decode parses and validates an artifact, materializes its program, and
// returns the loaded Program. It never panics: any corruption — truncation,
// bit flips, a version skew, or a structurally hostile payload — returns an
// error.
func Decode(data []byte) (*Program, error) {
	ir, err := DecodeIR(data)
	if err != nil {
		return nil, err
	}
	cp, err := comp.Materialize(ir)
	if err != nil {
		return nil, err
	}
	return &Program{ir: ir, cp: cp}, nil
}

// DecodeIR parses and checksums an artifact down to its IR without
// materializing closures. The IR is syntactically parsed but not yet
// validated against the engine's structural rules; Decode (via
// comp.Materialize) is the loading path, DecodeIR the inspection path.
func DecodeIR(data []byte) (*comp.IR, error) {
	if len(data) < len(magic)+2+4 {
		return nil, fmt.Errorf("prog: artifact truncated: %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("prog: bad magic %q", data[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != Version {
		return nil, fmt.Errorf("prog: artifact format version %d, this build reads version %d", v, Version)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("prog: checksum mismatch: artifact is corrupt")
	}
	d := &decoder{buf: body[len(magic)+2:]}

	nStr := d.count()
	strs := make([]string, 0, min(nStr, 1024))
	for i := 0; i < nStr && d.err == nil; i++ {
		strs = append(strs, d.rawString())
	}
	d.strs = strs

	ir := &comp.IR{}
	ir.Name = d.str()
	ir.Expr = d.str()
	ir.OptLevel = d.num()
	ir.Fingerprint = d.str()
	ir.NSlot = d.num()

	nSteps := d.count()
	if d.err == nil {
		ir.Steps = make([]comp.StepIR, 0, min(nSteps, 1024))
	}
	for i := 0; i < nSteps && d.err == nil; i++ {
		var si comp.StepIR
		si.Kind = graph.Kind(d.num())
		si.Label = d.str()
		si.Ins = d.nums()
		si.Outs = d.nums()
		si.Tensor = d.str()
		si.TensorB = d.str()
		si.Level = d.num()
		si.LevelB = d.num()
		si.Ways = d.num()
		si.Op = lang.Op(d.num())
		si.RedN = d.num()
		si.DropVal = d.bool()
		ir.Steps = append(ir.Steps, si)
	}

	nWr := d.count()
	for i := 0; i < nWr && d.err == nil; i++ {
		var w comp.WriterIR
		w.Level = d.num()
		w.Slot = d.num()
		w.Label = d.str()
		ir.CrdWr = append(ir.CrdWr, w)
	}
	ir.ValsWr.Level = d.num()
	ir.ValsWr.Slot = d.num()
	ir.ValsWr.Label = d.str()

	nBind := d.count()
	for i := 0; i < nBind && d.err == nil; i++ {
		var b graph.Binding
		b.Operand = d.str()
		b.Source = d.str()
		b.ModeOrder = d.nums()
		nf := d.count()
		for j := 0; j < nf && d.err == nil; j++ {
			b.Formats = append(b.Formats, fiber.Format(d.num()))
		}
		ir.Bindings = append(ir.Bindings, b)
	}
	ir.OutputTensor = d.str()
	nDim := d.count()
	for i := 0; i < nDim && d.err == nil; i++ {
		var dr graph.DimRef
		dr.Tensor = d.str()
		dr.Mode = d.num()
		ir.OutputDims = append(ir.OutputDims, dr)
	}
	ir.OutputVars = d.strSlice()
	ir.LHSVars = d.strSlice()

	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("prog: %d trailing bytes after payload", len(d.buf))
	}
	return ir, nil
}

// encoder builds the canonical byte form: magic and version up front, a
// varint payload with a first-use-ordered string table, CRC trailer last.
// Strings are interned as they are referenced, so the table order — and the
// whole encoding — is a pure function of the IR.
type encoder struct {
	payload []byte
	table   []string
	index   map[string]int
	tmp     [binary.MaxVarintLen64]byte
}

func (e *encoder) num(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.payload = append(e.payload, e.tmp[:n]...)
}

func (e *encoder) nums(vs []int) {
	e.num(int64(len(vs)))
	for _, v := range vs {
		e.num(int64(v))
	}
}

func (e *encoder) bool(b bool) {
	if b {
		e.num(1)
	} else {
		e.num(0)
	}
}

func (e *encoder) str(s string) {
	if e.index == nil {
		e.index = map[string]int{}
	}
	i, ok := e.index[s]
	if !ok {
		i = len(e.table)
		e.table = append(e.table, s)
		e.index[s] = i
	}
	e.num(int64(i))
}

func (e *encoder) strs(ss []string) {
	e.num(int64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) finish() []byte {
	out := make([]byte, 0, len(magic)+2+len(e.payload)+len(e.table)*8+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	n := binary.PutVarint(e.tmp[:], int64(len(e.table)))
	out = append(out, e.tmp[:n]...)
	for _, s := range e.table {
		n := binary.PutVarint(e.tmp[:], int64(len(s)))
		out = append(out, e.tmp[:n]...)
		out = append(out, s...)
	}
	out = append(out, e.payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decoder reads the varint payload with sticky error handling: the first
// malformed read poisons the decoder and every later read returns zero
// values, so parsing code stays straight-line and the caller checks err
// once. All counts are bounded by the remaining payload before allocation.
type decoder struct {
	buf  []byte
	strs []string
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("prog: "+format, args...)
	}
}

func (d *decoder) num() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated or malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("integer %d outside sane range", v)
		return 0
	}
	return int(v)
}

// count reads a collection length, bounding it by the remaining payload:
// every element costs at least one byte, so a count beyond that is corrupt
// and must not drive an allocation.
func (d *decoder) count() int {
	n := d.num()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > maxCount || n > len(d.buf) {
		d.fail("collection count %d exceeds remaining payload of %d bytes", n, len(d.buf))
		return 0
	}
	return n
}

func (d *decoder) nums() []int {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.num())
	}
	return out
}

func (d *decoder) bool() bool { return d.num() != 0 }

// rawString reads one length-prefixed string table entry.
func (d *decoder) rawString() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// str reads a string table reference.
func (d *decoder) str() string {
	i := d.num()
	if d.err != nil {
		return ""
	}
	if i < 0 || i >= len(d.strs) {
		d.fail("string reference %d outside table of %d", i, len(d.strs))
		return ""
	}
	return d.strs[i]
}

func (d *decoder) strSlice() []string {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}
